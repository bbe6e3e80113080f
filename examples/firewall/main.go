// Firewall: a stateless ACL + signature IDS composed with a compound element
// (Click's elementclass), demonstrating configuration-language features
// beyond the paper's four sample applications. UDP traffic with a small
// attack fraction passes IPFilter rules, then Snort-style IDS rules; the
// survivors are painted and echoed back. The program prints the packets
// inspected, the forwarded rate, the rule drops and the p99 latency.
package main

import (
	"fmt"
	"log"

	"nba"
)

const firewallConfig = `
	// A reusable inspected-path compound: ACL, then deep inspection.
	elementclass Inspected {
		acl :: IPFilter(
			"deny src net 10.66.0.0/16",
			"allow proto udp and dst port 53",
			"allow proto udp",
			"deny all");
		ids :: IDSRuleMatch();
		input -> acl -> ids -> output;
	}

	FromInput()
		-> CheckIPHeader()
		-> Inspected()
		-> Paint("1")
		-> EchoBack()
		-> ToOutput();
`

func main() {
	cfg := nba.Config{
		Topology:    nba.SingleSocketTopology(4, 2),
		GraphConfig: firewallConfig,
		Generator: &nba.UDP4{
			FrameLen:      256,
			Flows:         4096,
			Seed:          21,
			AttackFrac:    0.03,
			AttackPattern: []byte("/bin/sh"), // triggers built-in drop rule sid 2003
		},
		OfferedBpsPerPort: 2e9,
		Warmup:            5 * nba.Millisecond,
		Duration:          30 * nba.Millisecond,
		Seed:              8,
	}
	sys, err := nba.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}

	inspected := report.RxDelivered
	fmt.Printf("inspected:        %d packets\n", inspected)
	fmt.Printf("forwarded:        %.2f Gbps\n", report.TxGbps)
	fmt.Printf("dropped by rules: %d (%.2f%%)\n",
		report.GraphDrops, float64(report.GraphDrops)/float64(inspected)*100)
	fmt.Printf("p99 latency:      %.1f us\n", report.Latency.Percentile(99).Micros())
}
