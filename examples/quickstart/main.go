// Quickstart: build a custom element, compose a pipeline in the NBA
// configuration language, run it on the simulated platform and read the
// report.
package main

import (
	"fmt"
	"log"

	"nba"
)

// CountTTL is a user-defined element: it histograms the IPv4 TTL of every
// packet it forwards. It shows the minimal surface — an element's identity
// (Class, OutPorts, Configure) plus one compute form, here the per-packet
// Process of nba.PacketElement; everything else (batching, branching, IO) is
// the framework's job.
type CountTTL struct {
	Seen [256]uint64
}

func (e *CountTTL) Class() string { return "CountTTL" }
func (e *CountTTL) OutPorts() int { return 1 }
func (e *CountTTL) Configure(ctx *nba.ConfigContext, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("CountTTL takes no parameters")
	}
	return nil
}
func (e *CountTTL) Process(ctx *nba.ProcContext, pkt *nba.Packet) int {
	f := pkt.Data()
	if len(f) > 14+8 {
		e.Seen[f[14+8]]++
	}
	return 0
}

func main() {
	counters := make([]*CountTTL, 0)
	nba.RegisterElement("CountTTL", func() nba.Element {
		e := &CountTTL{}
		counters = append(counters, e) // one instance per worker replica
		return e
	})

	cfg := nba.Config{
		Topology: nba.SingleSocketTopology(4, 2), // 3 workers, 2x10GbE
		GraphConfig: `
			// A minimal forwarding pipeline with our custom element spliced in.
			FromInput() -> CheckIPHeader() -> CountTTL() -> L2Forward() -> ToOutput();
		`,
		Generator:         &nba.UDP4{FrameLen: 64, Flows: 4096, Seed: 7},
		OfferedBpsPerPort: 3e9,
		Warmup:            5 * nba.Millisecond,
		Duration:          20 * nba.Millisecond,
		Seed:              1,
	}

	sys, err := nba.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report, err := sys.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("throughput: %.2f Gbps (%.2f Mpps)\n", report.TxGbps, report.TxPPS/1e6)
	fmt.Printf("latency:    min %.1f us, avg %.1f us, p99 %.1f us\n",
		report.Latency.Min().Micros(), report.Latency.Mean().Micros(),
		report.Latency.Percentile(99).Micros())

	var ttl64 uint64
	for _, c := range counters {
		ttl64 += c.Seen[64]
	}
	fmt.Printf("packets with TTL=64 seen by CountTTL replicas: %d\n", ttl64)
}
