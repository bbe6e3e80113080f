package nba_test

import (
	"fmt"
	"log"
	"testing"

	"nba"
	"nba/internal/element"
)

func TestFacadeEndToEnd(t *testing.T) {
	cfg := nba.Config{
		Topology:          nba.SingleSocketTopology(4, 2),
		GraphConfig:       `FromInput() -> L2Forward() -> ToOutput();`,
		Generator:         &nba.UDP4{FrameLen: 64, Flows: 256, Seed: 1},
		OfferedBpsPerPort: 1e9,
		Warmup:            1 * nba.Millisecond,
		Duration:          4 * nba.Millisecond,
		Seed:              2,
	}
	sys, err := nba.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.TxGbps <= 0 {
		t.Error("no throughput through the facade")
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d", r.PoolOutstanding)
	}
}

func TestFacadeDefaults(t *testing.T) {
	if nba.DefaultTopology().Sockets != 2 {
		t.Error("default topology wrong")
	}
	if nba.DefaultCostModel().MaxAggBatches != 32 {
		t.Error("default cost model wrong")
	}
}

func TestFacadeCustomElement(t *testing.T) {
	hits := 0
	nba.RegisterElement("FacadeProbe", func() nba.Element {
		return nba.NewClassicAdapter("FacadeProbe", 1, func(ctx *nba.ProcContext, pkt *nba.Packet) int {
			hits++
			return 0
		})
	})
	cfg := nba.Config{
		Topology:          nba.SingleSocketTopology(4, 2),
		GraphConfig:       `FromInput() -> FacadeProbe() -> EchoBack() -> ToOutput();`,
		Generator:         &nba.UDP4{FrameLen: 64, Flows: 16, Seed: 3},
		OfferedBpsPerPort: 5e8,
		Warmup:            1 * nba.Millisecond,
		Duration:          3 * nba.Millisecond,
		Seed:              4,
	}
	sys, err := nba.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if hits == 0 {
		t.Error("custom element never invoked")
	}
}

// TestEveryClassHasOneComputeForm: every registered class implements exactly
// one of the three compute forms — the rule graph.Build enforces for each
// configured element, checked here for the whole library at once.
func TestEveryClassHasOneComputeForm(t *testing.T) {
	for _, class := range element.Classes() {
		e, err := element.NewByClass(class)
		if err != nil {
			t.Fatal(err)
		}
		var forms []string
		if _, ok := e.(nba.PacketElement); ok {
			forms = append(forms, "Process")
		}
		if _, ok := e.(nba.BatchElement); ok {
			forms = append(forms, "ProcessBatch")
		}
		if _, ok := e.(nba.Offloadable); ok {
			forms = append(forms, "Kernel")
		}
		if len(forms) != 1 {
			t.Errorf("%s (%T) has compute forms %v, want exactly one", class, e, forms)
		}
	}
}

// ExampleNewSystem shows the minimal public-API flow. The throughput value
// is deterministic because the whole run happens in virtual time.
func ExampleNewSystem() {
	cfg := nba.Config{
		Topology:          nba.SingleSocketTopology(4, 2),
		GraphConfig:       `FromInput() -> EchoBack() -> ToOutput();`,
		Generator:         &nba.UDP4{FrameLen: 128, Flows: 64, Seed: 1},
		OfferedBpsPerPort: 1e9,
		Warmup:            1 * nba.Millisecond,
		Duration:          5 * nba.Millisecond,
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
	fmt.Printf("%.2f Gbps\n", report.TxGbps)
	// Output: 2.00 Gbps
}
