package nba_test

// One benchmark per table/figure of the paper's evaluation (§4). Each
// benchmark executes its experiment in Quick mode through the same harness
// cmd/nbabench uses, reporting wall time for the whole regeneration and the
// headline virtual-throughput metric where one exists.
//
// Full-fidelity regeneration (paper-scale virtual durations):
//
//	go run ./cmd/nbabench -all

import (
	"bytes"
	"fmt"
	"testing"

	"nba/internal/bench"
	"nba/internal/simtime"
)

func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := bench.Options{Quick: true, Seed: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := e.Run(opts, &buf); err != nil {
			b.Fatalf("%s: %v\noutput so far:\n%s", id, err, buf.String())
		}
		if buf.Len() == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

func BenchmarkTab01FeatureMatrix(b *testing.B)       { runExperiment(b, "tab1") }
func BenchmarkTab03Hardware(b *testing.B)            { runExperiment(b, "tab3") }
func BenchmarkFig01BatchSplit(b *testing.B)          { runExperiment(b, "fig1") }
func BenchmarkFig02OffloadFraction(b *testing.B)     { runExperiment(b, "fig2") }
func BenchmarkComposition(b *testing.B)              { runExperiment(b, "composition") }
func BenchmarkFig09ComputationBatching(b *testing.B) { runExperiment(b, "fig9") }
func BenchmarkFig10BranchPrediction(b *testing.B)    { runExperiment(b, "fig10") }
func BenchmarkFig11Scalability(b *testing.B)         { runExperiment(b, "fig11") }
func BenchmarkFig12PacketSizes(b *testing.B)         { runExperiment(b, "fig12") }
func BenchmarkFig13ALB(b *testing.B)                 { runExperiment(b, "fig13") }
func BenchmarkFig14Latency(b *testing.B)             { runExperiment(b, "fig14") }

func BenchmarkAblationDatablock(b *testing.B)  { runExperiment(b, "ablation-datablock") }
func BenchmarkAblationAggSize(b *testing.B)    { runExperiment(b, "ablation-aggsize") }
func BenchmarkAblationPhi(b *testing.B)        { runExperiment(b, "ablation-phi") }
func BenchmarkAblationNUMA(b *testing.B)       { runExperiment(b, "ablation-numa") }
func BenchmarkAblationBoundedLat(b *testing.B) { runExperiment(b, "ablation-boundedlat") }
func BenchmarkALBReconverge(b *testing.B)      { runExperiment(b, "alb-reconverge") }

// BenchmarkHeadline reports the headline single-run numbers (IPv4 64 B
// CPU-only and IPsec 64 B GPU-only on the full simulated machine) as custom
// metrics, so regressions in the simulation's performance model show up in
// benchmark diffs.
func BenchmarkHeadline(b *testing.B) {
	for _, c := range []struct{ name, app, lb string }{
		{"ipv4-64B-cpu", "ipv4", "cpu"},
		{"ipsec-64B-gpu", "ipsec", "gpu"},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg, err := bench.AppRun(c.app, c.lb, 64, 42)
			if err != nil {
				b.Fatal(err)
			}
			cfg.OfferedBpsPerPort = 10e9
			cfg.Warmup, cfg.Duration = 2*simtime.Millisecond, 8*simtime.Millisecond
			b.ReportAllocs()
			var gbps float64
			for i := 0; i < b.N; i++ {
				r, err := bench.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				gbps = r.TxGbps
			}
			b.ReportMetric(gbps, "virtGbps")
		})
	}
}

// Example of using the harness programmatically.
func ExampleByID() {
	e, _ := bench.ByID("tab3")
	fmt.Println(e.ID)
	// Output: tab3
}
