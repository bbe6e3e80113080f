package bench

import (
	"fmt"
	"io"

	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "faults",
		Title: "Graceful degradation under a GPU outage (sec 3.4 robustness)",
		Paper: "ALB needs no device-specific knowledge: when the device dies, offload failures collapse w to 0 and the CPU carries the load; after recovery, perturbation re-discovers the optimum",
		Run:   runFaults,
	})
}

// FaultsScenario is the canonical fault-injection run shared by the bench
// experiment and its regression test: 64 B IPsec under the adaptive balancer
// while device 0 suffers a scripted outage. (`nba -faults` builds
// its own outage over span/4..span/2 under the -lb it was given; its seeds
// and LB string differ, so the two stay separate rather than move a digest.)
// The returned config carries the plan; failAt/recoverAt locate the outage on
// the virtual clock for assertions and output.
func FaultsScenario(o Options) (cfg core.Config, failAt, recoverAt simtime.Time) {
	warm := 5 * simtime.Millisecond
	dur := 250 * simtime.Millisecond
	failAt = 40 * simtime.Millisecond
	recoverAt = 70 * simtime.Millisecond
	if o.Quick {
		dur = 110 * simtime.Millisecond
		failAt = 12 * simtime.Millisecond
		recoverAt = 26 * simtime.Millisecond
	}
	cfg = o.appRun("ipsec", "adaptive", 64, offeredPerPort, warm, dur)
	// A 2 ms control period fills the controller's 16-sample smoothing
	// window every step; with shorter periods the boundary perturbations
	// that escape the post-outage collapse are judged on too few
	// batch-quantised samples.
	cfg.ALBObserve, cfg.ALBUpdate = 250*simtime.Microsecond, 2*simtime.Millisecond
	cfg.LatencySample = 64
	cfg.FaultPlan = fault.GPUOutage(failAt, recoverAt, 0)
	return cfg, failAt, recoverAt
}

// runFaults executes the outage scenario next to a fault-free twin and
// prints the controller's W trajectory around the outage: collapse to 0
// while offload tasks fail, CPU fallback carrying the load, and the
// re-climb toward the twin's optimum after recovery.
func runFaults(o Options, w io.Writer) error {
	cfg, failAt, recoverAt := FaultsScenario(o)
	faulted, err := Run(cfg)
	if err != nil {
		return err
	}
	cfg.FaultPlan = nil
	baseline, err := Run(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "IPsec 64B adaptive, device 0 fails at %v, recovers at %v\n\n", failAt, recoverAt)
	fmt.Fprintf(w, "%-10s %-8s %-8s\n", "time", "W", "Mpps")
	n := len(faulted.LBTrace)
	step := n / 24
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i += step {
		pt := faulted.LBTrace[i]
		mark := ""
		if pt.At >= failAt && pt.At < recoverAt {
			mark = "  <- outage"
		}
		fmt.Fprintf(w, "%-10v %-8.3f %-8.2f%s\n", pt.At, pt.W, pt.Throughput/1e6, mark)
	}
	fmt.Fprintf(w, "\nfailed tasks: %d   packets rescued on CPU: %d\n",
		faulted.FailedTasks, faulted.FallbackPackets)
	fmt.Fprintf(w, "final W: %.3f faulted vs %.3f fault-free (re-climb target)\n",
		faulted.FinalW, baseline.FinalW)
	fmt.Fprintf(w, "throughput: %s Gbps faulted vs %s fault-free (outage window included)\n",
		gbpsCell(faulted.TxGbps), gbpsCell(baseline.TxGbps))
	return nil
}
