package bench

import (
	"fmt"
	"io"

	"nba/internal/core"
	"nba/internal/reconfig"
	"nba/internal/simtime"
)

func init() {
	register(Experiment{
		ID:    "reconfig",
		Title: "Hitless reconfiguration: victim latency under tenant churn epochs",
		Paper: "Robustness extension beyond the paper: the control plane admits, retunes and evicts a co-tenant mid-run via epoch drain-and-handoff while a steady victim keeps serving; hitless means the victim's tail latency under churn stays comparable to an undisturbed run and every packet still conserves",
		Run:   runReconfig,
	})
}

// runReconfig runs an ipv4 victim twice — once undisturbed, once with an
// ipsec tenant admitted at 1/4 of the run, retuned at 1/2 and evicted at 3/4
// (reconfig.Churn) — and compares the victim's throughput and p99.9 across
// the two, with the invariant oracle (including the epoch conservation
// checks) armed on both.
func runReconfig(o Options, w io.Writer) error {
	warm, dur := o.durations(2*simtime.Millisecond, 20*simtime.Millisecond)
	span := warm + dur

	mkSpec := func(churn bool) (core.Config, error) {
		ts, err := tenantsFor(1, o.Seed) // the ipv4 victim
		if err != nil {
			return core.Config{}, err
		}
		spec := tenantSpec(o, ts, true)
		if churn {
			latent, err := AppTenant("churn", "ipsec", "adaptive", 64, o.Seed+2)
			if err != nil {
				return core.Config{}, err
			}
			spec.LatentTenants = []core.Tenant{latent}
			spec.Reconfig = reconfig.Churn(span, "churn")
		}
		return spec, nil
	}

	steadySpec, err := mkSpec(false)
	if err != nil {
		return err
	}
	churnSpec, err := mkSpec(true)
	if err != nil {
		return err
	}
	specs := []core.Config{steadySpec, churnSpec}
	reps, err := runGrid(o, specs)
	if err != nil {
		return err
	}
	steady, churned := reps[0], reps[1]

	fmt.Fprintf(w, "ipv4 victim at %.1f Gbps per port; churn = ipsec tenant admitted at span/4, share doubled at span/2, evicted at 3*span/4\n\n",
		tenantBaseBps/1e9)
	fmt.Fprintf(w, "%-8s %-8s  victim(ipv4)                 churn(ipsec)\n", "run", "aggGbps")
	for _, r := range []struct {
		name string
		rep  *core.Report
	}{{"steady", steady}, {"churn", churned}} {
		v := r.rep.Tenants[0]
		cells := fmt.Sprintf("%.2f Gbps p99.9 %-10v", v.TxGbps, v.Latency.Percentile(99.9))
		if len(r.rep.Tenants) > 1 {
			c := r.rep.Tenants[1]
			cells += fmt.Sprintf("  %.2f Gbps in [%v, %v]", c.TxGbps, c.Admitted, c.EvictedAt)
		}
		fmt.Fprintf(w, "%-8s %-8s  %s\n", r.name, gbpsCell(r.rep.TxGbps), cells)
	}

	ct := churned.Tenants[1]
	// No tracer is attached here, so the sealed Digest is legitimately empty;
	// the digest-sealing contract is pinned by the core and chaos tests.
	ok := ct.Evicted && ct.Conserved()
	fmt.Fprintf(w, "\nchurned tenant sealed at evict: %s (evicted %v, conservation %d = %d+%d+%d+%d)\n",
		passFail(ok), ct.EvictedAt, ct.RxDelivered, ct.TxPackets, ct.GraphDrops, ct.ShedPackets, ct.QuarantinedPackets)

	vSteady := steady.Tenants[0].Latency.Percentile(99.9)
	vChurn := churned.Tenants[0].Latency.Percentile(99.9)
	// Hitless bound: epochs may cost the victim some tail latency (shares
	// re-split, lanes pause at quiesce), but not an order of magnitude.
	fmt.Fprintf(w, "victim p99.9: %v steady vs %v under churn (hitless: %s)\n",
		vSteady, vChurn, passFail(vChurn <= 10*vSteady))
	for i, spec := range specs {
		if n := len(spec.Checker.Violations()); n > 0 {
			fmt.Fprintf(w, "run %d: %d invariant violation(s)\n", i, n)
			for _, v := range spec.Checker.Violations() {
				fmt.Fprintf(w, "  %v\n", v)
			}
		}
	}
	return nil
}
