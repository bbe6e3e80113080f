package bench

import (
	"fmt"
	"io"

	"nba/internal/core"
	"nba/internal/invariant"
	"nba/internal/overload"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

func init() {
	register(Experiment{
		ID:    "tenants",
		Title: "Multi-tenant co-residency: scaling 1-4 app graphs and noisy-neighbour isolation",
		Paper: "Consolidation extension beyond the paper (the Pythia direction): several NBA app graphs share one machine's workers, NIC queues and GPU under share-weighted scheduling; the per-tenant governor (trim -> bias -> shed) is expected to contain a misbehaving co-tenant's latency damage to that tenant",
		Run:   runTenants,
	})
}

// tenantBaseBps is the per-port offered load the tenant mixes share.
const tenantBaseBps = 2e9

// tenantApps orders the standard apps by co-residency mix: mixes of size n
// take the first n entries.
var tenantApps = []string{"ipv4", "ipsec", "ipv6", "ids"}

// tenantsFor builds an equal-share mix of the first n standard apps.
func tenantsFor(n int, seed uint64) ([]core.Tenant, error) {
	out := make([]core.Tenant, 0, n)
	for i := 0; i < n; i++ {
		t, err := AppTenant(tenantApps[i], tenantApps[i], "adaptive", 64, seed+1+uint64(i))
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// tenantSpec is one co-residency run on the canonical small socket.
func tenantSpec(o Options, tenants []core.Tenant, armed bool) core.Config {
	warm, dur := o.durations(2*simtime.Millisecond, 20*simtime.Millisecond)
	spec := core.Config{
		Tenants:           tenants,
		OfferedBpsPerPort: tenantBaseBps,
		Warmup:            warm, Duration: dur, Seed: o.Seed,
		Topology:      sysinfo.SingleSocketTopology(4, 2),
		LatencySample: 4,
		Checker:       invariant.New(),
	}
	if armed {
		spec.Overload = overload.Defaults()
	}
	return spec
}

// runTenants reports two things. First, the consolidation sweep: the same
// offered load split across 1 to 4 co-resident app graphs, with per-tenant
// throughput and the per-tenant conservation verdict. Second, the
// noisy-neighbour experiment: an ipv4 victim sharing the socket with an
// ipsec aggressor offered 2x its fair share, with the victim's p99.9
// compared between a disarmed run and one with the per-tenant governor
// armed — the governor must confine the damage to the aggressor.
func runTenants(o Options, w io.Writer) error {
	// Part 1: tenant-count sweep, all grid points independent.
	mixes := make([][]core.Tenant, 0, 4)
	for n := 1; n <= 4; n++ {
		ts, err := tenantsFor(n, o.Seed)
		if err != nil {
			return err
		}
		mixes = append(mixes, ts)
	}
	specs := make([]core.Config, len(mixes))
	for i := range mixes {
		specs[i] = tenantSpec(o, mixes[i], true)
	}
	reps, err := runGrid(o, specs)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "equal-share tenant mixes, %.1f Gbps per port offered in total, governor armed\n\n", tenantBaseBps/1e9)
	fmt.Fprintf(w, "%-8s %-9s %-9s  per-tenant Gbps (conservation)\n", "tenants", "aggGbps", "p99.9")
	for i, rep := range reps {
		cells := ""
		for _, tr := range rep.Tenants {
			cells += fmt.Sprintf("  %s %.2f (%s)", tr.Name, tr.TxGbps, passFail(tr.Conserved()))
		}
		viol := len(specs[i].Checker.Violations())
		if viol > 0 {
			cells += fmt.Sprintf("  [%d violation(s)]", viol)
		}
		fmt.Fprintf(w, "%-8d %-9s %-9v%s\n", len(rep.Tenants), gbpsCell(rep.TxGbps),
			rep.Latency.Percentile(99.9), cells)
	}

	// Part 2: noisy neighbour. The aggressor's RateScale 2 offers it twice
	// its fair share, saturating the shared socket.
	noisy := func(armed bool) (core.Config, error) {
		ts, err := tenantsFor(2, o.Seed) // ipv4 victim + ipsec aggressor
		if err != nil {
			return core.Config{}, err
		}
		ts[1].RateScale = 2
		return tenantSpec(o, ts, armed), nil
	}
	armedSpec, err := noisy(true)
	if err != nil {
		return err
	}
	disarmedSpec, err := noisy(false)
	if err != nil {
		return err
	}
	nreps, err := runGrid(o, []core.Config{armedSpec, disarmedSpec})
	if err != nil {
		return err
	}
	on, off := nreps[0], nreps[1]

	fmt.Fprintf(w, "\nnoisy neighbour: ipv4 victim + ipsec aggressor at 2x fair share\n")
	fmt.Fprintf(w, "%-9s %-8s  victim(ipv4)          aggressor(ipsec)\n", "governor", "aggGbps")
	for _, r := range []struct {
		name string
		rep  *core.Report
	}{{"armed", on}, {"off", off}} {
		v, a := r.rep.Tenants[0], r.rep.Tenants[1]
		fmt.Fprintf(w, "%-9s %-8s  %.2f Gbps p99.9 %-9v  %.2f Gbps shed %d\n",
			r.name, gbpsCell(r.rep.TxGbps),
			v.TxGbps, v.Latency.Percentile(99.9),
			a.TxGbps, a.ShedPackets+a.RxDropped)
	}
	vOn := on.Tenants[0].Latency.Percentile(99.9)
	vOff := off.Tenants[0].Latency.Percentile(99.9)
	fmt.Fprintf(w, "\nvictim p99.9: %v armed vs %v disarmed (governor must not worsen the victim: %s)\n",
		vOn, vOff, passFail(vOn <= vOff))
	return nil
}
