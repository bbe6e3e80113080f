package reconfig

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"nba/internal/rng"
	"nba/internal/simtime"
)

// TestPlanValidate is the table-driven timeline contract, mirroring the
// fault plan's: bounds first, then the per-tenant / per-device lifecycle
// automata replayed in application order.
func TestPlanValidate(t *testing.T) {
	initial := []string{"a", "b"}
	latent := []string{"l1", "l2"}
	const (
		ndev   = 2
		nports = 2
	)
	ms := func(n int) simtime.Time { return simtime.Time(n) * simtime.Millisecond }

	cases := []struct {
		name    string
		events  []Event
		wantErr string // "" = valid
	}{
		{"empty plan", nil, ""},
		{"admit then retune then evict", []Event{
			{At: ms(1), Kind: TenantAdmit, Tenant: "l1"},
			{At: ms(2), Kind: ShareRetune, Tenant: "l1", Share: 2},
			{At: ms(3), Kind: TenantEvict, Tenant: "l1"},
		}, ""},
		{"evict an initial tenant", []Event{
			{At: ms(1), Kind: TenantEvict, Tenant: "a"},
		}, ""},
		{"unplug then replug", []Event{
			{At: ms(1), Kind: DeviceUnplug, Device: 0},
			{At: ms(2), Kind: DevicePlug, Device: 0},
		}, ""},
		{"resize every port", []Event{
			{At: ms(1), Kind: QueueResize, Port: -1, Capacity: 64},
		}, ""},
		{"out-of-order authoring is applied by time", []Event{
			{At: ms(3), Kind: TenantEvict, Tenant: "l1"},
			{At: ms(1), Kind: TenantAdmit, Tenant: "l1"},
		}, ""},

		{"negative time", []Event{
			{At: -ms(1), Kind: TenantEvict, Tenant: "a"},
		}, "negative time"},
		{"unknown tenant", []Event{
			{At: ms(1), Kind: TenantAdmit, Tenant: "ghost"},
		}, "unknown tenant"},
		{"admit of active tenant", []Event{
			{At: ms(1), Kind: TenantAdmit, Tenant: "a"},
		}, "already in the split"},
		{"double admit", []Event{
			{At: ms(1), Kind: TenantAdmit, Tenant: "l1"},
			{At: ms(2), Kind: TenantAdmit, Tenant: "l1"},
		}, "already in the split"},
		{"re-admit after evict", []Event{
			{At: ms(1), Kind: TenantAdmit, Tenant: "l1"},
			{At: ms(2), Kind: TenantEvict, Tenant: "l1"},
			{At: ms(3), Kind: TenantAdmit, Tenant: "l1"},
		}, "re-admits evicted tenant"},
		{"evict of never-admitted latent", []Event{
			{At: ms(1), Kind: TenantEvict, Tenant: "l2"},
		}, "never admitted"},
		{"double evict", []Event{
			{At: ms(1), Kind: TenantEvict, Tenant: "a"},
			{At: ms(2), Kind: TenantEvict, Tenant: "a"},
		}, "twice"},
		{"retune of evicted tenant", []Event{
			{At: ms(1), Kind: TenantEvict, Tenant: "a"},
			{At: ms(2), Kind: ShareRetune, Tenant: "a", Share: 2},
		}, "not active"},
		{"retune of latent tenant", []Event{
			{At: ms(1), Kind: ShareRetune, Tenant: "l1", Share: 2},
		}, "not active"},
		{"non-positive retune share", []Event{
			{At: ms(1), Kind: ShareRetune, Tenant: "a", Share: 0},
		}, "non-positive share"},
		{"negative admit share", []Event{
			{At: ms(1), Kind: TenantAdmit, Tenant: "l1", Share: -1},
		}, "negative share"},
		{"NaN retune share", []Event{
			{At: ms(1), Kind: ShareRetune, Tenant: "a", Share: math.NaN()},
		}, "non-finite share"},
		{"infinite admit share", []Event{
			{At: ms(1), Kind: TenantAdmit, Tenant: "l1", Share: math.Inf(1)},
		}, "non-finite share"},
		{"device out of range", []Event{
			{At: ms(1), Kind: DeviceUnplug, Device: 2},
		}, "targets device"},
		{"double unplug", []Event{
			{At: ms(1), Kind: DeviceUnplug, Device: 1},
			{At: ms(2), Kind: DeviceUnplug, Device: 1},
		}, "already unplugged"},
		{"plug of plugged device", []Event{
			{At: ms(1), Kind: DevicePlug, Device: 0},
		}, "already plugged"},
		{"port out of range", []Event{
			{At: ms(1), Kind: QueueResize, Port: 2, Capacity: 64},
		}, "targets port"},
		{"zero capacity", []Event{
			{At: ms(1), Kind: QueueResize, Port: 0, Capacity: 0},
		}, "capacity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &Plan{Events: tc.events}
			err := p.Validate(initial, latent, ndev, nports)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid plan rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid plan accepted (want error containing %q)", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// Duplicate names across the initial+latent sets are a run-shape bug.
	if err := (&Plan{}).Validate([]string{"a"}, []string{"a"}, 1, 1); err == nil {
		t.Error("duplicate tenant name across initial+latent accepted")
	}
}

// TestSortedIsStable pins the same-tick tie-break to plan position.
func TestSortedIsStable(t *testing.T) {
	p := &Plan{Events: []Event{
		{At: 2 * simtime.Millisecond, Kind: ShareRetune, Tenant: "a", Share: 1},
		{At: simtime.Millisecond, Kind: ShareRetune, Tenant: "b", Share: 2},
		{At: 2 * simtime.Millisecond, Kind: ShareRetune, Tenant: "c", Share: 3},
	}}
	got := p.Sorted()
	if got[0].Tenant != "b" || got[1].Tenant != "a" || got[2].Tenant != "c" {
		t.Errorf("Sorted order %v, want b, a, c (time, then plan position)", got)
	}
	// Sorted must not mutate the authored plan.
	if p.Events[0].Tenant != "a" {
		t.Error("Sorted mutated the plan")
	}
}

// TestChurnIsValid pins the canonical scenario against its intended shape.
func TestChurnIsValid(t *testing.T) {
	span := 8 * simtime.Millisecond
	p := Churn(span, "churn")
	if err := p.Validate([]string{"victim"}, []string{"churn"}, 1, 2); err != nil {
		t.Fatalf("Churn plan invalid: %v", err)
	}
	if len(p.Events) != 3 || p.Events[0].Kind != TenantAdmit ||
		p.Events[1].Kind != ShareRetune || p.Events[2].Kind != TenantEvict {
		t.Errorf("Churn shape wrong: %+v", p.Events)
	}
	if p.Events[0].At != span/4 || p.Events[2].At != span*3/4 {
		t.Errorf("Churn times wrong: %+v", p.Events)
	}
}

// TestKindStringRoundTrip pins the reproducer-file encoding of every kind.
func TestKindStringRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := KindFromString(k.String())
		if err != nil || got != k {
			t.Errorf("kind %d round-trip: got %d, err %v", k, got, err)
		}
	}
	if _, err := KindFromString("bogus"); err == nil {
		t.Error("KindFromString accepted an unknown name")
	}
}

// TestRandomPlanValidAndDeterministic: every seed yields a plan that (a)
// passes Validate against its profile (RandomPlan re-checks and panics, so
// this is belt-and-braces at the API boundary), and (b) reproduces exactly
// from the same seed — a chaos case is fully identified by its seed.
func TestRandomPlanValidAndDeterministic(t *testing.T) {
	prof := Profile{
		Horizon: 3 * simtime.Millisecond,
		Initial: []string{"a", "b"},
		Latent:  []string{"l1", "l2"},
		Devices: 1,
		Ports:   2,
	}
	var nonEmpty int
	for seed := int64(1); seed <= 200; seed++ {
		p := RandomPlan(rng.New(uint64(seed)), prof)
		if err := p.Validate(prof.Initial, prof.Latent, prof.Devices, prof.Ports); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
		q := RandomPlan(rng.New(uint64(seed)), prof)
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("seed %d: plan not reproducible:\n%+v\n%+v", seed, p, q)
		}
		if len(p.Events) > 0 {
			nonEmpty++
		}
		for _, ev := range p.Events {
			if ev.At < 0 || ev.At >= prof.Horizon {
				t.Fatalf("seed %d: event outside horizon: %+v", seed, ev)
			}
			if ev.At%timeGrid != 0 {
				t.Fatalf("seed %d: event off the time grid: %+v", seed, ev)
			}
		}
	}
	if nonEmpty < 150 {
		t.Errorf("only %d/200 seeds produced events; the generator is too timid", nonEmpty)
	}
}
