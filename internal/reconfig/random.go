package reconfig

import (
	"fmt"

	"nba/internal/rng"
	"nba/internal/simtime"
)

// Profile bounds what RandomPlan may generate. It carries the run shape the
// plan must be valid against and the horizon epochs must begin inside.
type Profile struct {
	// Horizon is the window epoch begin times are placed in (measurement
	// start to end of run). Must be positive.
	Horizon simtime.Time
	// Initial names the tenants active at construction; Latent the
	// admittable pool (core.Config.LatentTenants). Evicts draw from
	// Initial plus already-admitted latents; admits consume Latent.
	Initial, Latent []string
	// Devices / Ports mirror the run topology the plan targets.
	Devices, Ports int
	// QueueCapacity is the configured RX-ring capacity; resizes pick from
	// [max(8, cap/4), 2*cap]. Must be positive.
	QueueCapacity int
}

// maxEpochs caps the number of generated epochs, matching the fault
// generator's episode cap so the two plans of a chaos case are of a size.
const maxEpochs = 4

// timeGrid quantises generated epoch times so plans are stable, diffable
// and shrink to tidy reproducers. It matches the fault generator's grid, so
// same-tick reconfig+fault collisions occur naturally in chaos sweeps.
const timeGrid = 10 * simtime.Microsecond

// RandomPlan generates a valid, bounded reconfiguration plan from the
// seeded rng — the chaos-search input generator for control-plane churn.
// Plans are valid by construction (a per-tenant lifecycle cursor admits
// each latent at most once and evicts each tenant at most once, device
// plug state alternates, epoch times move forward per target), and
// validity is re-checked before returning: a generator bug is a panic, not
// a silently skewed search space.
//
// The same (rng state, profile) always yields the same plan, so a chaos
// case is fully identified by its seed.
func RandomPlan(r *rng.Rand, prof Profile) *Plan {
	if prof.Horizon <= 0 {
		panic(fmt.Sprintf("reconfig: RandomPlan horizon %v", prof.Horizon))
	}
	if prof.QueueCapacity <= 0 {
		panic(fmt.Sprintf("reconfig: RandomPlan queue capacity %d", prof.QueueCapacity))
	}

	quant := func(t simtime.Time) simtime.Time {
		q := t / timeGrid * timeGrid
		if q < 0 {
			q = 0
		}
		return q
	}

	// Mutable tenant pools: admits move a name latent→active, evicts move
	// it active→gone. Index-addressed slices keep removal deterministic.
	latent := append([]string(nil), prof.Latent...)
	active := append([]string(nil), prof.Initial...)
	// One forward cursor serializes epochs: overlapping epochs defer
	// anyway, so generating them spread out keeps plans readable.
	var cursor simtime.Time
	devPlugged := make([]bool, prof.Devices)
	for d := range devPlugged {
		devPlugged[d] = true
	}
	// next picks the begin time for the next epoch at or after the cursor;
	// ok is false when the horizon has run out of room.
	next := func() (at simtime.Time, ok bool) {
		room := prof.Horizon - cursor
		if room < 4*timeGrid {
			return 0, false
		}
		at = quant(cursor + simtime.Time(r.Float64()*float64(room)*0.5))
		if at < cursor {
			at = cursor
		}
		return at, true
	}
	take := func(pool *[]string) string {
		i := r.Intn(len(*pool))
		name := (*pool)[i]
		*pool = append((*pool)[:i], (*pool)[i+1:]...)
		return name
	}

	plan := &Plan{}
	epochs := 1 + r.Intn(maxEpochs)
	for e := 0; e < epochs; e++ {
		at, ok := next()
		if !ok {
			break
		}
		// Weighted pick over the epoch kinds the current state supports.
		var kinds []int
		if len(latent) > 0 {
			kinds = append(kinds, 0, 0) // admits weighted up: they unlock evicts
		}
		if len(active) > 1 { // never evict the last tenant
			kinds = append(kinds, 1)
		}
		if len(active) > 0 {
			kinds = append(kinds, 2)
		}
		if prof.Devices > 0 {
			kinds = append(kinds, 3)
		}
		if prof.Ports > 0 {
			kinds = append(kinds, 4)
		}
		if len(kinds) == 0 {
			break
		}
		switch kinds[r.Intn(len(kinds))] {
		case 0: // admit a latent tenant, occasionally with a share override
			name := take(&latent)
			ev := Event{At: at, Kind: TenantAdmit, Tenant: name}
			if r.Bool(0.5) {
				ev.Share = 0.5 + r.Float64()*1.5 // 0.5x .. 2x of a unit share
			}
			plan.Events = append(plan.Events, ev)
			active = append(active, name)
		case 1: // evict an active tenant (keeping at least one running)
			name := take(&active)
			plan.Events = append(plan.Events, Event{At: at, Kind: TenantEvict, Tenant: name})
		case 2: // retune an active tenant's share
			name := active[r.Intn(len(active))]
			share := 0.25 + r.Float64()*2.75 // 0.25x .. 3x
			plan.Events = append(plan.Events, Event{At: at, Kind: ShareRetune, Tenant: name, Share: share})
		case 3: // toggle a device's plug state
			dev := r.Intn(prof.Devices)
			kind := DeviceUnplug
			if !devPlugged[dev] {
				kind = DevicePlug
			}
			devPlugged[dev] = !devPlugged[dev]
			plan.Events = append(plan.Events, Event{At: at, Kind: kind, Device: dev})
		case 4: // resize a port's RX rings (shrink or grow)
			port := r.Intn(prof.Ports)
			if r.Bool(0.25) {
				port = -1 // occasionally re-carve every port
			}
			lo := prof.QueueCapacity / 4
			if lo < 8 {
				lo = 8
			}
			capacity := lo + r.Intn(2*prof.QueueCapacity-lo+1)
			plan.Events = append(plan.Events, Event{At: at, Kind: QueueResize, Port: port, Capacity: capacity})
		}
		cursor = at + timeGrid
	}

	if err := plan.Validate(prof.Initial, prof.Latent, prof.Devices, prof.Ports); err != nil {
		panic(fmt.Sprintf("reconfig: RandomPlan generated an invalid plan: %v", err))
	}
	return plan
}
