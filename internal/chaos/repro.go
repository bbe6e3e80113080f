package chaos

import (
	"encoding/json"
	"fmt"
	"os"

	"nba/internal/fault"
	"nba/internal/reconfig"
	"nba/internal/simtime"
)

// Reproducer files are plain JSON so a failing case can be attached to a
// bug report and replayed with `nbachaos replay <file>`. The event format
// (picosecond times, kinds by name) belongs to fault.Event / reconfig.Event.

type reproFile struct {
	App string `json:"app"`
	// Tenants, when present, replays the case as a co-resident tenant mix.
	Tenants []string `json:"tenants,omitempty"`
	// Seed drives the run's own randomness (LB coin flips, generator).
	Seed uint64 `json:"seed"`
	// TaskTimeoutPs overrides the rescue timeout; omitted = framework
	// default, negative = disabled.
	TaskTimeoutPs int64         `json:"task_timeout_ps,omitempty"`
	Events        []fault.Event `json:"events"`
	// Latent / ReconfigEvents replay control-plane churn cases: the latent
	// app pool and the reconfiguration timeline (tenants by their in-run
	// names).
	Latent         []string         `json:"latent,omitempty"`
	ReconfigEvents []reconfig.Event `json:"reconfig_events,omitempty"`
	// DisarmSampling replays the case with the integrity sentinel armed but
	// not sampling (the seeded corruption-leak configuration).
	DisarmSampling bool `json:"disarm_sampling,omitempty"`
}

// WriteRepro writes the case as a replayable reproducer file.
func WriteRepro(path string, c Case) error {
	rf := reproFile{
		App: c.App, Tenants: c.Tenants, Seed: c.Seed,
		TaskTimeoutPs: int64(c.TaskTimeout), Latent: c.Latent,
		DisarmSampling: c.DisarmSampling,
	}
	if c.Plan != nil {
		// append, here and in ReadRepro: an empty plan is null in the file and
		// nil in the case however it was spelled, so round trips are fixed points.
		rf.Events = append(rf.Events, c.Plan.Events...)
	}
	if c.Reconfig != nil {
		rf.ReconfigEvents = c.Reconfig.Events
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRepro loads a reproducer file back into a runnable case.
func ReadRepro(path string) (Case, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Case{}, err
	}
	var rf reproFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return Case{}, fmt.Errorf("chaos: %s: %w", path, err)
	}
	c := Case{
		App:            rf.App,
		Tenants:        rf.Tenants,
		Seed:           rf.Seed,
		TaskTimeout:    simtime.Time(rf.TaskTimeoutPs),
		Plan:           &fault.Plan{Events: append([]fault.Event(nil), rf.Events...)},
		Latent:         rf.Latent,
		DisarmSampling: rf.DisarmSampling,
	}
	if len(rf.ReconfigEvents) > 0 {
		c.Reconfig = &reconfig.Plan{Events: rf.ReconfigEvents}
	}
	return c, nil
}
