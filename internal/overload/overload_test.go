package overload

import (
	"testing"

	"nba/internal/simtime"
)

const us = simtime.Microsecond

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.CoDelInterval != 500*us {
		t.Fatalf("unexpected defaults: %+v", c)
	}
}

func TestLevelStrings(t *testing.T) {
	want := map[Level]string{LevelNormal: "normal", LevelTrim: "trim", LevelBias: "bias", LevelBias + 1: "unknown"}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), s)
		}
	}
}

// Property: under sustained saturation the governor steps down monotonically,
// one level per stepDown windows, and parks at LevelBias.
func TestGovernorMonotoneStepDown(t *testing.T) {
	g := new(Governor)
	prev := g.Level()
	changes := 0
	for i := 0; i < 10*stepDown; i++ {
		lvl, changed := g.Observe(true)
		if lvl < prev {
			t.Fatalf("level rose from %v to %v under sustained saturation", prev, lvl)
		}
		if changed {
			changes++
			if lvl != prev+1 {
				t.Fatalf("level jumped from %v to %v; want single steps", prev, lvl)
			}
			wantAt := changes * stepDown
			if i+1 != wantAt {
				t.Fatalf("step %d fired after %d windows, want %d", changes, i+1, wantAt)
			}
		}
		prev = lvl
	}
	if changes != int(LevelBias) {
		t.Fatalf("%d steps under sustained saturation, want %d", changes, LevelBias)
	}
	if g.Level() != LevelBias || g.Peak() != LevelBias {
		t.Fatalf("level %v peak %v after sustained saturation, want bias", g.Level(), g.Peak())
	}
	// Further saturation holds the floor.
	if lvl, changed := g.Observe(true); lvl != LevelBias || changed {
		t.Fatalf("parked level moved: %v changed=%v", lvl, changed)
	}
}

// Property: after full degradation, sustained recovery steps all the way back
// up to LevelNormal, one level per stepUp windows.
func TestGovernorFullStepUp(t *testing.T) {
	g := new(Governor)
	for i := 0; i < int(LevelBias)*stepDown; i++ {
		g.Observe(true)
	}
	if g.Level() != LevelBias {
		t.Fatalf("level %v after %d saturated windows, want bias", g.Level(), int(LevelBias)*stepDown)
	}
	windows := 0
	for g.Level() != LevelNormal {
		if _, changed := g.Observe(false); changed {
			if windows%stepUp != stepUp-1 {
				t.Fatalf("recovery step after %d clear windows, want multiples of %d", windows+1, stepUp)
			}
		}
		windows++
		if windows > 100 {
			t.Fatal("governor never recovered")
		}
	}
	if windows != int(LevelBias)*stepUp {
		t.Fatalf("full recovery took %d windows, want %d", windows, int(LevelBias)*stepUp)
	}
	if g.Peak() != LevelBias {
		t.Fatalf("peak %v lost across recovery", g.Peak())
	}
	// Clear windows at LevelNormal are a no-op.
	if lvl, changed := g.Observe(false); lvl != LevelNormal || changed {
		t.Fatalf("normal level moved: %v changed=%v", lvl, changed)
	}
}

// Property: an alternating saturated/clear signal at a level boundary never
// oscillates — both streak counters reset on the opposite observation, so
// neither threshold is ever reached (mirrors the ALB boundary-dwell tests).
func TestGovernorNoOscillationAtBoundary(t *testing.T) {
	for _, start := range []int{stepDown, 2 * stepDown} { // at LevelTrim, then LevelBias
		g := new(Governor)
		for i := 0; i < start; i++ {
			g.Observe(true)
		}
		at := g.Level()
		for i := 0; i < 200; i++ {
			lvl, changed := g.Observe(i%2 == 0)
			if changed || lvl != at {
				t.Fatalf("alternating signal moved level from %v to %v at step %d", at, lvl, i)
			}
		}
	}
}

// Property: a recovery streak is voided by a single saturated window (and
// vice versa) — hysteresis counts consecutive windows only.
func TestGovernorStreaksReset(t *testing.T) {
	g := new(Governor)
	for i := 0; i < stepDown; i++ {
		g.Observe(true)
	}
	if g.Level() != LevelTrim {
		t.Fatalf("level %v after %d saturated windows, want trim", g.Level(), stepDown)
	}
	// stepUp-1 clear windows, then one saturated: no recovery may fire.
	for i := 0; i < stepUp-1; i++ {
		if _, changed := g.Observe(false); changed {
			t.Fatal("recovered before stepUp consecutive clear windows")
		}
	}
	if lvl, _ := g.Observe(true); lvl != LevelTrim {
		t.Fatalf("level %v after voided recovery streak, want trim", lvl)
	}
	// The saturated window above also restarts the degradation streak.
	if _, changed := g.Observe(true); !changed {
		t.Fatal("degradation streak did not resume after reset")
	}
}

func TestCoDelBelowTargetNeverDrops(t *testing.T) {
	c := CoDel{Interval: 500 * us}
	for now := simtime.Time(0); now < 100*simtime.Millisecond; now += 10 * us {
		if c.ShouldDrop(now, 49*us) {
			t.Fatalf("dropped below target at %v", now)
		}
	}
}

func TestCoDelDropsAfterSustainedSojourn(t *testing.T) {
	c := CoDel{Interval: 500 * us}
	var drops []simtime.Time
	for now := simtime.Time(0); now < 10*simtime.Millisecond; now += 10 * us {
		if c.ShouldDrop(now, 200*us) {
			drops = append(drops, now)
		}
	}
	if len(drops) < 3 {
		t.Fatalf("only %d drops under sustained overload", len(drops))
	}
	// Nothing sheds inside the first grace interval.
	if drops[0] < c.Interval {
		t.Fatalf("first drop at %v, inside the %v grace interval", drops[0], c.Interval)
	}
	// The control law accelerates: successive drop gaps shrink, modulo the
	// 10 µs poll grid the decisions are sampled on.
	for i := 2; i < len(drops); i++ {
		if gap, prev := drops[i]-drops[i-1], drops[i-1]-drops[i-2]; gap > prev+10*us {
			t.Fatalf("drop gap grew from %v to %v; control law must accelerate", prev, gap)
		}
	}
	if first, last := drops[1]-drops[0], drops[len(drops)-1]-drops[len(drops)-2]; last >= first {
		t.Fatalf("late drop gap %v not below early gap %v", last, first)
	}
}

func TestCoDelRecoversWhenQueueDrains(t *testing.T) {
	c := CoDel{Interval: 500 * us}
	now := simtime.Time(0)
	for ; now < 5*simtime.Millisecond; now += 10 * us {
		c.ShouldDrop(now, 200*us)
	}
	// Queue drained: the very next below-target packet ends the episode.
	if c.ShouldDrop(now, 10*us) {
		t.Fatal("dropped a below-target packet")
	}
	// And the grace interval restarts: an isolated above-target packet is
	// not dropped immediately.
	if c.ShouldDrop(now+10*us, 200*us) {
		t.Fatal("dropped before a fresh interval elapsed")
	}
}

func TestCoDelDeterministic(t *testing.T) {
	run := func() []bool {
		c := CoDel{Interval: 500 * us}
		var out []bool
		for now := simtime.Time(0); now < 3*simtime.Millisecond; now += 7 * us {
			soj := 30 * us
			if (now/us)%3 == 0 {
				soj = 300 * us
			}
			out = append(out, c.ShouldDrop(now, soj))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical replays", i)
		}
	}
}
