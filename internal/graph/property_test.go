package graph

import (
	"fmt"
	"strings"
	"testing"

	"nba/internal/packet"
	"nba/internal/rng"
)

// randomPipeline builds a random valid configuration: a tree of processing
// chains with weighted branches, every leaf ending in ToOutput or Discard.
func randomPipeline(r *rng.Rand) string {
	var sb strings.Builder
	var gen func(from string, depth int)
	n := 0
	fresh := func(class, params string) string {
		n++
		name := fmt.Sprintf("e%d", n)
		fmt.Fprintf(&sb, "%s :: %s(%s);\n", name, class, params)
		return name
	}
	gen = func(from string, depth int) {
		// Random chain of simple elements.
		cur := from
		for i := r.Intn(3); i > 0; i-- {
			var next string
			switch r.Intn(3) {
			case 0:
				next = fresh("NoOp", "")
			case 1:
				next = fresh("CheckIPHeader", "")
			default:
				next = fresh("EchoBack", "")
			}
			fmt.Fprintf(&sb, "%s -> %s;\n", cur, next)
			cur = next
		}
		if depth < 2 && r.Bool(0.5) {
			// Branch into two subtrees.
			frac := 0.05 + 0.4*r.Float64()
			b := fresh("RandomWeightedBranch", fmt.Sprintf("%q", fmt.Sprintf("%.2f", frac)))
			fmt.Fprintf(&sb, "%s -> %s;\n", cur, b)
			left := fresh("NoOp", "")
			right := fresh("NoOp", "")
			fmt.Fprintf(&sb, "%s[0] -> %s;\n", b, left)
			fmt.Fprintf(&sb, "%s[1] -> %s;\n", b, right)
			gen(left, depth+1)
			gen(right, depth+1)
			return
		}
		// Terminate.
		if r.Bool(0.8) {
			sink := fresh("ToOutput", "")
			fmt.Fprintf(&sb, "%s -> %s;\n", cur, sink)
		} else {
			sink := fresh("Discard", "")
			fmt.Fprintf(&sb, "%s -> %s;\n", cur, sink)
		}
	}
	src := fresh("FromInput", "")
	gen(src, 0)
	return sb.String()
}

// TestRandomPipelinesConserveAllPackets is the central executor invariant:
// for any pipeline shape, every injected packet is either transmitted or
// released, and every batch returns to its pool — under both branch
// handling strategies.
func TestRandomPipelinesConserveAllPackets(t *testing.T) {
	r := rng.New(20260705)
	for trial := 0; trial < 60; trial++ {
		src := randomPipeline(r)
		for _, pred := range []bool{true, false} {
			opts := Options{BranchPrediction: pred, OffloadChaining: true}
			g := buildGraph(t, src, opts)
			env := newTestEnv()
			ctx := pctx()
			injected := 0
			for round := 0; round < 6; round++ {
				n := 1 + r.Intn(64)
				b := mkBatch(t, env, n, 64)
				injected += n
				g.Inject(env, ctx, b)
			}
			total := len(env.transmitted) + len(env.released)
			if total != injected {
				t.Fatalf("trial %d (pred=%v): %d of %d packets accounted\nconfig:\n%s",
					trial, pred, total, injected, src)
			}
			if out := env.batchPool.Stats().Outstanding; out != 0 {
				t.Fatalf("trial %d (pred=%v): %d batches leaked\nconfig:\n%s",
					trial, pred, out, src)
			}
			// No packet may appear twice across transmitted and released.
			seen := map[*packet.Packet]bool{}
			for _, p := range env.transmitted {
				if seen[p] {
					t.Fatalf("trial %d: packet double-handled", trial)
				}
				seen[p] = true
			}
			for _, p := range env.released {
				if seen[p] {
					t.Fatalf("trial %d: packet both transmitted and released", trial)
				}
				seen[p] = true
			}
		}
	}
}

// TestRandomPipelinesWithCompounds exercises the conflang compound-element
// expansion end-to-end through the executor.
func TestRandomPipelinesWithCompounds(t *testing.T) {
	src := `
		elementclass Checked {
			input -> CheckIPHeader() -> NoOp() -> output;
		}
		elementclass Sampler {
			b :: RandomWeightedBranch("0.3");
			input -> b;
			b[0] -> Checked() -> output;
			b[1] -> Discard();
		}
		FromInput() -> Sampler() -> EchoBack() -> ToOutput();
	`
	g := buildGraph(t, src, DefaultOptions())
	env := newTestEnv()
	ctx := pctx()
	injected := 0
	for round := 0; round < 20; round++ {
		b := mkBatch(t, env, 64, 64)
		injected += 64
		g.Inject(env, ctx, b)
	}
	total := len(env.transmitted) + len(env.released)
	if total != injected {
		t.Fatalf("conservation through compounds: %d of %d", total, injected)
	}
	if len(env.released) == 0 || len(env.transmitted) == 0 {
		t.Error("expected both discarded and transmitted packets")
	}
	frac := float64(len(env.released)) / float64(injected)
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("discard fraction %v, want ~0.3 (branch inside compound)", frac)
	}
}

func TestElementCostsAllRegisteredClassesBuild(t *testing.T) {
	// Every registered element class (except test-only ones) must be
	// instantiable, and those that configure without parameters must build
	// into a runnable graph.
	noParam := []string{
		"NoOp", "EchoBack", "L2Forward", "CheckIPHeader", "CheckIP6Header",
		"DecIPTTL", "DecIP6HLIM", "Discard",
	}
	for _, class := range noParam {
		src := fmt.Sprintf("FromInput() -> %s() -> ToOutput();", class)
		if class == "Discard" {
			src = "FromInput() -> Discard();"
		}
		g := buildGraph(t, src, DefaultOptions())
		env := newTestEnv()
		g.Inject(env, pctx(), mkBatch(t, env, 8, 64))
		if got := len(env.transmitted) + len(env.released); got != 8 {
			t.Errorf("%s: %d of 8 packets accounted", class, got)
		}
	}
}
