// Package ids implements the intrusion detection application (paper §4.1):
// Aho-Corasick multi-pattern string matching and PCRE-style regular
// expression matching, both compiled to DFA form "using standard
// approaches" (the paper cites Aho-Corasick 1975 and Thompson 1968), plus
// the offloadable IDSMatch elements. Both automata scan through one flat
// table (scan.go), whose batch kernel advances many packets in lockstep:
// in four lanes of Go, or, on an amd64 CPU with AVX-512, in groups of 16
// lanes on vector gathers (scan_amd64.s). The form is picked once per table
// and gives the same IDs.
package ids

import (
	"fmt"
	"sort"
)

// AC is an Aho-Corasick automaton in full-DFA form: every state has a
// precomputed transition for every input byte (failure links are folded in
// at build time), so scanning is one table access per byte. Match (lowest
// pattern ID in data, or -1) comes from the embedded table.
type AC struct {
	scanTable
	out      [][]int32 // pattern IDs ending at each state, ascending
	patterns []string
}

// BuildAC compiles the pattern set. Patterns must be non-empty.
func BuildAC(patterns []string) (*AC, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("ids: empty pattern set")
	}
	a := &AC{patterns: patterns}
	// State 0 is the root. next is the construction-time table; only its
	// flattened form is kept.
	next := [][256]int32{{}}
	a.out = append(a.out, nil)
	goto_ := []map[byte]int32{{}}

	for id, p := range patterns {
		if len(p) == 0 {
			return nil, fmt.Errorf("ids: pattern %d is empty", id)
		}
		s := int32(0)
		for i := 0; i < len(p); i++ {
			c := p[i]
			nxt, ok := goto_[s][c]
			if !ok {
				nxt = int32(len(goto_))
				goto_ = append(goto_, map[byte]int32{})
				next = append(next, [256]int32{})
				a.out = append(a.out, nil)
				goto_[s][c] = nxt
			}
			s = nxt
		}
		a.out[s] = append(a.out[s], int32(id))
	}

	// BFS to compute failure links and fold them into full transitions.
	fail := make([]int32, len(goto_))
	queue := make([]int32, 0, len(goto_))
	for c := 0; c < 256; c++ {
		if nxt, ok := goto_[0][byte(c)]; ok {
			next[0][c] = nxt
			queue = append(queue, nxt)
		} else {
			next[0][c] = 0
		}
	}
	for len(queue) > 0 {
		s := queue[0]
		queue = queue[1:]
		a.out[s] = append(a.out[s], a.out[fail[s]]...)
		for c := 0; c < 256; c++ {
			if nxt, ok := goto_[s][byte(c)]; ok {
				next[s][c] = nxt
				fail[nxt] = next[fail[s]][c]
				queue = append(queue, nxt)
			} else {
				next[s][c] = next[fail[s]][c]
			}
		}
	}
	first := make([]int32, len(a.out))
	for s := range a.out {
		sort.Slice(a.out[s], func(i, j int) bool { return a.out[s][i] < a.out[s][j] })
		first[s] = -1
		if len(a.out[s]) > 0 {
			first[s] = a.out[s][0]
		}
	}
	a.scanTable = newScanTable(next, first)
	return a, nil
}

// Patterns returns the compiled pattern set.
func (a *AC) Patterns() []string { return a.patterns }

// Scan invokes visit for every match occurrence (pattern ID, end offset).
// Returning false from visit stops the scan.
func (a *AC) Scan(data []byte, visit func(id, end int) bool) {
	e := a.entry(0)
	for pos, c := range data {
		e = a.next[e&^1+uint32(c)]
		if e&1 == 0 {
			continue
		}
		for _, id := range a.out[e>>8] {
			if !visit(int(id), pos+1) {
				return
			}
		}
	}
}
