package ids

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
)

// The regex engine compiles a PCRE-like subset — literals, '.', character
// classes with ranges and negation, escapes (\d \w \s \n \t and punctuation),
// grouping, alternation, and the * + ? repetitions — through a Thompson NFA
// into a scanning DFA (implicit leading ".*", so a match anywhere in the
// input accepts). This mirrors the paper's "PCRE ... with their DFA forms
// using standard approaches".

// byteSet is a 256-bit set.
type byteSet [4]uint64

func (s *byteSet) add(c byte)      { s[c>>6] |= 1 << (c & 63) }
func (s *byteSet) has(c byte) bool { return s[c>>6]&(1<<(c&63)) != 0 }
func (s *byteSet) addRange(lo, hi byte) {
	for c := int(lo); c <= int(hi); c++ {
		s.add(byte(c))
	}
}
func (s *byteSet) negate() {
	for i := range s {
		s[i] = ^s[i]
	}
}

// AST.
type reNode interface{ isRE() }

type reChar struct{ set byteSet }
type reConcat struct{ parts []reNode }
type reAlt struct{ opts []reNode }
type reStar struct{ sub reNode }
type rePlus struct{ sub reNode }
type reQuest struct{ sub reNode }
type reEmpty struct{}

func (reChar) isRE()   {}
func (reConcat) isRE() {}
func (reAlt) isRE()    {}
func (reStar) isRE()   {}
func (rePlus) isRE()   {}
func (reQuest) isRE()  {}
func (reEmpty) isRE()  {}

// ParseRegex parses the supported syntax into an AST.
func ParseRegex(pattern string) (reNode, error) {
	p := &reParser{src: pattern}
	n, err := p.alt()
	if err != nil {
		return nil, fmt.Errorf("ids: regex %q: %w", pattern, err)
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("ids: regex %q: unexpected %q at %d", pattern, p.src[p.pos], p.pos)
	}
	return n, nil
}

type reParser struct {
	src string
	pos int
}

func (p *reParser) alt() (reNode, error) {
	first, err := p.concat()
	if err != nil {
		return nil, err
	}
	opts := []reNode{first}
	for p.pos < len(p.src) && p.src[p.pos] == '|' {
		p.pos++
		n, err := p.concat()
		if err != nil {
			return nil, err
		}
		opts = append(opts, n)
	}
	if len(opts) == 1 {
		return first, nil
	}
	return reAlt{opts: opts}, nil
}

func (p *reParser) concat() (reNode, error) {
	var parts []reNode
	for p.pos < len(p.src) && p.src[p.pos] != '|' && p.src[p.pos] != ')' {
		n, err := p.repeat()
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	switch len(parts) {
	case 0:
		return reEmpty{}, nil
	case 1:
		return parts[0], nil
	default:
		return reConcat{parts: parts}, nil
	}
}

func (p *reParser) repeat() (reNode, error) {
	n, err := p.atom()
	if err != nil {
		return nil, err
	}
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '*':
			n = reStar{sub: n}
		case '+':
			n = rePlus{sub: n}
		case '?':
			n = reQuest{sub: n}
		default:
			return n, nil
		}
		p.pos++
	}
	return n, nil
}

func (p *reParser) atom() (reNode, error) {
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("unexpected end of pattern")
	}
	c := p.src[p.pos]
	switch c {
	case '(':
		p.pos++
		n, err := p.alt()
		if err != nil {
			return nil, err
		}
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return nil, fmt.Errorf("missing ')'")
		}
		p.pos++
		return n, nil
	case '[':
		return p.class()
	case '.':
		p.pos++
		var s byteSet
		s.addRange(0, 255)
		return reChar{set: s}, nil
	case '\\':
		p.pos++
		return p.escape()
	case '*', '+', '?':
		return nil, fmt.Errorf("repetition %q with nothing to repeat", c)
	case ')':
		return nil, fmt.Errorf("unmatched ')'")
	default:
		p.pos++
		var s byteSet
		s.add(c)
		return reChar{set: s}, nil
	}
}

func (p *reParser) escape() (reNode, error) {
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("trailing backslash")
	}
	c := p.src[p.pos]
	p.pos++
	var s byteSet
	switch c {
	case 'd':
		s.addRange('0', '9')
	case 'w':
		s.addRange('a', 'z')
		s.addRange('A', 'Z')
		s.addRange('0', '9')
		s.add('_')
	case 's':
		for _, ws := range []byte{' ', '\t', '\n', '\r', '\f', '\v'} {
			s.add(ws)
		}
	case 'n':
		s.add('\n')
	case 't':
		s.add('\t')
	case 'r':
		s.add('\r')
	default:
		if strings.ContainsRune(`\.[]()|*+?^$-/{}"'`, rune(c)) {
			s.add(c)
		} else {
			return nil, fmt.Errorf("unsupported escape \\%c", c)
		}
	}
	return reChar{set: s}, nil
}

func (p *reParser) class() (reNode, error) {
	p.pos++ // consume [
	var s byteSet
	negate := false
	if p.pos < len(p.src) && p.src[p.pos] == '^' {
		negate = true
		p.pos++
	}
	empty := true
	for {
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("missing ']'")
		}
		c := p.src[p.pos]
		if c == ']' && !empty {
			p.pos++
			break
		}
		p.pos++
		if c == '\\' {
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("trailing backslash in class")
			}
			c = classEscape(p.src[p.pos])
			p.pos++
		}
		empty = false
		// Range?
		if p.pos+1 < len(p.src) && p.src[p.pos] == '-' && p.src[p.pos+1] != ']' {
			p.pos++
			hi := p.src[p.pos]
			p.pos++
			if hi == '\\' {
				if p.pos >= len(p.src) {
					return nil, fmt.Errorf("trailing backslash in class")
				}
				hi = classEscape(p.src[p.pos])
				p.pos++
			}
			if hi < c {
				return nil, fmt.Errorf("inverted range %c-%c", c, hi)
			}
			s.addRange(c, hi)
			continue
		}
		s.add(c)
	}
	if negate {
		s.negate()
	}
	return reChar{set: s}, nil
}

func classEscape(c byte) byte {
	switch c {
	case 'n':
		return '\n'
	case 't':
		return '\t'
	case 'r':
		return '\r'
	default:
		return c
	}
}

// --- Thompson NFA ---

type nfaState struct {
	// Byte transition: on any c in set, go to to (valid when hasByte).
	hasByte bool
	set     byteSet
	to      int
	// Epsilon transitions.
	eps []int
	// accept holds the rule ID accepted at this state, or -1.
	accept int
}

type nfa struct {
	states []nfaState
	start  int
}

func (n *nfa) add() int {
	n.states = append(n.states, nfaState{accept: -1})
	return len(n.states) - 1
}

// build compiles node into the NFA, returning (entry, exit) states.
func (n *nfa) build(node reNode) (int, int) {
	switch t := node.(type) {
	case reEmpty:
		s := n.add()
		return s, s
	case reChar:
		in := n.add()
		out := n.add()
		n.states[in].hasByte = true
		n.states[in].set = t.set
		n.states[in].to = out
		return in, out
	case reConcat:
		first, last := -1, -1
		for _, part := range t.parts {
			in, out := n.build(part)
			if first == -1 {
				first = in
			} else {
				n.states[last].eps = append(n.states[last].eps, in)
			}
			last = out
		}
		return first, last
	case reAlt:
		in := n.add()
		out := n.add()
		for _, opt := range t.opts {
			oin, oout := n.build(opt)
			n.states[in].eps = append(n.states[in].eps, oin)
			n.states[oout].eps = append(n.states[oout].eps, out)
		}
		return in, out
	case reStar:
		in := n.add()
		out := n.add()
		sin, sout := n.build(t.sub)
		n.states[in].eps = append(n.states[in].eps, sin, out)
		n.states[sout].eps = append(n.states[sout].eps, sin, out)
		return in, out
	case rePlus:
		sin, sout := n.build(t.sub)
		out := n.add()
		n.states[sout].eps = append(n.states[sout].eps, sin, out)
		return sin, out
	case reQuest:
		in := n.add()
		out := n.add()
		sin, sout := n.build(t.sub)
		n.states[in].eps = append(n.states[in].eps, sin, out)
		n.states[sout].eps = append(n.states[sout].eps, out)
		return in, out
	default:
		panic(fmt.Sprintf("ids: unknown regex node %T", node))
	}
}

// --- DFA (subset construction) ---

// MaxDFAStates bounds subset construction; exceeding it is a compile error.
const MaxDFAStates = 65536

// DFA is a scanning automaton over rules: a state's output is the lowest
// rule ID accepted there, or -1. States and Match (lowest rule ID matching
// anywhere in data, or -1) come from the embedded table.
type DFA struct {
	scanTable
}

// CompileRules builds one scanning DFA matching any of the rules anywhere
// in the input (implicit ".*" prefix).
func CompileRules(rules []string) (*DFA, error) {
	if len(rules) == 0 {
		return nil, fmt.Errorf("ids: empty rule set")
	}
	n := &nfa{}
	n.start = n.add()
	for id, rule := range rules {
		ast, err := ParseRegex(rule)
		if err != nil {
			return nil, err
		}
		in, out := n.build(ast)
		n.states[n.start].eps = append(n.states[n.start].eps, in)
		n.states[out].accept = id
	}

	// closure replaces set with its sorted epsilon closure and returns it
	// (in set's storage, grown as needed). seen and stack are scratch reused
	// across the ~states*256 calls; seen is left all-false.
	seen := make([]bool, len(n.states))
	var stack []int
	closure := func(set []int) []int {
		stack = stack[:0]
		for _, s := range set {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
		set = set[:0]
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			set = append(set, s)
			for _, e := range n.states[s].eps {
				if !seen[e] {
					seen[e] = true
					stack = append(stack, e)
				}
			}
		}
		for _, s := range set {
			seen[s] = false
		}
		sort.Ints(set)
		return set
	}

	// key encodes a sorted subset as bytes (uvarints are prefix-free, so the
	// encoding is injective); string(kbuf) in a map index does not allocate.
	var kbuf []byte
	key := func(set []int) []byte {
		kbuf = kbuf[:0]
		for _, s := range set {
			kbuf = binary.AppendUvarint(kbuf, uint64(s))
		}
		return kbuf
	}

	// next and accept are the construction-time tables; only their
	// flattened form is kept.
	var next [][256]int32
	var accept []int32
	ids := map[string]int32{}
	var sets [][]int
	// addState numbers a new subset; it copies set, which is scratch.
	addState := func(set []int, k []byte) int32 {
		id := int32(len(sets))
		ids[string(k)] = id
		sets = append(sets, append([]int(nil), set...))
		next = append(next, [256]int32{})
		accept = append(accept, acceptOf(n, set))
		return id
	}
	// Scanning semantics: every subset implicitly contains the NFA start
	// (the ".*" self-loop).
	start := closure([]int{n.start})
	addState(start, key(start))

	var moved []int
	for si := 0; si < len(sets); si++ {
		for c := 0; c < 256; c++ {
			moved = moved[:0]
			for _, s := range sets[si] {
				st := &n.states[s]
				if st.hasByte && st.set.has(byte(c)) {
					moved = append(moved, st.to)
				}
			}
			moved = append(moved, n.start) // implicit .* restart
			moved = closure(moved)
			k := key(moved)
			id, ok := ids[string(k)]
			if !ok {
				if len(sets) >= MaxDFAStates {
					return nil, fmt.Errorf("ids: DFA exceeds %d states", MaxDFAStates)
				}
				id = addState(moved, k)
			}
			next[si][c] = id
		}
	}
	return &DFA{scanTable: newScanTable(next, accept)}, nil
}

func acceptOf(n *nfa, set []int) int32 {
	best := int32(-1)
	for _, s := range set {
		if a := n.states[s].accept; a >= 0 {
			if best == -1 || int32(a) < best {
				best = int32(a)
			}
		}
	}
	return best
}
