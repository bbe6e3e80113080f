package ids

import (
	"fmt"
	"strconv"
	"strings"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
)

// This file implements a Snort-flavoured rule language (the paper's IDS
// matches "signatures" in the style of Snort rules) and its compiler into
// the Aho-Corasick and regex-DFA engines:
//
//	alert udp any any -> any 53 (msg:"dns tunnel"; content:"evil"; pcre:"/[a-z]+[0-9]/"; sid:1001;)
//
// Supported header: action ∈ {alert, drop}; proto ∈ {ip, udp, tcp};
// addresses are "any" (address matching is delegated to classifiers in the
// pipeline); ports are "any" or a literal. Options: msg, content (repeatable,
// all must match), pcre, sid.

// RuleAction is what happens when a rule matches.
type RuleAction int

const (
	// ActionAlert annotates and forwards.
	ActionAlert RuleAction = iota
	// ActionDrop discards the packet.
	ActionDrop
)

// Rule is one parsed IDS rule.
type Rule struct {
	Action   RuleAction
	Proto    string // "ip", "udp", "tcp"
	SrcPort  int    // -1 = any
	DstPort  int    // -1 = any
	Msg      string
	Contents []string // all must be present in the payload
	PCRE     string   // optional regular expression
	SID      int
}

// ParseRules parses a rule file (one rule per line; '#' comments).
func ParseRules(text string) ([]Rule, error) {
	var rules []Rule
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseRule(line)
		if err != nil {
			return nil, fmt.Errorf("ids: rule line %d: %w", lineNo+1, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("ids: no rules found")
	}
	return rules, nil
}

func parseRule(line string) (Rule, error) {
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return Rule{}, fmt.Errorf("missing option block '(...)'")
	}
	header := strings.Fields(line[:open])
	if len(header) != 7 {
		return Rule{}, fmt.Errorf("header needs 7 fields (action proto src sport -> dst dport), got %d", len(header))
	}
	var r Rule
	switch header[0] {
	case "alert":
		r.Action = ActionAlert
	case "drop":
		r.Action = ActionDrop
	default:
		return Rule{}, fmt.Errorf("unknown action %q", header[0])
	}
	switch header[1] {
	case "ip", "udp", "tcp":
		r.Proto = header[1]
	default:
		return Rule{}, fmt.Errorf("unknown protocol %q", header[1])
	}
	if header[2] != "any" || header[5] != "any" {
		return Rule{}, fmt.Errorf("only 'any' addresses are supported")
	}
	if header[4] != "->" {
		return Rule{}, fmt.Errorf("expected '->', got %q", header[4])
	}
	var err error
	if r.SrcPort, err = parsePort(header[3]); err != nil {
		return Rule{}, err
	}
	if r.DstPort, err = parsePort(header[6]); err != nil {
		return Rule{}, err
	}

	opts := strings.TrimSuffix(line[open+1:], ")")
	for _, opt := range splitOptions(opts) {
		key, value, found := strings.Cut(opt, ":")
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		if !found {
			if key == "" {
				continue
			}
			return Rule{}, fmt.Errorf("malformed option %q", opt)
		}
		switch key {
		case "msg":
			r.Msg = unquote(value)
		case "content":
			c := unquote(value)
			if c == "" {
				return Rule{}, fmt.Errorf("empty content")
			}
			r.Contents = append(r.Contents, c)
		case "pcre":
			p := unquote(value)
			p = strings.TrimPrefix(p, "/")
			p = strings.TrimSuffix(p, "/")
			if p == "" {
				return Rule{}, fmt.Errorf("empty pcre")
			}
			r.PCRE = p
		case "sid":
			sid, err := strconv.Atoi(value)
			if err != nil || sid < 0 {
				return Rule{}, fmt.Errorf("bad sid %q", value)
			}
			r.SID = sid
		default:
			return Rule{}, fmt.Errorf("unknown option %q", key)
		}
	}
	if len(r.Contents) == 0 && r.PCRE == "" {
		return Rule{}, fmt.Errorf("rule needs at least one content or pcre option")
	}
	return r, nil
}

func parsePort(s string) (int, error) {
	if s == "any" {
		return -1, nil
	}
	p, err := strconv.Atoi(s)
	if err != nil || p < 0 || p > 65535 {
		return 0, fmt.Errorf("bad port %q", s)
	}
	return p, nil
}

// splitOptions splits "a;b;c" respecting quoted strings.
func splitOptions(s string) []string {
	var out []string
	var sb strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			sb.WriteByte(c)
		case c == ';' && !inQuote:
			out = append(out, sb.String())
			sb.Reset()
		default:
			sb.WriteByte(c)
		}
	}
	if sb.Len() > 0 {
		out = append(out, sb.String())
	}
	return out
}

func unquote(s string) string {
	s = strings.TrimSpace(s)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		return s[1 : len(s)-1]
	}
	return s
}

// RuleSet is a compiled rule collection: one Aho-Corasick automaton over
// every content pattern, one scanning DFA per pcre, plus per-rule port and
// protocol predicates evaluated on match candidates.
type RuleSet struct {
	Rules []Rule

	ac *AC
	// patRule[i] lists (rule index, content index) pairs for AC pattern i.
	patOwners [][]int
	// contentCount[r] is how many contents rule r requires.
	contentCount []int
	dfas         []*DFA // indexed by rule; nil if no pcre
}

// CompileRuleSet builds the matching machinery for a parsed rule list.
func CompileRuleSet(rules []Rule) (*RuleSet, error) {
	rs := &RuleSet{Rules: rules, contentCount: make([]int, len(rules)), dfas: make([]*DFA, len(rules))}
	var patterns []string
	for ri, r := range rules {
		rs.contentCount[ri] = len(r.Contents)
		for _, c := range r.Contents {
			patterns = append(patterns, c)
			rs.patOwners = append(rs.patOwners, []int{ri})
		}
		if r.PCRE != "" {
			d, err := CompileRules([]string{r.PCRE})
			if err != nil {
				return nil, fmt.Errorf("ids: rule sid=%d: %w", r.SID, err)
			}
			rs.dfas[ri] = d
		}
	}
	if len(patterns) > 0 {
		ac, err := BuildAC(patterns)
		if err != nil {
			return nil, err
		}
		rs.ac = ac
	}
	return rs, nil
}

// Match evaluates the rule set against one packet. It returns the index of
// the first matching rule (lowest index) or -1.
func (rs *RuleSet) Match(pkt *packet.Packet) int {
	f := pkt.Data()
	if len(f) < packet.EthHdrLen+packet.IPv4HdrLen {
		return -1
	}
	ip := f[packet.EthHdrLen:]
	proto := packet.IPv4Proto(ip)
	var sport, dport uint16
	ihl := packet.IPv4IHL(ip)
	if (proto == packet.ProtoUDP || proto == 6) && len(ip) >= ihl+4 {
		sport = packet.UDPSrcPort(ip[ihl:])
		dport = packet.UDPDstPort(ip[ihl:])
	}
	payload := f[packet.EthHdrLen:]

	// Phase 1: collect content hits per rule via one AC scan.
	var hits map[int]map[string]bool
	if rs.ac != nil {
		rs.ac.Scan(payload, func(id, end int) bool {
			ri := rs.patOwners[id][0]
			if hits == nil {
				hits = make(map[int]map[string]bool)
			}
			m := hits[ri]
			if m == nil {
				m = make(map[string]bool)
				hits[ri] = m
			}
			m[rs.ac.Patterns()[id]] = true
			return true
		})
	}

	// Phase 2: evaluate candidate rules in order.
	for ri, r := range rs.Rules {
		if !r.matchesHeader(proto, sport, dport) {
			continue
		}
		if rs.contentCount[ri] > 0 {
			if hits == nil || len(hits[ri]) < rs.contentCount[ri] {
				continue
			}
		}
		if d := rs.dfas[ri]; d != nil {
			if d.Match(payload) < 0 {
				continue
			}
		}
		return ri
	}
	return -1
}

func (r *Rule) matchesHeader(proto int, sport, dport uint16) bool {
	switch r.Proto {
	case "udp":
		if proto != packet.ProtoUDP {
			return false
		}
	case "tcp":
		if proto != 6 {
			return false
		}
	}
	if r.SrcPort >= 0 && int(sport) != r.SrcPort {
		return false
	}
	if r.DstPort >= 0 && int(dport) != r.DstPort {
		return false
	}
	return true
}

// DefaultSnortRules is the built-in demonstration rule file.
const DefaultSnortRules = `
# NBA IDS demonstration rules (Snort-flavoured subset).
alert udp any any -> any 53   (msg:"suspicious long dns label"; pcre:"/[a-z0-9]([a-z0-9-]+[a-z0-9])+[a-z0-9]{24}/"; sid:2001;)
alert ip  any any -> any any  (msg:"shellcode nop sled"; content:"\x90\x90\x90\x90"; sid:2002;)
drop  ip  any any -> any any  (msg:"shell spawn"; content:"/bin/sh"; sid:2003;)
alert udp any any -> any any  (msg:"sql injection"; content:"UNION SELECT"; content:"FROM"; sid:2004;)
alert ip  any any -> any 80   (msg:"path traversal"; content:"../../../"; sid:2005;)
drop  ip  any any -> any any  (msg:"exfil beacon"; content:"exfil.begin"; pcre:"/id=[0-9a-f]+/"; sid:2006;)
`

// IDSRuleMatch is an element evaluating a full Snort-style rule set on the
// CPU. Parameters: none (built-in rules) or "rules=<inline rule text>".
type IDSRuleMatch struct {
	rs *RuleSet
}

// Class implements element.Element.
func (*IDSRuleMatch) Class() string { return "IDSRuleMatch" }

// OutPorts implements element.Element.
func (*IDSRuleMatch) OutPorts() int { return 1 }

// Configure implements element.Element. Content patterns are matched as
// literal bytes (no escape processing).
func (e *IDSRuleMatch) Configure(ctx *element.ConfigContext, args []string) error {
	text := DefaultSnortRules
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "rules="):
			text = strings.TrimPrefix(a, "rules=")
		default:
			return fmt.Errorf("IDSRuleMatch: unknown parameter %q", a)
		}
	}
	key := "ids.ruleset." + text
	var err error
	e.rs, err = element.GetOrCreate(ctx.NodeLocal, key, func() (*RuleSet, error) {
		rules, err := ParseRules(text)
		if err != nil {
			return nil, err
		}
		return CompileRuleSet(rules)
	})
	return err
}

// Datablocks implements element.Offloadable: the payload goes to the device
// (sharing the IDS payload block with the simple matchers), verdicts come
// back.
func (e *IDSRuleMatch) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "ids.payload", Kind: element.WholePacket, Offset: packet.EthHdrLen, H2D: true},
		{Name: "ids.verdict", Kind: element.UserData, UserBytes: 4, D2H: true},
	}
}

// Kernel implements element.Offloadable: the first matching rule of each
// live packet decides its verdict.
//
//nba:hotpath
func (e *IDSRuleMatch) Kernel(ctx *element.ProcContext, b *batch.Batch) {
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		ri := e.rs.Match(pkt)
		if ri < 0 {
			return
		}
		rule := &e.rs.Rules[ri]
		pkt.Anno[packet.AnnoMatchResult] = uint64(rule.SID)
		if rule.Action == ActionDrop {
			b.SetResult(i, batch.ResultDrop)
		}
	})
}
