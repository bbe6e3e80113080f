package ids

import (
	"strings"
	"testing"

	"nba/internal/apps/apptest"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
)

func TestParseRulesBasics(t *testing.T) {
	rules, err := ParseRules(`
		# comment
		alert udp any any -> any 53 (msg:"dns"; content:"evil"; sid:1;)

		drop ip any any -> any any (content:"/bin/sh"; pcre:"/sh -[ci]/"; sid:2;)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	r0 := rules[0]
	if r0.Action != ActionAlert || r0.Proto != "udp" || r0.DstPort != 53 || r0.SrcPort != -1 {
		t.Errorf("rule 0 header wrong: %+v", r0)
	}
	if r0.Msg != "dns" || len(r0.Contents) != 1 || r0.Contents[0] != "evil" || r0.SID != 1 {
		t.Errorf("rule 0 options wrong: %+v", r0)
	}
	r1 := rules[1]
	if r1.Action != ActionDrop || r1.PCRE != "sh -[ci]" {
		t.Errorf("rule 1 wrong: %+v", r1)
	}
}

func TestParseRulesQuotedSemicolons(t *testing.T) {
	rules, err := ParseRules(`alert ip any any -> any any (msg:"semi;colon"; content:"a;b"; sid:3;)`)
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Msg != "semi;colon" || rules[0].Contents[0] != "a;b" {
		t.Errorf("quoted semicolons mishandled: %+v", rules[0])
	}
}

func TestParseRulesErrors(t *testing.T) {
	bad := []string{
		`alert udp any any -> any 53`,                              // no options
		`explode ip any any -> any any (content:"x"; sid:1;)`,      // bad action
		`alert icmp any any -> any any (content:"x"; sid:1;)`,      // bad proto
		`alert ip 10.0.0.1 any -> any any (content:"x"; sid:1;)`,   // non-any addr
		`alert ip any any <- any any (content:"x"; sid:1;)`,        // bad arrow
		`alert ip any 99999 -> any any (content:"x"; sid:1;)`,      // bad port
		`alert ip any any -> any any (msg:"only message"; sid:1;)`, // no content/pcre
		`alert ip any any -> any any (content:""; sid:1;)`,         // empty content
		`alert ip any any -> any any (content:"x"; sid:-2;)`,       // bad sid
		`alert ip any any -> any any (wat:"x"; sid:1;)`,            // unknown option
		`alert ip any any -> any any (pcre:"/(/"; sid:1;)`,         // pcre won't compile (caught at compile)
		``, // no rules at all
	}
	for _, src := range bad[:10] {
		if _, err := ParseRules(src); err == nil {
			t.Errorf("ParseRules(%q) succeeded", src)
		}
	}
	if _, err := ParseRules("  \n# just comments\n"); err == nil {
		t.Error("empty rule set accepted")
	}
	// The unbalanced pcre parses but must fail to compile.
	rules, err := ParseRules(bad[10])
	if err != nil {
		t.Fatalf("pcre rule failed to parse: %v", err)
	}
	if _, err := CompileRuleSet(rules); err == nil {
		t.Error("uncompilable pcre accepted by CompileRuleSet")
	}
}

func mkRulePkt(t *testing.T, dport uint16, payload string) *packet.Packet {
	t.Helper()
	p := &packet.Packet{}
	frameLen := packet.EthHdrLen + packet.IPv4HdrLen + packet.UDPHdrLen + len(payload)
	n := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, 1, 2, 1234, dport, frameLen)
	p.SetLength(n)
	copy(p.Buf()[packet.EthHdrLen+packet.IPv4HdrLen+packet.UDPHdrLen:], payload)
	return p
}

func TestRuleSetMatchSemantics(t *testing.T) {
	rules, err := ParseRules(`
		alert udp any any -> any 53 (msg:"dns only"; content:"evil"; sid:10;)
		alert udp any any -> any any (msg:"both contents"; content:"aaa"; content:"bbb"; sid:11;)
		drop ip any any -> any any (msg:"pcre"; pcre:"/x[0-9]+y/"; sid:12;)
	`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := CompileRuleSet(rules)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dport   uint16
		payload string
		want    int
	}{
		{53, "so evil here", 0},
		{80, "so evil here", -1}, // port mismatch
		{80, "aaa then bbb", 1},  // both contents required and present
		{80, "aaa only", -1},     // missing second content
		{80, "zz x123y zz", 2},   // pcre
		{80, "nothing", -1},
		{53, "evil aaa bbb", 0}, // lowest rule wins
	}
	for _, c := range cases {
		got := rs.Match(mkRulePkt(t, c.dport, c.payload))
		if got != c.want {
			t.Errorf("Match(dport=%d, %q) = %d, want %d", c.dport, c.payload, got, c.want)
		}
	}
}

func TestIDSRuleMatchElement(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 4, Rand: rng.New(1)}
	pc := &element.ProcContext{NodeLocal: nl, Rand: rng.New(2), CostScale: 1}
	e := &IDSRuleMatch{}
	if err := e.Configure(cc, nil); err != nil {
		t.Fatal(err)
	}
	clean := mkRulePkt(t, 80, "completely ordinary text")
	if r := apptest.RunOne(e, pc, clean); r != 0 || clean.Anno[packet.AnnoMatchResult] != 0 {
		t.Error("clean packet flagged")
	}
	// Built-in sid 2003 is a drop rule on "/bin/sh".
	evil := mkRulePkt(t, 80, "run /bin/sh now")
	if r := apptest.RunOne(e, pc, evil); r != element.Drop {
		t.Error("drop rule did not drop")
	}
	if evil.Anno[packet.AnnoMatchResult] != 2003 {
		t.Errorf("annotation = %d, want sid 2003", evil.Anno[packet.AnnoMatchResult])
	}
	// Built-in sid 2004 is an alert rule needing both contents on udp.
	alert := mkRulePkt(t, 80, "UNION SELECT pass FROM users")
	if r := apptest.RunOne(e, pc, alert); r != 0 {
		t.Error("alert rule dropped")
	}
	if alert.Anno[packet.AnnoMatchResult] != 2004 {
		t.Errorf("annotation = %d, want sid 2004", alert.Anno[packet.AnnoMatchResult])
	}
}

func TestIDSRuleMatchCustomRules(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 4, Rand: rng.New(1)}
	pc := &element.ProcContext{NodeLocal: nl, Rand: rng.New(2), CostScale: 1}
	e := &IDSRuleMatch{}
	custom := `drop ip any any -> any any (msg:"custom"; content:"FORBIDDEN"; sid:7777;)`
	if err := e.Configure(cc, []string{"rules=" + custom}); err != nil {
		t.Fatal(err)
	}
	p := mkRulePkt(t, 80, "this is FORBIDDEN content")
	if r := apptest.RunOne(e, pc, p); r != element.Drop || p.Anno[packet.AnnoMatchResult] != 7777 {
		t.Errorf("custom rule not applied: r=%d anno=%d", r, p.Anno[packet.AnnoMatchResult])
	}
	if err := e.Configure(cc, []string{"bogus=1"}); err == nil {
		t.Error("bad parameter accepted")
	}
	if err := e.Configure(cc, []string{"rules=garbage"}); err == nil {
		t.Error("garbage rules accepted")
	}
}

func TestDefaultSnortRulesCompile(t *testing.T) {
	rules, err := ParseRules(DefaultSnortRules)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) < 5 {
		t.Fatalf("only %d built-in rules", len(rules))
	}
	if _, err := CompileRuleSet(rules); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(DefaultSnortRules, "sid:2003") {
		t.Error("expected demonstration sid missing")
	}
}

func BenchmarkRuleSetMatch(b *testing.B) {
	rules, _ := ParseRules(DefaultSnortRules)
	rs, _ := CompileRuleSet(rules)
	p := &packet.Packet{}
	n := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, 1, 2, 1234, 53, 512)
	p.SetLength(n)
	b.SetBytes(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Match(p)
	}
}

func TestRuleSetTCPProto(t *testing.T) {
	rules, err := ParseRules(`
		alert tcp any any -> any 80 (msg:"http attack"; content:"cmd.exe"; sid:20;)
		alert udp any any -> any any (msg:"udp only"; content:"cmd.exe"; sid:21;)
	`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := CompileRuleSet(rules)
	if err != nil {
		t.Fatal(err)
	}
	// A TCP packet to port 80 containing the signature matches rule 0.
	p := &packet.Packet{}
	payload := "GET /cmd.exe HTTP/1.0"
	frameLen := packet.EthHdrLen + packet.IPv4HdrLen + packet.TCPHdrLen + len(payload)
	n := packet.BuildTCP4(p.Buf(), [6]byte{2}, [6]byte{4}, 1, 2, 40000, 80, 7, packet.TCPPsh|packet.TCPAck, frameLen)
	p.SetLength(n)
	copy(p.Buf()[packet.EthHdrLen+packet.IPv4HdrLen+packet.TCPHdrLen:], payload)
	if got := rs.Match(p); got != 0 {
		t.Errorf("tcp match = %d, want 0", got)
	}
	// The same payload over UDP matches the UDP rule instead.
	u := mkRulePkt(t, 80, payload)
	if got := rs.Match(u); got != 1 {
		t.Errorf("udp match = %d, want 1", got)
	}
}
