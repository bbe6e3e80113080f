package ids

import (
	"regexp"
	"sync"
	"testing"

	"nba/internal/batch"
	"nba/internal/packet"
	"nba/internal/rng"
)

// The batch kernel is checked against references that share no code with
// it: NaiveMatch for the AC table, stdlib regexp (lowest matching rule) for
// the DFA table. Payloads use a three-letter alphabet so matches are common.

var (
	diffPatterns = []string{"abc", "bca", "cab", "aa", "bb", "abcabc", "ca"}
	diffRules    = []string{`ab+c`, `(ab|ca)+b`, `[ab]c[ab]c`, `a.c.a`, `cc(a|b)*cc`, `bbbb`}
)

// frame builds a frame of frameLen bytes whose bytes after the Ethernet
// header are payload's (frameLen <= EthHdrLen leaves no scan region).
func frame(frameLen int, payload []byte) *packet.Packet {
	p := &packet.Packet{}
	p.SetLength(frameLen)
	if frameLen > packet.EthHdrLen {
		copy(p.Data()[packet.EthHdrLen:], payload)
	}
	return p
}

func randomPayload(r *rng.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = 'a' + byte(r.Intn(3))
	}
	return data
}

func lowestRule(std []*regexp.Regexp, data []byte) int {
	for i, re := range std {
		if re.Match(data) {
			return i
		}
	}
	return -1
}

// checkBatch runs both kernels over b and compares every live slot with the
// references; masked slots must be left untouched.
func checkBatch(t *testing.T, ac *AC, d *DFA, std []*regexp.Regexp, b *batch.Batch) {
	t.Helper()
	const untouched = -7
	var acIDs, reIDs [batch.MaxBatchSize]int32
	for i := range acIDs {
		acIDs[i], reIDs[i] = untouched, untouched
	}
	ac.matchBatch(b, &acIDs)
	d.matchBatch(b, &reIDs)
	for i := 0; i < b.Count(); i++ {
		if b.IsMasked(i) {
			if acIDs[i] != untouched || reIDs[i] != untouched {
				t.Errorf("masked slot %d written: AC %d, DFA %d", i, acIDs[i], reIDs[i])
			}
			continue
		}
		data := payloadOf(b.Packet(i))
		if want := NaiveMatch(ac.Patterns(), data); int(acIDs[i]) != want {
			t.Errorf("slot %d (%d B): AC batch %d, naive %d", i, len(data), acIDs[i], want)
		}
		if want := lowestRule(std, data); int(reIDs[i]) != want {
			t.Errorf("slot %d (%d B): DFA batch %d, stdlib %d", i, len(data), reIDs[i], want)
		}
	}
	for i := b.Count(); i < batch.MaxBatchSize; i++ {
		if acIDs[i] != untouched || reIDs[i] != untouched {
			t.Fatalf("slot %d beyond the batch written", i)
		}
	}
}

func diffAutomata(t testing.TB) (*AC, *DFA, []*regexp.Regexp) {
	t.Helper()
	ac, err := BuildAC(diffPatterns)
	if err != nil {
		t.Fatal(err)
	}
	d, err := CompileRules(diffRules)
	if err != nil {
		t.Fatal(err)
	}
	var std []*regexp.Regexp
	for _, r := range diffRules {
		std = append(std, regexp.MustCompile(r))
	}
	return ac, d, std
}

func TestScanBatchAgainstReferences(t *testing.T) {
	ac, d, std := diffAutomata(t)
	// 10 and 14 B frames have no scan region, 15 B has one byte.
	lens := []int{10, 14, 15, 60, 64, 1024, 1514}
	r := rng.New(11)
	for _, live := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		// Mask patterns over the first groups: none, then a slot at the
		// start, in the middle and at the end of a group of scanWidth live
		// packets (masked slots are extra, so live stays as named).
		for _, masked := range [][]int{nil, {0}, {2}, {scanWidth - 1}, {0, 5, 6, 11}} {
			var b batch.Batch
			for b.Live() < live+len(masked) {
				n := lens[r.Intn(len(lens))]
				b.Add(frame(n, randomPayload(r, n)))
			}
			for _, i := range masked {
				if i < b.Count() {
					b.Mask(i)
				}
			}
			checkBatch(t, ac, d, std, &b)
		}
	}
}

// TestScanBatchBoundaries places matches where the kernel changes gear: on
// the bytes straddling the end of the lockstep section (the shortest packet
// of the group), on the last byte of a payload, and only in the tail.
func TestScanBatchBoundaries(t *testing.T) {
	ac, d, std := diffAutomata(t)
	const short = 46 // payload bytes of a 60 B frame: the first group's lockstep length
	quiet := func(n int) []byte {
		data := make([]byte, n)
		for i := range data {
			data[i] = 'd' // outside every pattern and rule
		}
		return data
	}
	put := func(data []byte, at int, s string) []byte {
		copy(data[at:], s)
		return data
	}
	cases := []struct {
		frameLen int
		payload  []byte
		ac, re   int
	}{
		// First group: lockstep over 46 bytes, then three tails.
		{60, put(quiet(short), short-3, "abc"), 0, 0},                  // match on the last byte of the shortest
		{1024, put(quiet(1010), short-2, "abbc"), 4, 0},                // straddles lockstep -> tail
		{1514, put(quiet(1500), 1500-4, "bbbb"), 4, 5},                 // tail only, on the last byte
		{64, put(put(quiet(50), short-1, "bc"), short-4, "cab"), 2, 0}, // "cabbc" across the boundary
		// Second group: equal lengths, no tail.
		{1024, quiet(1010), -1, -1},
		{1024, put(quiet(1010), 1010-3, "bca"), 1, -1},                // last byte of the lockstep section
		{1024, put(quiet(1010), 0, "aa"), 3, -1},                      // first bytes
		{1024, put(put(quiet(1010), 500, "ca"), 200, "abcabc"), 0, 0}, // lowest ID, not first found
		// Trailing partial group: single stream.
		{15, []byte("a"), -1, -1},
		{64, put(quiet(50), 47, "aab"), 3, -1},
	}
	var b batch.Batch
	for _, c := range cases {
		b.Add(frame(c.frameLen, c.payload))
	}
	checkBatch(t, ac, d, std, &b)
	var acIDs, reIDs [batch.MaxBatchSize]int32
	ac.matchBatch(&b, &acIDs)
	d.matchBatch(&b, &reIDs)
	for i, c := range cases {
		if int(acIDs[i]) != c.ac || int(reIDs[i]) != c.re {
			t.Errorf("slot %d: AC %d, DFA %d; want %d, %d", i, acIDs[i], reIDs[i], c.ac, c.re)
		}
	}
}

var fuzzAutomata struct {
	once sync.Once
	ac   *AC
	d    *DFA
}

// FuzzScanBatchAgrees: for any payload set and mask, the batch kernel's
// result for a slot equals the single-stream result for that payload. raw is
// cut into frames at its 0xFF bytes; bit i of mask masks slot i.
func FuzzScanBatchAgrees(f *testing.F) {
	f.Add([]byte("abcabc\xffbca\xff\xffaaaaaaaaaaaaaaaaaaaaaaab\xffcab\xffbb"), uint16(0))
	f.Add([]byte("abbc\xffcabb\xffacbc\xffabcba\xffccabcc\xffbbbb\xffx"), uint16(0b100101))
	f.Add([]byte{}, uint16(1))
	f.Fuzz(func(t *testing.T, raw []byte, mask uint16) {
		fuzzAutomata.once.Do(func() { fuzzAutomata.ac, fuzzAutomata.d, _ = diffAutomata(t) })
		var b batch.Batch
		for start, i := 0, 0; i <= len(raw) && b.Count() < 16; i++ {
			if i < len(raw) && raw[i] != 0xFF {
				continue
			}
			payload := raw[start:i]
			if len(payload) > packet.MaxFrameLen-packet.EthHdrLen {
				payload = payload[:packet.MaxFrameLen-packet.EthHdrLen]
			}
			b.Add(frame(packet.EthHdrLen+len(payload), payload))
			start = i + 1
		}
		for i := 0; i < b.Count(); i++ {
			if mask&(1<<i) != 0 {
				b.Mask(i)
			}
		}
		for _, tab := range []*scanTable{&fuzzAutomata.ac.scanTable, &fuzzAutomata.d.scanTable} {
			var ids [batch.MaxBatchSize]int32
			tab.matchBatch(&b, &ids)
			for i := 0; i < b.Count(); i++ {
				if b.IsMasked(i) {
					continue
				}
				if want := tab.Match(payloadOf(b.Packet(i))); int(ids[i]) != want {
					t.Errorf("slot %d of %d: batch %d, single stream %d", i, b.Count(), ids[i], want)
				}
			}
		}
	})
}
