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

// batchKernel is one form of matchBatch.
type batchKernel func(t *scanTable, b *batch.Batch, ids *[batch.MaxBatchSize]int32)

// namedKernel is a batch kernel under test.
type namedKernel struct {
	name   string
	kernel batchKernel
}

// testKernels are the batch kernels held to the same answers: the portable
// one, and the host's, which is matchGather on an amd64 CPU with AVX-512
// (and the portable one again elsewhere).
func testKernels() []namedKernel {
	host := matchGo
	if hostGather(0) {
		host = matchGather
	}
	return []namedKernel{{"go", matchGo}, {"host", host}}
}

// checkBatch runs kernel over b on both tables and compares every live slot
// with the references; masked slots must be left untouched.
func checkBatch(t *testing.T, kernel batchKernel, ac *AC, d *DFA, std []*regexp.Regexp, b *batch.Batch) {
	t.Helper()
	const untouched = -7
	var acIDs, reIDs [batch.MaxBatchSize]int32
	for i := range acIDs {
		acIDs[i], reIDs[i] = untouched, untouched
	}
	kernel(&ac.scanTable, b, &acIDs)
	kernel(&d.scanTable, b, &reIDs)
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
	// 10 and 14 B frames have no scan region and 15-17 B have 1-3 bytes,
	// less than one four-byte gather step: a 16-lane group holding one has
	// no lockstep section. Odd live counts draw only longer frames, so
	// their groups do.
	lens := [][]int{{10, 14, 15, 16, 17, 60, 64, 1024, 1514}, {60, 64, 61, 300, 1024, 1514}}
	for _, k := range testKernels() {
		r := rng.New(11)
		for live := 0; live <= 80; live++ {
			lens := lens[live%2]
			// Mask patterns: none, then a slot at the start, in the middle
			// and at the end of a group of scanWidth live packets, some in
			// and between groups of 16 (masked slots are extra, so live
			// stays as named).
			for _, masked := range [][]int{nil, {0}, {2}, {scanWidth - 1}, {0, 5, 6, 11}, {15, 16, 33, 70}} {
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
				checkBatch(t, k.kernel, ac, d, std, &b)
			}
		}
	}
}

// quiet is a payload of n bytes outside every pattern and rule.
func quiet(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = 'd'
	}
	return data
}

// put writes s into data at offset at.
func put(data []byte, at int, s string) []byte {
	copy(data[at:], s)
	return data
}

// boundaryCase is one packet of a boundary batch and the IDs it must get.
type boundaryCase struct {
	frameLen int
	payload  []byte
	ac, re   int
}

// checkCases runs kernel over a batch of cases in slot order, against the
// references and against each case's own IDs.
func checkCases(t *testing.T, kernel batchKernel, cases []boundaryCase) {
	t.Helper()
	ac, d, std := diffAutomata(t)
	var b batch.Batch
	for _, c := range cases {
		b.Add(frame(c.frameLen, c.payload))
	}
	checkBatch(t, kernel, ac, d, std, &b)
	var acIDs, reIDs [batch.MaxBatchSize]int32
	kernel(&ac.scanTable, &b, &acIDs)
	kernel(&d.scanTable, &b, &reIDs)
	for i, c := range cases {
		if int(acIDs[i]) != c.ac || int(reIDs[i]) != c.re {
			t.Errorf("slot %d: AC %d, DFA %d; want %d, %d", i, acIDs[i], reIDs[i], c.ac, c.re)
		}
	}
}

// gatherWidth is the lane count of matchGather's groups.
const gatherWidth = 16

// TestScanBatchBoundaries places matches where the kernels change gear: on
// the bytes straddling the end of a lockstep section (the shortest packet
// of the group, rounded down to four bytes in a 16-lane group), on the
// last byte of a payload, and only in the tail.
func TestScanBatchBoundaries(t *testing.T) {
	const short = 46 // payload bytes of a 60 B frame: the first group's lockstep length
	narrow := []boundaryCase{
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
	// Sixteen-lane groups. The first has mixed lengths: its shortest payload
	// is 46 B, so it runs in lockstep over 44 bytes (the last step reads
	// bytes 40-43) and every lane finishes on the single stream.
	const lock = short &^ 3
	wide := []boundaryCase{
		{60, put(quiet(short), short-2, "aa"), 3, -1},                // the shortest lane: match only in its tail
		{1024, put(quiet(1010), lock-3, "abc"), 0, 0},                // match on the last lockstep byte
		{1024, put(quiet(1010), lock-2, "bca"), 1, -1},               // straddles lockstep -> tail
		{1514, put(quiet(1500), lock, "bbbb"), 4, 5},                 // the first tail bytes
		{1514, put(quiet(1500), 1500-3, "cab"), 2, 1},                // tail only, on the last byte
		{64, put(quiet(50), 0, "ab"), -1, -1},                        // no match: "ab" alone is no pattern
		{1024, put(put(quiet(1010), 700, "ca"), 20, "abcabc"), 0, 0}, // lowest ID, not first found
		{1024, put(quiet(1010), lock-4, "cc"), -1, -1},               // a prefix of rule 4 only
		{300, put(quiet(286), lock-3, "ccbbcc"), 4, 4},               // rule 4 across the lockstep boundary
		{1024, put(quiet(1010), 1, "aca"), 6, -1},                    // rule 3 needs five bytes
		{1024, put(quiet(1010), lock-5, "aacaa"), 3, 3},              // rule 3 ending on the last lockstep byte
		{1024, quiet(1010), -1, -1},                                  // nothing
		{1024, put(quiet(1010), 3, "ab"), -1, -1},                    // straddles the first two steps, no match
		{1514, put(quiet(1500), 800, "bb"), 4, -1},                   // deep in the tail
		{61, put(quiet(47), 44, "bca"), 1, -1},                       // the three bytes after lockstep
		{1024, put(put(quiet(1010), lock-1, "a"), lock, "a"), 3, -1}, // "aa" across the lockstep boundary
		// Second group: a 3 B payload leaves no lockstep at all.
		{17, []byte("bca"), 1, -1},
		{1024, put(quiet(1010), 1010-4, "bbbb"), 4, 5},
	}
	for len(wide) < 2*gatherWidth {
		wide = append(wide, boundaryCase{1024, put(quiet(1010), 500, "bca"), 1, -1})
	}
	// Third group: the lone match of lane i ends on byte 21+i, so on every
	// byte position of a four-byte step, all inside the lockstep section.
	for i := 0; i < gatherWidth; i++ {
		wide = append(wide, boundaryCase{1024, put(quiet(1010), 20+i, "ca"), 6, -1})
	}
	for _, k := range testKernels() {
		t.Run(k.name, func(t *testing.T) {
			checkCases(t, k.kernel, narrow)
			checkCases(t, k.kernel, wide)
		})
	}
}

// TestScanBatchDoesNotAllocate: the lanes of every kernel live on its
// frame.
func TestScanBatchDoesNotAllocate(t *testing.T) {
	ac, _, _ := diffAutomata(t)
	r := rng.New(5)
	var b batch.Batch
	for b.Count() < 70 {
		b.Add(frame(1024, randomPayload(r, 1024)))
	}
	for _, k := range testKernels() {
		var ids [batch.MaxBatchSize]int32
		if allocs := testing.AllocsPerRun(20, func() { k.kernel(&ac.scanTable, &b, &ids) }); allocs != 0 {
			t.Errorf("%s: %.1f allocations per batch, want 0", k.name, allocs)
		}
	}
}

var fuzzAutomata struct {
	once sync.Once
	ac   *AC
	d    *DFA
}

// FuzzScanBatchAgrees: for any payload set and mask, every batch kernel's
// result for a slot equals the single-stream result for that payload. raw
// is cut into payloads at its 0xFF bytes, which fill count%81 frames in
// turn (so a short input still makes full 16-lane groups); bit i%64 of
// mask masks slot i.
func FuzzScanBatchAgrees(f *testing.F) {
	f.Add([]byte("abcabc\xffbca\xff\xffaaaaaaaaaaaaaaaaaaaaaaab\xffcab\xffbb"), uint8(7), uint64(0))
	f.Add([]byte("abbc\xffcabb\xffacbc\xffabcba\xffccabcc\xffbbbb\xffx"), uint8(7), uint64(0b100101))
	f.Add([]byte("dddddddddddddabc\xffddddbca\xffdddddddddddddddddddddddddd\xffab"), uint8(64), uint64(1<<40))
	f.Add([]byte("ab\xffcab\xff\xffbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"), uint8(80), uint64(0))
	f.Add([]byte{}, uint8(1), uint64(1))
	f.Fuzz(func(t *testing.T, raw []byte, count uint8, mask uint64) {
		fuzzAutomata.once.Do(func() { fuzzAutomata.ac, fuzzAutomata.d, _ = diffAutomata(t) })
		var payloads [][]byte
		for start, i := 0, 0; i <= len(raw); i++ {
			if i < len(raw) && raw[i] != 0xFF {
				continue
			}
			payload := raw[start:i]
			if len(payload) > packet.MaxFrameLen-packet.EthHdrLen {
				payload = payload[:packet.MaxFrameLen-packet.EthHdrLen]
			}
			payloads = append(payloads, payload)
			start = i + 1
		}
		var b batch.Batch
		for i := 0; i < int(count)%81; i++ {
			payload := payloads[i%len(payloads)]
			b.Add(frame(packet.EthHdrLen+len(payload), payload))
			if mask&(1<<(i%64)) != 0 {
				b.Mask(i)
			}
		}
		for _, k := range testKernels() {
			for _, tab := range []*scanTable{&fuzzAutomata.ac.scanTable, &fuzzAutomata.d.scanTable} {
				var ids [batch.MaxBatchSize]int32
				k.kernel(tab, &b, &ids)
				for i := 0; i < b.Count(); i++ {
					if b.IsMasked(i) {
						continue
					}
					if want := tab.Match(payloadOf(b.Packet(i))); int(ids[i]) != want {
						t.Errorf("%s: slot %d of %d: batch %d, single stream %d", k.name, i, b.Count(), ids[i], want)
					}
				}
			}
		}
	})
}
