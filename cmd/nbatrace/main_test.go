package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nba/internal/trace"
)

// TestRecordPinned runs the six flag sets scripts/check.sh records and pins
// each recording's digest and event total: a change to how record assembles
// its run (tenants, plans, seeds) moves a digest here before it reaches the
// gate's record-twice diff, which only proves self-consistency.
func TestRecordPinned(t *testing.T) {
	cases := []struct {
		flags  string
		total  uint64
		digest string
	}{
		{"-app ipv4 -lb fixed=0.8", 2730, "sha256:7f07cb3a68f4558ae29a7eb383657eb3de612591f7a77929280473e1cb7a87e8"},
		{"-app ipsec -lb fixed=0.8 -faults", 2826, "sha256:468cd4685237dec1a9a001da1b66b190447290bd98454bf2e4f03c824570c2a1"},
		{"-app ipsec -lb fixed=0.8 -gbps 3 -overload", 4538, "sha256:bbadca5bed276c08417cbe416bba145f97fa9192fa8c03cd5252f094ff9b79d3"},
		{"-app ipsec -lb fixed=0.8 -corrupt", 2828, "sha256:bf000fe22ebeceed156e20f5b80f68dc39e6a70c7ba4eefe9a182e945f176dc0"},
		{"-tenants ipv4,ipsec", 3065, "sha256:550c05050afcd616834073af058a599ea1f0f34c904b834c244aa63da09d24e5"},
		{"-tenants ipv4,ids -reconfig", 3565, "sha256:90363f95b827e4ed87cdf4ce9b75a7b62bb42a3c201d61de6e0450cedfcbb5df"},
	}
	for _, c := range cases {
		t.Run(c.flags, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "run.jsonl")
			if err := record(append(strings.Fields(c.flags), "-o", out)); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tf, err := trace.ReadJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			if tf.Meta.Total != c.total || tf.Meta.Digest != c.digest {
				t.Errorf("recorded %d events, digest %s; want %d, %s",
					tf.Meta.Total, tf.Meta.Digest, c.total, c.digest)
			}
		})
	}
}

func TestRecordRejectsContradictoryFlags(t *testing.T) {
	for _, flags := range []string{"-reconfig", "-corrupt -faults"} {
		out := filepath.Join(t.TempDir(), "run.jsonl")
		if err := record(append(strings.Fields(flags), "-o", out)); err == nil {
			t.Errorf("record %s: no error", flags)
		}
	}
}
