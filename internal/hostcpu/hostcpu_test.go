package hostcpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestAgreesWithProcCPUInfo checks the probe against the kernel's own view
// of the CPU where there is one: each flag must be set exactly when Linux
// lists the extensions it stands for.
func TestAgreesWithProcCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AESNI || SHANI || AVX512 {
			t.Fatalf("off amd64 every flag is false: %v %v %v", AESNI, SHANI, AVX512)
		}
		return
	}
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	var flags map[string]bool
	for _, line := range strings.Split(string(raw), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = map[string]bool{}
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	all := func(names ...string) bool {
		for _, n := range names {
			if !flags[n] {
				return false
			}
		}
		return true
	}
	for _, c := range []struct {
		name string
		got  bool
		want bool
	}{
		{"AESNI", AESNI, all("aes", "ssse3", "sse4_1")},
		{"SHANI", SHANI, all("sha_ni", "ssse3", "sse4_1")},
		{"AVX512", AVX512, all("avx512f", "avx512dq", "avx512bw", "avx512vl")},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, /proc/cpuinfo says %v", c.name, c.got, c.want)
		}
	}
}
