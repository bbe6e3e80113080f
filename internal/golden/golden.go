// Package golden is the one update path of the repository's golden files.
// A test compares what it produced with a file under its testdata
// directory; run with -update, it rewrites the file instead. The files are
// re-recorded together by scripts/regolden.sh, which prints what moved.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current code")

// Updating reports whether the test binary runs with -update.
func Updating() bool { return *update }

// Check compares got with the golden file at path, or, under -update,
// writes got there.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with go test -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s moved:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
