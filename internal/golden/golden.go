// Package golden is the one update path of the repository's golden files.
// A test compares what it produced with a file under its testdata
// directory; run with -update, it rewrites the file instead. The files are
// re-recorded together by scripts/regolden.sh, which prints what moved.
package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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
	if d := firstDiff(got, string(want)); d != "" {
		t.Errorf("%s moved: %s", path, d)
	}
}

// firstDiff describes where got first departs from want: the line number,
// both versions of that line (quoted, so a missing final newline shows)
// and both line counts. It returns "" when the texts are equal.
func firstDiff(got, want string) string {
	if got == want {
		return ""
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(want, "\n")
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	return fmt.Sprintf("line %d differs\n got: %s\nwant: %s\n(got %d lines, want %d)",
		i+1, lineAt(g, i), lineAt(w, i), lineCount(got), lineCount(want))
}

// lineAt quotes line i of a text split after each newline; the empty last
// piece, and any index past it, is the end of the text.
func lineAt(lines []string, i int) string {
	if i >= len(lines) || lines[i] == "" {
		return "(end of text)"
	}
	return strconv.Quote(lines[i])
}

// lineCount counts s's lines, a last line without a newline included.
func lineCount(s string) int {
	n := strings.Count(s, "\n")
	if s != "" && !strings.HasSuffix(s, "\n") {
		n++
	}
	return n
}
