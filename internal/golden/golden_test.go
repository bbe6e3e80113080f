package golden

import "testing"

func TestFirstDiff(t *testing.T) {
	for _, c := range []struct {
		name, got, want, diff string
	}{
		{"equal", "a\nb\nc\n", "a\nb\nc\n", ""},
		{"empty", "", "", ""},
		{"middle line", "a\nB\nc\n", "a\nb\nc\n",
			"line 2 differs\n got: \"B\\n\"\nwant: \"b\\n\"\n(got 3 lines, want 3)"},
		{"got longer", "a\nb\nc\nd\n", "a\nb\nc\n",
			"line 4 differs\n got: \"d\\n\"\nwant: (end of text)\n(got 4 lines, want 3)"},
		{"got shorter", "a\n", "a\nb\nc\n",
			"line 2 differs\n got: (end of text)\nwant: \"b\\n\"\n(got 1 lines, want 3)"},
		{"got empty", "", "a\n",
			"line 1 differs\n got: (end of text)\nwant: \"a\\n\"\n(got 0 lines, want 1)"},
		{"missing final newline", "a\nb", "a\nb\n",
			"line 2 differs\n got: \"b\"\nwant: \"b\\n\"\n(got 2 lines, want 2)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if d := firstDiff(c.got, c.want); d != c.diff {
				t.Errorf("firstDiff(%q, %q) =\n%s\nwant\n%s", c.got, c.want, d, c.diff)
			}
		})
	}
}
