package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testLoader builds a loader rooted at the real module with testdata/src as
// an extra import root, so fixtures can both mimic framework package paths
// and import the real framework packages.
func testLoader(t *testing.T) *loader {
	t.Helper()
	moduleRoot, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	modulePath, err := readModulePath(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return newLoader(moduleRoot, modulePath, filepath.Join(cwd, "testdata", "src"))
}

// loadTargets loads the given import paths as lint targets.
func loadTargets(t *testing.T, l *loader, pkgs ...string) []*lintPackage {
	t.Helper()
	var targets []*lintPackage
	for _, pkg := range pkgs {
		lp, err := l.load(pkg)
		if err != nil {
			t.Fatalf("loading %s: %v", pkg, err)
		}
		targets = append(targets, lp)
	}
	return targets
}

func findingKey(f finding) string {
	return fmt.Sprintf("%s:%d %s", filepath.Base(f.pos.Filename), f.pos.Line, f.rule)
}

// wantFindings scans fixture directories for "// want <rule>..." markers and
// returns the expected multiset of "file:line rule" keys.
func wantFindings(t *testing.T, dirs ...string) map[string]int {
	t.Helper()
	want := map[string]int{}
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				_, marker, ok := strings.Cut(line, "// want ")
				if !ok {
					continue
				}
				for _, rule := range strings.Fields(marker) {
					want[fmt.Sprintf("%s:%d %s", e.Name(), i+1, rule)]++
				}
			}
		}
	}
	return want
}

// TestAnalyzers runs every rule over each fixture case (per-file rules on
// the target packages, interprocedural rules over the whole module filtered
// to the targets) and compares the findings against the fixtures' want
// markers. Cases with multiple packages exercise cross-package flows: the
// detflow case launders wall-clock values through nba/internal/detutil,
// where the per-file nondeterminism rule does not apply, and the finding
// anchors at the sink in the simulation-path package.
func TestAnalyzers(t *testing.T) {
	l := testLoader(t)
	tests := []struct {
		name string
		pkgs []string
	}{
		{"nondeterminism", []string{"nba/internal/core/nondetfix"}},
		{"nondeterminism-scope", []string{"nba/internal/wallclockok"}},
		{"maprange", []string{"nba/internal/stats/maprangefix"}},
		{"aliasflow-local", []string{"nba/internal/apps/aliasfix"}},
		{"mempoolerr", []string{"nba/internal/poolfix"}},
		{"mempoolerr-cmd-exempt", []string{"nba/cmd/poolcmdfix"}},
		{"printban", []string{"nba/internal/printfix"}},
		{"detflow-cross-package", []string{"nba/internal/detutil", "nba/internal/core/detflowfix"}},
		{"aliasflow", []string{"nba/internal/apps/aliasflowfix"}},
		{"hotalloc", []string{"nba/internal/hotfix"}},
		{"sharedstate", []string{"nba/internal/core/sharedfix"}},
		{"sharedstate-par", []string{"nba/internal/core/parfix"}},
		{"sharedstate-executor", []string{"nba/internal/core/execfix", "nba/internal/core/execfix/reader"}},
		{"sharedstate-besteffort", []string{"nba/internal/core/sparefix", "nba/internal/core/sparefix/reader"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			targets := loadTargets(t, l, tt.pkgs...)
			res := lintPackages(l, targets, false)
			got := map[string]int{}
			for _, f := range res.findings {
				got[findingKey(f)]++
			}
			var dirs []string
			for _, lp := range targets {
				dirs = append(dirs, lp.Dir)
			}
			want := wantFindings(t, dirs...)
			for k, n := range want {
				if got[k] != n {
					t.Errorf("want %d finding(s) %q, got %d", n, k, got[k])
				}
			}
			for k, n := range got {
				if want[k] == 0 {
					t.Errorf("unexpected finding %q (x%d)", k, n)
				}
			}
		})
	}
}

// TestFixtureAllowsAreUsed checks that the fixtures' //nbalint:allow lines
// suppress real findings: the -audit-allows accounting must count them used,
// not stale (a stale directive would mean the negative fixture case is
// vacuous).
func TestFixtureAllowsAreUsed(t *testing.T) {
	l := testLoader(t)
	targets := loadTargets(t, l,
		"nba/internal/detutil", "nba/internal/core/detflowfix",
		"nba/internal/apps/aliasfix", "nba/internal/apps/aliasflowfix", "nba/internal/hotfix",
		"nba/internal/core/sharedfix", "nba/internal/core/parfix")
	res := lintPackages(l, targets, true)
	for _, rule := range []string{"detflow", "aliasflow", "hotalloc", "sharedstate"} {
		c := res.allows[rule]
		if c == nil || c.Used == 0 {
			t.Errorf("rule %s: no used //nbalint:allow directive in its fixture", rule)
			continue
		}
		if c.Stale != 0 {
			t.Errorf("rule %s: %d stale directive(s) in its fixture", rule, c.Stale)
		}
	}
}

// TestRealTreeClean is the self-lint regression gate: the repository itself
// must lint clean under every rule, including the stale-directive audit. A
// failure here means a change introduced a violation (fix it) or an
// unjustified //nbalint:allow (remove it).
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	moduleRoot, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(moduleRoot + "/...")
	if err != nil {
		t.Fatal(err)
	}
	l := testLoader(t)
	var pkgs []string
	for _, dir := range dirs {
		path, err := importPathFor(dir, l.moduleRoot, l.modulePath)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, path)
	}
	targets := loadTargets(t, l, pkgs...)
	res := lintPackages(l, targets, true)
	for _, f := range res.findings {
		t.Errorf("real tree not lint-clean: %s:%d: [%s] %s", f.pos.Filename, f.pos.Line, f.rule, f.msg)
	}
}

// TestRealTreeApplicability pins the package-path scoping rules the
// analyzers key off.
func TestRealTreeApplicability(t *testing.T) {
	tests := []struct {
		path string
		sim  bool
		intl bool
		cmd  bool
	}{
		{"nba/internal/simtime", true, true, false},
		{"nba/internal/core", true, true, false},
		{"nba/internal/apps/ipsec", true, true, false},
		{"nba/internal/gpu", true, true, false},
		{"nba/internal/lb", true, true, false},
		{"nba/internal/netio", true, true, false},
		{"nba/internal/fault", true, true, false},
		{"nba/internal/invariant", true, true, false},
		{"nba/internal/chaos", true, true, false},
		{"nba/internal/par", true, true, false},
		{"nba/internal/stats", false, true, false},
		{"nba/internal/corelike", false, true, false},
		{"nba/cmd/nba", false, false, true},
		{"nba", false, false, false},
		{"nba/examples/router", false, false, false},
	}
	for _, tt := range tests {
		if got := isSimPackage(tt.path); got != tt.sim {
			t.Errorf("isSimPackage(%q) = %v, want %v", tt.path, got, tt.sim)
		}
		if got := isInternalPackage(tt.path); got != tt.intl {
			t.Errorf("isInternalPackage(%q) = %v, want %v", tt.path, got, tt.intl)
		}
		if got := isCmdPackage(tt.path); got != tt.cmd {
			t.Errorf("isCmdPackage(%q) = %v, want %v", tt.path, got, tt.cmd)
		}
	}
}

// TestPackageDirs checks that default walks skip testdata while explicit
// walks into testdata do not.
func TestPackageDirs(t *testing.T) {
	moduleRoot, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(moduleRoot + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no package dirs found under module root")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("default walk must skip testdata, found %s", d)
		}
	}
	fixDirs, err := packageDirs(filepath.Join(moduleRoot, "cmd", "nbalint", "testdata") + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(fixDirs) == 0 {
		t.Error("explicit testdata walk found no fixture packages")
	}
}

// TestFixtureTreeFails mirrors the CLI acceptance requirement: linting the
// fixture tree must produce findings (non-zero exit in the CLI).
func TestFixtureTreeFails(t *testing.T) {
	l := testLoader(t)
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(filepath.Join(cwd, "testdata") + "/...")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, dir := range dirs {
		path, err := importPathFor(dir, l.moduleRoot, l.modulePath)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, path)
	}
	targets := loadTargets(t, l, pkgs...)
	if res := lintPackages(l, targets, false); len(res.findings) == 0 {
		t.Fatal("fixture tree produced no findings; the CLI would exit 0 on it")
	}
}
