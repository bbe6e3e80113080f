// Command nbalint is NBA's framework-specific static analyzer suite.
//
// The simulation's headline guarantee is determinism in virtual time: every
// figure must be exactly reproducible from a config and a seed. Nothing in
// the language enforces that, so nbalint does. It walks the module with
// go/parser + go/types (stdlib only; go/packages is unavailable offline)
// and applies two kinds of analyzers.
//
// Per-file rules, applied package by package:
//
//	nondeterminism  wall-clock time, global math/rand, go statements and
//	                select in simulation packages
//	maprange        unordered iteration over maps in internal packages
//	mempoolerr      discarded mempool.Pool.Get errors; MustGet outside cmd/
//	printban        fmt.Print* and builtin print/println in internal/
//
// Interprocedural rules, computed over the whole module via a static call
// graph and per-function dataflow summaries (see module.go / flow.go):
//
//	detflow      nondeterminism sources laundered through call chains,
//	             fields or globals into trace digest / hash sinks, with the
//	             full source→sink path in the finding
//	aliasflow    pooled *packet.Packet (Batch.Packet / ForEachLive) escaping
//	             into fields, globals or channels, locally or through
//	             helper functions (use-after-Reset)
//	hotalloc     allocation constructs in //nba:hotpath-annotated functions
//	sharedstate  state written from simtime.Engine callback context and
//	             read outside it without synchronization
//
// Findings print as "file:line: [rule] message" (or as JSON with
// -format json) and make the exit status non-zero. A finding can be
// suppressed with a justified directive on the same or the preceding line:
//
//	//nbalint:allow <rule> <reason>
//
// Malformed directives (unknown rule, missing reason) are always findings;
// with -audit-allows, directives that suppress nothing are flagged too and
// per-rule allow counts are reported. -timing prints per-rule wall clock to
// stderr; the type-checked module is shared across all rules.
//
// See DESIGN.md, sections "Determinism contract & static enforcement" and
// "Static analysis: interprocedural rules & annotations".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// pass is the per-package context handed to each per-file analyzer.
type pass struct {
	fset   *token.FileSet
	pkg    *lintPackage
	report func(pos token.Pos, rule, msg string)
}

// analyzer is one per-file nbalint rule.
type analyzer struct {
	name    string
	doc     string
	applies func(pkgPath string) bool
	run     func(*pass)
}

// modAnalyzer is one whole-module interprocedural rule. It sees every loaded
// package at once (targets and their module-local imports); findings outside
// the target packages are filtered by the driver.
type modAnalyzer struct {
	name string
	doc  string
	run  func(*module) []finding
}

// finding is one reported problem. path, when set, is the source→sink trail
// of a dataflow finding.
type finding struct {
	pos  token.Position
	rule string
	msg  string
	path []flowStep
}

// simPackagePrefixes are the packages that execute inside virtual time and
// therefore must be bit-for-bit deterministic (the nondeterminism rule).
var simPackagePrefixes = []string{
	"nba/internal/simtime",
	"nba/internal/core",
	"nba/internal/apps",
	"nba/internal/gpu",
	"nba/internal/lb",
	"nba/internal/netio",
	"nba/internal/trace",
	"nba/internal/fault",
	"nba/internal/invariant",
	"nba/internal/chaos",
	"nba/internal/overload",
	// reconfig plans script the control plane inside virtual time; a
	// nondeterministic plan would fork the epoch timeline between replays.
	"nba/internal/reconfig",
	// sched's WRR rounds order every worker's RX polling, so any
	// nondeterminism there skews every tenant's digest.
	"nba/internal/sched",
	// par is the audited bridge between virtual time and OS threads: its own
	// goroutines carry an allow directive, and its jobs are sharedstate roots
	// (see parDispatchRoots) so undisciplined writes from pool jobs are
	// findings.
	"nba/internal/par",
	// integrity's sentinel comparator runs on every sampled completion; its
	// sampling stream is part of the run identity, so nondeterminism or
	// hot-path allocation there corrupts replays.
	"nba/internal/integrity",
}

func hasPathPrefix(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

func isSimPackage(path string) bool {
	for _, p := range simPackagePrefixes {
		if hasPathPrefix(path, p) {
			return true
		}
	}
	return false
}

func isInternalPackage(path string) bool { return hasPathPrefix(path, "nba/internal") }

func isCmdPackage(path string) bool { return hasPathPrefix(path, "nba/cmd") }

// analyzers is the per-file rule registry, in reporting order.
var analyzers = []*analyzer{
	nondeterminismAnalyzer,
	maprangeAnalyzer,
	mempoolerrAnalyzer,
	printbanAnalyzer,
}

// modAnalyzers is the interprocedural rule registry.
var modAnalyzers = []*modAnalyzer{
	detflowAnalyzer,
	aliasflowAnalyzer,
	hotallocAnalyzer,
	sharedstateAnalyzer,
}

func knownRuleNames() map[string]bool {
	m := make(map[string]bool, len(analyzers)+len(modAnalyzers))
	for _, a := range analyzers {
		m[a.name] = true
	}
	for _, a := range modAnalyzers {
		m[a.name] = true
	}
	return m
}

// ruleOrder is every rule name in registry order (for timing output).
func ruleOrder() []string {
	var out []string
	for _, a := range analyzers {
		out = append(out, a.name)
	}
	for _, a := range modAnalyzers {
		out = append(out, a.name)
	}
	return out
}

// renderPath formats a source→sink trail for a text finding.
func renderPath(path []flowStep) string {
	parts := make([]string, len(path))
	for i, s := range path {
		parts[i] = s.String()
	}
	return strings.Join(parts, " -> ")
}

// allowCount is the -audit-allows accounting for one rule.
type allowCount struct {
	Used  int `json:"used"`
	Stale int `json:"stale"`
}

// lintResult is everything one lint run produced.
type lintResult struct {
	findings []finding
	allows   map[string]*allowCount
	timings  map[string]time.Duration
}

// lintPackages runs every rule over the target packages. Per-file rules run
// package by package; interprocedural rules run once over the whole loaded
// module (the loader cache holds targets plus their module-local imports) and
// their findings are filtered to files of target packages. Directives are
// applied globally so a dataflow finding anchored in another target package
// still honors that file's //nbalint:allow lines.
func lintPackages(l *loader, targets []*lintPackage, auditAllows bool) *lintResult {
	fset := l.fset
	known := knownRuleNames()

	seen := map[string]bool{}
	var uniq []*lintPackage
	for _, lp := range targets {
		if !seen[lp.Path] {
			seen[lp.Path] = true
			uniq = append(uniq, lp)
		}
	}

	dirs := map[string]*fileDirectives{} // filename → directives
	targetFiles := map[string]bool{}
	var fileNames []string
	var directiveFindings []finding
	for _, lp := range uniq {
		for _, f := range lp.Files {
			name := fset.Position(f.Pos()).Filename
			targetFiles[name] = true
			fileNames = append(fileNames, name)
			dirs[name] = parseDirectives(fset, f, known, func(pos token.Pos, rule, msg string) {
				directiveFindings = append(directiveFindings, finding{pos: fset.Position(pos), rule: rule, msg: msg})
			})
		}
	}
	sort.Strings(fileNames)

	timings := map[string]time.Duration{}
	var raw []finding
	for _, a := range analyzers {
		start := time.Now()
		for _, lp := range uniq {
			if !a.applies(lp.Path) {
				continue
			}
			p := &pass{fset: fset, pkg: lp, report: func(pos token.Pos, rule, msg string) {
				raw = append(raw, finding{pos: fset.Position(pos), rule: rule, msg: msg})
			}}
			a.run(p)
		}
		timings[a.name] += time.Since(start)
	}

	m := newModule(l)
	for _, a := range modAnalyzers {
		start := time.Now()
		for _, f := range a.run(m) {
			if targetFiles[f.pos.Filename] {
				raw = append(raw, f)
			}
		}
		timings[a.name] += time.Since(start)
	}

	out := directiveFindings
	for _, f := range raw {
		if fd := dirs[f.pos.Filename]; fd != nil && fd.allows(f.rule, f.pos.Line) {
			continue
		}
		out = append(out, f)
	}

	allows := map[string]*allowCount{}
	countFor := func(rule string) *allowCount {
		c := allows[rule]
		if c == nil {
			c = &allowCount{}
			allows[rule] = c
		}
		return c
	}
	for _, name := range fileNames {
		fd := dirs[name]
		if fd == nil {
			continue
		}
		stale := fd.unused()
		staleAt := map[token.Pos]bool{}
		for _, d := range stale {
			staleAt[d.pos] = true
			countFor(d.rule).Stale++
			if auditAllows {
				out = append(out, finding{
					pos:  fset.Position(d.pos),
					rule: "directive",
					msg:  fmt.Sprintf("//nbalint:allow %s suppresses nothing; remove the stale escape", d.rule),
				})
			}
		}
		for _, ds := range fd.byLine {
			for _, d := range ds {
				if !staleAt[d.pos] {
					countFor(d.rule).Used++
				}
			}
		}
	}

	return &lintResult{findings: out, allows: allows, timings: timings}
}

// packageDirs expands a CLI pattern into package directories. Patterns are
// directory paths, optionally ending in "/...". Directories named testdata
// are skipped unless the walk starts inside one (so the fixtures themselves
// can be linted to demonstrate a failing run).
func packageDirs(pattern string) ([]string, error) {
	recursive := false
	if rest, ok := strings.CutSuffix(pattern, "/..."); ok {
		recursive = true
		pattern = rest
	}
	if pattern == "" || pattern == "." {
		pattern = "."
	}
	root, err := filepath.Abs(pattern)
	if err != nil {
		return nil, err
	}
	if !recursive {
		if !hasGoFiles(root) {
			return nil, fmt.Errorf("no Go files in %s", pattern)
		}
		return []string{root}, nil
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dirs, nil
}

// importPathFor maps a package directory to its import path. Directories
// under a testdata/src fixture root use the path relative to that root so
// rule applicability (which keys off package paths) works on fixtures too.
func importPathFor(dir, moduleRoot, modulePath string) (string, error) {
	if i := strings.Index(dir, string(filepath.Separator)+filepath.Join("testdata", "src")+string(filepath.Separator)); i >= 0 {
		rel := dir[i+len(string(filepath.Separator)+filepath.Join("testdata", "src"))+1:]
		return filepath.ToSlash(rel), nil
	}
	rel, err := filepath.Rel(moduleRoot, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return modulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("%s is outside module %s", dir, moduleRoot)
	}
	return modulePath + "/" + filepath.ToSlash(rel), nil
}

// fixtureRootFor returns the testdata/src root containing dir, if any.
func fixtureRootFor(dir string) (string, bool) {
	marker := string(filepath.Separator) + filepath.Join("testdata", "src")
	if i := strings.Index(dir, marker+string(filepath.Separator)); i >= 0 {
		return dir[:i+len(marker)], true
	}
	return "", false
}

// jsonStep is one trail hop in -format json output.
type jsonStep struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Desc string `json:"desc"`
}

// jsonFinding is one finding in -format json output.
type jsonFinding struct {
	Rule    string     `json:"rule"`
	File    string     `json:"file"`
	Line    int        `json:"line"`
	Col     int        `json:"col"`
	Message string     `json:"message"`
	Path    []jsonStep `json:"path,omitempty"`
}

// jsonOutput is the -format json document.
type jsonOutput struct {
	Findings []jsonFinding         `json:"findings"`
	Allows   map[string]allowCount `json:"allows"`
	TimingMs map[string]float64    `json:"timing_ms"`
}

func relName(cwd, name string) string {
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return name
}

func main() {
	auditAllows := flag.Bool("audit-allows", false,
		"also flag //nbalint:allow directives that suppress no finding, and report per-rule allow counts")
	format := flag.String("format", "text", "output format: text or json")
	timing := flag.Bool("timing", false, "print per-rule wall clock to stderr")
	budget := flag.Duration("budget", 0,
		"fail if any single rule exceeds this wall-clock budget (0 disables); "+
			"a tripwire for accidental summary-computation blowups, not a benchmark")
	flag.Parse()
	if *format != "text" && *format != "json" {
		fmt.Fprintf(os.Stderr, "nbalint: unknown -format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	moduleRoot, err := findModuleRoot(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbalint:", err)
		os.Exit(2)
	}
	modulePath, err := readModulePath(moduleRoot)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nbalint:", err)
		os.Exit(2)
	}

	var dirs []string
	for _, p := range patterns {
		d, err := packageDirs(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbalint:", err)
			os.Exit(2)
		}
		dirs = append(dirs, d...)
	}

	// Any fixture roots seen in the patterns become import-resolution roots.
	var extraRoots []string
	seenRoot := map[string]bool{}
	for _, d := range dirs {
		if root, ok := fixtureRootFor(d); ok && !seenRoot[root] {
			seenRoot[root] = true
			extraRoots = append(extraRoots, root)
		}
	}

	l := newLoader(moduleRoot, modulePath, extraRoots...)
	var targets []*lintPackage
	loadFailed := false
	for _, dir := range dirs {
		path, err := importPathFor(dir, moduleRoot, modulePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbalint:", err)
			loadFailed = true
			continue
		}
		lp, err := l.load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nbalint:", err)
			loadFailed = true
			continue
		}
		targets = append(targets, lp)
	}

	res := lintPackages(l, targets, *auditAllows)
	all := res.findings
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		if a.rule != b.rule {
			return a.rule < b.rule
		}
		return a.msg < b.msg
	})

	cwd, _ := os.Getwd()
	if *timing {
		for _, rule := range ruleOrder() {
			fmt.Fprintf(os.Stderr, "nbalint: timing %-15s %7.1fms\n",
				rule, float64(res.timings[rule].Microseconds())/1000)
		}
	}
	overBudget := false
	if *budget > 0 {
		for _, rule := range ruleOrder() {
			if d := res.timings[rule]; d > *budget {
				overBudget = true
				fmt.Fprintf(os.Stderr, "nbalint: rule %s took %v, over the %v budget\n",
					rule, d.Round(time.Millisecond), *budget)
			}
		}
	}
	switch *format {
	case "json":
		doc := jsonOutput{
			Findings: []jsonFinding{},
			Allows:   map[string]allowCount{},
			TimingMs: map[string]float64{},
		}
		for _, f := range all {
			jf := jsonFinding{
				Rule:    f.rule,
				File:    relName(cwd, f.pos.Filename),
				Line:    f.pos.Line,
				Col:     f.pos.Column,
				Message: f.msg,
			}
			for _, s := range f.path {
				jf.Path = append(jf.Path, jsonStep{File: relName(cwd, s.pos.Filename), Line: s.pos.Line, Desc: s.desc})
			}
			doc.Findings = append(doc.Findings, jf)
		}
		for rule, c := range res.allows {
			doc.Allows[rule] = *c
		}
		for rule, d := range res.timings {
			doc.TimingMs[rule] = float64(d.Microseconds()) / 1000
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "nbalint:", err)
			os.Exit(2)
		}
	default:
		for _, f := range all {
			fmt.Printf("%s:%d: [%s] %s\n", relName(cwd, f.pos.Filename), f.pos.Line, f.rule, f.msg)
		}
		if *auditAllows {
			rules := make([]string, 0, len(res.allows))
			for r := range res.allows {
				rules = append(rules, r)
			}
			sort.Strings(rules)
			for _, r := range rules {
				c := res.allows[r]
				fmt.Fprintf(os.Stderr, "nbalint: allows %-15s used=%d stale=%d\n", r, c.Used, c.Stale)
			}
		}
	}
	switch {
	case loadFailed:
		os.Exit(2)
	case len(all) > 0, overBudget:
		os.Exit(1)
	}
}

// --- shared type helpers used by several analyzers ---

// namedOrigin returns the origin named type behind t, unwrapping pointers,
// aliases and generic instantiations.
func namedOrigin(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	t = types.Unalias(t)
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return n.Origin()
}

// isMethodOn reports whether sel is a selection of the named method on the
// named type defined in pkgPath.
func isMethodOn(sel *types.Selection, pkgPath, typeName, method string) bool {
	if sel == nil || sel.Kind() != types.MethodVal {
		return false
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok || fn.Name() != method {
		return false
	}
	n := namedOrigin(sel.Recv())
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// pkgNameOf resolves the package an identifier refers to when it names an
// import (e.g. the "time" in time.Now), or "" otherwise.
func pkgNameOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
