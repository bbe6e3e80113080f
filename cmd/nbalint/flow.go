// Interprocedural taint engine shared by detflow and aliasflow.
//
// The engine is summary-based: every function in the module gets a funcFlow
// summary — which results carry seed taint, which parameters flow to which
// results, and which parameters reach a sink inside the function (directly or
// through further calls). Summaries are computed to a fixed point over the
// static call graph, then a final report pass walks every function once and
// emits findings with the full source→sink trail.
//
// The intra-function transfer is deliberately flow-insensitive: a value is
// tainted if any assignment anywhere in the function taints it. Dynamic calls (interface methods, func values) do
// not propagate taint unless the spec opts into receiver/argument
// pass-through; this trades a little soundness for a usable signal, and the
// self-lint gate keeps the real tree at zero findings either way.
package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// flowStep is one hop of a source→sink trail.
type flowStep struct {
	pos  token.Position
	desc string
}

func (s flowStep) String() string {
	if !s.pos.IsValid() {
		return s.desc
	}
	return fmt.Sprintf("%s (%s:%d)", s.desc, shortFile(s.pos.Filename), s.pos.Line)
}

// trail is an immutable source-first step sequence.
type trail struct{ steps []flowStep }

const maxTrailSteps = 16

func (t *trail) extend(step flowStep) *trail {
	if len(t.steps) >= maxTrailSteps {
		return t
	}
	out := make([]flowStep, 0, len(t.steps)+1)
	out = append(out, t.steps...)
	out = append(out, step)
	return &trail{steps: out}
}

func (t *trail) join(rest []flowStep) *trail {
	out := t
	for _, s := range rest {
		out = out.extend(s)
	}
	return out
}

// tval is the taint of one value: the seed trails that reach it, plus the
// bitset of enclosing-function parameters it derives from.
type tval struct {
	seeds  []*trail
	params uint64
}

const maxSeedsPerValue = 2

func (v tval) empty() bool { return len(v.seeds) == 0 && v.params == 0 }

func mergeTval(a, b tval) tval {
	out := tval{params: a.params | b.params}
	out.seeds = append(out.seeds, a.seeds...)
	for _, t := range b.seeds {
		if len(out.seeds) >= maxSeedsPerValue {
			break
		}
		dup := false
		for _, have := range out.seeds {
			if len(have.steps) > 0 && len(t.steps) > 0 && have.steps[0].pos == t.steps[0].pos {
				dup = true
				break
			}
		}
		if !dup {
			out.seeds = append(out.seeds, t)
		}
	}
	return out
}

// covers reports whether a already carries everything b would add.
func (a tval) covers(b tval) bool {
	if b.params&^a.params != 0 {
		return false
	}
	for _, t := range b.seeds {
		found := false
		for _, have := range a.seeds {
			if len(have.steps) > 0 && len(t.steps) > 0 && have.steps[0].pos == t.steps[0].pos {
				found = true
				break
			}
		}
		if !found && len(a.seeds) < maxSeedsPerValue {
			return false
		}
	}
	return true
}

// funcFlow is one function's interprocedural summary for one rule.
type funcFlow struct {
	retTaint   map[int]*trail // result index → seed trail (ends with "returned by F")
	paramToRet map[int]uint64 // param index → bitset of result indices it flows to
	paramSink  map[int]*trail // param index → trail from entering F to a sink
}

func newFuncFlow() *funcFlow {
	return &funcFlow{retTaint: map[int]*trail{}, paramToRet: map[int]uint64{}, paramSink: map[int]*trail{}}
}

// flowSpec parameterizes the engine for one rule.
type flowSpec struct {
	name    string
	message string // base finding message

	// seedCall describes a call expression that originates taint ("" = not
	// a seed).
	seedCall func(p *lintPackage, call *ast.CallExpr) string
	// seedFuncLitParams returns identifiers of callback parameters seeded by
	// a call (e.g. the packet parameter of Batch.ForEachLive).
	seedFuncLitParams func(p *lintPackage, call *ast.CallExpr) ([]*ast.Ident, string)
	// seedMapRange seeds the key/value variables of range-over-map loops.
	seedMapRange bool
	// seedGoroutine seeds variables written from inside go-statement literals.
	seedGoroutine bool

	// sinkCall describes a call whose arguments are sinks ("" = not a sink).
	sinkCall func(p *lintPackage, call *ast.CallExpr) string
	// sinkStore classifies an lvalue as an escaping store ("" = none).
	sinkStore func(p *lintPackage, lhs ast.Expr) string
	// sendSink, when non-empty, makes channel sends of tainted values sinks.
	sendSink string

	// typeOK filters which static types carry taint (nil = all types).
	typeOK func(t types.Type) bool
	// skipPkg exempts packages from both summaries and findings (packages
	// that legitimately own the flagged storage, like mempool for packets).
	skipPkg func(path string) bool
	// trackFields/trackGlobals propagate seed taint through struct fields /
	// package-level variables module-wide (flow- and instance-insensitive).
	trackFields  bool
	trackGlobals bool
	// unknownCallPropagates makes dynamic and out-of-module calls pass
	// receiver/argument taint to their results (laundering through stdlib
	// helpers like time.Time.UnixNano or fmt.Sprintf).
	unknownCallPropagates bool
	// reportAtSink positions findings at the final sink step instead of the
	// call site in the currently analyzed function.
	reportAtSink bool
}

// flowFinding is one source→sink violation. The position is resolved so the
// caller can anchor it at either end of the trail.
type flowFinding struct {
	pos  token.Position
	path []flowStep
}

// shortFile trims a path to its last two segments for trail rendering.
func shortFile(name string) string {
	parts := strings.Split(filepath.ToSlash(name), "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/")
}

// flowAnalysis runs one spec over the module.
type flowAnalysis struct {
	mod  *module
	spec *flowSpec

	fieldTaint  map[*types.Var]*trail
	globalTaint map[*types.Var]*trail

	dirty    bool
	findings []flowFinding
	seen     map[string]bool
}

// runFlow computes summaries to fixed point and returns the findings.
func runFlow(mod *module, spec *flowSpec) []flowFinding {
	fa := &flowAnalysis{
		mod:         mod,
		spec:        spec,
		fieldTaint:  map[*types.Var]*trail{},
		globalTaint: map[*types.Var]*trail{},
		seen:        map[string]bool{},
	}
	for round := 0; round < 50; round++ {
		fa.dirty = false
		for _, fi := range mod.order {
			if fi.decl.Body == nil {
				continue
			}
			if spec.skipPkg != nil && spec.skipPkg(fi.pkg.Path) {
				continue
			}
			fa.analyzeFunc(fi, false)
		}
		if !fa.dirty {
			break
		}
	}
	for _, fi := range mod.order {
		if fi.decl.Body == nil {
			continue
		}
		if spec.skipPkg != nil && spec.skipPkg(fi.pkg.Path) {
			continue
		}
		fa.analyzeFunc(fi, true)
	}
	return fa.findings
}

func (fa *flowAnalysis) flowOf(fi *funcInfo) *funcFlow {
	f := fi.flows[fa.spec.name]
	if f == nil {
		f = newFuncFlow()
		fi.flows[fa.spec.name] = f
	}
	return f
}

func (fa *flowAnalysis) position(pos token.Pos) token.Position {
	return fa.mod.fset.Position(pos)
}

func (fa *flowAnalysis) typeCarries(t types.Type) bool {
	if fa.spec.typeOK == nil {
		return true
	}
	return t != nil && fa.spec.typeOK(t)
}

func (fa *flowAnalysis) emit(pos token.Pos, t *trail) {
	anchor := fa.position(pos)
	if fa.spec.reportAtSink && len(t.steps) > 0 && t.steps[len(t.steps)-1].pos.IsValid() {
		anchor = t.steps[len(t.steps)-1].pos
	}
	key := fmt.Sprintf("%v|%d", anchor, len(t.steps))
	for _, s := range t.steps {
		key += "|" + s.String()
	}
	if fa.seen[key] {
		return
	}
	fa.seen[key] = true
	fa.findings = append(fa.findings, flowFinding{pos: anchor, path: t.steps})
}

// funcEval is the intra-function transfer state.
type funcEval struct {
	fa     *flowAnalysis
	fi     *funcInfo
	info   *types.Info
	flow   *funcFlow
	env    map[types.Object]tval
	params map[types.Object]int
	report bool
	// changed tracks env growth within the current pass.
	changed bool
}

// analyzeFunc runs the transfer for one function until its env stabilizes,
// updating summaries (and, in report mode, emitting findings).
func (fa *flowAnalysis) analyzeFunc(fi *funcInfo, report bool) {
	ev := &funcEval{
		fa:     fa,
		fi:     fi,
		info:   fi.pkg.Info,
		flow:   fa.flowOf(fi),
		env:    map[types.Object]tval{},
		params: map[types.Object]int{},
		report: report,
	}
	// Parameter markers: receiver (if any) is index 0.
	idx := 0
	sig, _ := fi.obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if fi.decl.Recv != nil && len(fi.decl.Recv.List) == 1 {
			for _, name := range fi.decl.Recv.List[0].Names {
				if obj := ev.info.Defs[name]; obj != nil && idx < 64 && fa.typeCarries(obj.Type()) {
					ev.params[obj] = idx
					ev.env[obj] = tval{params: 1 << idx}
				}
			}
		}
		idx++
	}
	if fi.decl.Type.Params != nil {
		for _, field := range fi.decl.Type.Params.List {
			if len(field.Names) == 0 {
				idx++
				continue
			}
			for _, name := range field.Names {
				if obj := ev.info.Defs[name]; obj != nil && idx < 64 && fa.typeCarries(obj.Type()) {
					ev.params[obj] = idx
					ev.env[obj] = tval{params: 1 << idx}
				}
				idx++
			}
		}
	}
	for pass := 0; pass < 20; pass++ {
		ev.changed = false
		// Findings fire only on the last pass of the report run, once env has
		// stabilized, so trails are complete.
		ev.walk(false)
		if !ev.changed {
			break
		}
	}
	if report {
		ev.walk(true)
	}
}

// bindObj merges a tval into an object's env entry.
func (ev *funcEval) bindObj(obj types.Object, v tval) {
	if obj == nil || v.empty() {
		return
	}
	if !ev.fa.typeCarries(obj.Type()) {
		return
	}
	cur := ev.env[obj]
	if cur.covers(v) {
		return
	}
	ev.env[obj] = mergeTval(cur, v)
	ev.changed = true
}

// seedTrail builds a fresh single-step trail.
func (ev *funcEval) seedTrail(pos token.Pos, desc string) *trail {
	return &trail{steps: []flowStep{{pos: ev.fa.position(pos), desc: desc}}}
}

// walk runs one pass over the body. With emit set, sink hits produce
// findings; otherwise they only update summaries.
func (ev *funcEval) walk(emit bool) {
	body := ev.fi.decl.Body
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			ev.assign(n, emit)
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						ev.bindObj(ev.info.Defs[name], ev.taintOf(vs.Values[i]))
					}
				}
			}
		case *ast.RangeStmt:
			ev.rangeStmt(n)
		case *ast.GoStmt:
			ev.goStmt(n)
		case *ast.SendStmt:
			if ev.fa.spec.sendSink != "" {
				v := ev.taintOf(n.Value)
				ev.hitSink(v, flowStep{pos: ev.fa.position(n.Pos()), desc: ev.fa.spec.sendSink}, n.Pos(), emit)
			}
		case *ast.ReturnStmt:
			ev.returnStmt(n)
		case *ast.CallExpr:
			ev.evalCallEffects(n, emit)
		}
		return true
	})
}

// assign processes one assignment statement: env updates, field/global
// taint recording, and store-sink checks.
func (ev *funcEval) assign(as *ast.AssignStmt, emit bool) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		// Tuple assignment.
		rhs := ast.Unparen(as.Rhs[0])
		if call, ok := rhs.(*ast.CallExpr); ok {
			for i, lhs := range as.Lhs {
				ev.assignOne(as, lhs, ev.callTaint(call, i), emit)
			}
			return
		}
		// v, ok := m[k]  /  v, ok := x.(T)  /  v, ok := <-ch
		v := ev.taintOf(rhs)
		ev.assignOne(as, as.Lhs[0], v, emit)
		return
	}
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		v := ev.taintOf(as.Rhs[i])
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Compound assignment (+= etc.) keeps the old taint too.
			v = mergeTval(v, ev.taintOf(lhs))
		}
		ev.assignOne(as, lhs, v, emit)
	}
}

func (ev *funcEval) assignOne(as *ast.AssignStmt, lhs ast.Expr, v tval, emit bool) {
	spec := ev.fa.spec
	lhs = ast.Unparen(lhs)
	if spec.sinkStore != nil && !v.empty() {
		if kind := spec.sinkStore(ev.fi.pkg, lhs); kind != "" {
			ev.hitSink(v, flowStep{pos: ev.fa.position(as.Pos()), desc: "stored into a " + kind}, as.Pos(), emit)
		}
	}
	switch x := lhs.(type) {
	case *ast.Ident:
		obj := ev.info.Defs[x]
		if obj == nil {
			obj = ev.info.Uses[x]
		}
		if vr, ok := obj.(*types.Var); ok && spec.trackGlobals && vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
			ev.recordCarrier(ev.fa.globalTaint, vr.Origin(), v, "stored in package variable "+vr.Name(), as.Pos())
		}
		ev.bindObj(obj, v)
	case *ast.SelectorExpr:
		if spec.trackFields {
			if fv, ok := ev.info.Uses[x.Sel].(*types.Var); ok && fv.IsField() {
				ev.recordCarrier(ev.fa.fieldTaint, fv.Origin(), v, "stored in field "+fv.Name(), as.Pos())
			}
		}
	}
}

// recordCarrier taints a module-wide carrier (field or global) with a seed
// trail. Parameter-relative taint is not tracked through carriers.
func (ev *funcEval) recordCarrier(m map[*types.Var]*trail, v *types.Var, tv tval, desc string, pos token.Pos) {
	if len(tv.seeds) == 0 || m[v] != nil {
		return
	}
	m[v] = tv.seeds[0].extend(flowStep{pos: ev.fa.position(pos), desc: desc})
	ev.fa.dirty = true
	ev.changed = true
}

// rangeStmt handles range loops: map-order seeding and container taint
// propagation to the iteration variables.
func (ev *funcEval) rangeStmt(rs *ast.RangeStmt) {
	t := ev.info.TypeOf(rs.X)
	if t == nil {
		return
	}
	_, isMap := t.Underlying().(*types.Map)
	contTaint := ev.taintOf(rs.X)
	seed := tval{}
	if isMap && ev.fa.spec.seedMapRange {
		seed = tval{seeds: []*trail{ev.seedTrail(rs.Pos(), "map iteration order")}}
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if e == nil {
			continue
		}
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			continue
		}
		obj := ev.info.Defs[id]
		if obj == nil {
			obj = ev.info.Uses[id]
		}
		ev.bindObj(obj, mergeTval(seed, contTaint))
	}
}

// goStmt seeds variables written from inside a go-statement literal: their
// value afterwards depends on scheduling.
func (ev *funcEval) goStmt(gs *ast.GoStmt) {
	if !ev.fa.spec.seedGoroutine {
		return
	}
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := ev.info.Uses[id] // captured (not defined in the literal)
			if obj == nil || !isLocalVar(obj) {
				continue
			}
			ev.bindObj(obj, tval{seeds: []*trail{ev.seedTrail(as.Pos(), "written from an unsynchronized goroutine")}})
		}
		return true
	})
}

// returnStmt records the function's result summaries. Returns inside nested
// function literals are excluded (they are not F's results).
func (ev *funcEval) returnStmt(rs *ast.ReturnStmt) {
	if !ev.isOwnReturn(rs) {
		return
	}
	results := rs.Results
	if len(results) == 0 {
		// Bare return with named results.
		if ev.fi.decl.Type.Results == nil {
			return
		}
		i := 0
		for _, field := range ev.fi.decl.Type.Results.List {
			for _, name := range field.Names {
				if obj := ev.info.Defs[name]; obj != nil {
					ev.recordReturn(i, ev.env[obj], rs.Pos())
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
		return
	}
	if len(results) == 1 {
		if call, ok := ast.Unparen(results[0]).(*ast.CallExpr); ok && ev.resultCount() > 1 {
			for i := 0; i < ev.resultCount(); i++ {
				ev.recordReturn(i, ev.callTaint(call, i), rs.Pos())
			}
			return
		}
	}
	for i, e := range results {
		ev.recordReturn(i, ev.taintOf(e), rs.Pos())
	}
}

func (ev *funcEval) resultCount() int {
	sig, _ := ev.fi.obj.Type().(*types.Signature)
	if sig == nil {
		return 0
	}
	return sig.Results().Len()
}

func (ev *funcEval) recordReturn(i int, v tval, pos token.Pos) {
	if v.empty() {
		return
	}
	if len(v.seeds) > 0 && ev.flow.retTaint[i] == nil {
		ev.flow.retTaint[i] = v.seeds[0].extend(flowStep{
			pos: ev.fa.position(pos), desc: "returned by " + funcDisplayName(ev.fi.obj),
		})
		ev.fa.dirty = true
	}
	if v.params != 0 {
		for p := 0; p < 64; p++ {
			if v.params&(1<<p) == 0 {
				continue
			}
			if ev.flow.paramToRet[p]&(1<<i) == 0 {
				ev.flow.paramToRet[p] |= 1 << i
				ev.fa.dirty = true
			}
		}
	}
}

// isOwnReturn reports whether the return statement belongs to the analyzed
// function rather than a nested literal.
func (ev *funcEval) isOwnReturn(rs *ast.ReturnStmt) bool {
	own := true
	ast.Inspect(ev.fi.decl.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if lit.Pos() <= rs.Pos() && rs.Pos() < lit.End() {
				own = false
			}
			return false
		}
		return true
	})
	return own
}

// hitSink delivers a taint to a sink: seeds become findings, parameter bits
// become paramSink summary entries.
func (ev *funcEval) hitSink(v tval, step flowStep, pos token.Pos, emit bool) {
	if v.empty() {
		return
	}
	if emit {
		for _, seed := range v.seeds {
			ev.fa.emit(pos, seed.extend(step))
		}
	}
	ev.recordParamSink(v.params, []flowStep{step})
}

func (ev *funcEval) recordParamSink(params uint64, steps []flowStep) {
	if params == 0 {
		return
	}
	for p := 0; p < 64; p++ {
		if params&(1<<p) == 0 || ev.flow.paramSink[p] != nil {
			continue
		}
		ev.flow.paramSink[p] = (&trail{}).join(steps)
		ev.fa.dirty = true
	}
}

// evalCallEffects handles the side effects of a call expression: sink-call
// argument checks, seeded callback parameters, and callee paramSink
// application. Result taint is handled separately by callTaint.
func (ev *funcEval) evalCallEffects(call *ast.CallExpr, emit bool) {
	spec := ev.fa.spec
	if spec.seedFuncLitParams != nil {
		if idents, desc := spec.seedFuncLitParams(ev.fi.pkg, call); len(idents) > 0 {
			for _, id := range idents {
				ev.bindObj(ev.info.Defs[id], tval{seeds: []*trail{ev.seedTrail(id.Pos(), desc)}})
			}
		}
	}
	if spec.sinkCall != nil {
		if desc := spec.sinkCall(ev.fi.pkg, call); desc != "" {
			for i, arg := range call.Args {
				v := ev.taintOf(arg)
				ev.hitSink(v, flowStep{
					pos:  ev.fa.position(call.Pos()),
					desc: fmt.Sprintf("argument %d of %s", i+1, desc),
				}, call.Pos(), emit)
			}
			return // a direct sink call is terminal; no callee application
		}
	}
	callee := ev.fa.mod.staticCallee(ev.info, call)
	if callee == nil {
		return
	}
	cfi := ev.fa.mod.funcs[callee]
	cflow := cfi.flows[spec.name]
	if cflow == nil || len(cflow.paramSink) == 0 {
		return
	}
	if spec.skipPkg != nil && spec.skipPkg(cfi.pkg.Path) {
		return
	}
	args := ev.normalizedArgs(call)
	for j, arg := range args {
		if arg == nil {
			continue
		}
		ps := cflow.paramSink[j]
		if ps == nil {
			// Variadic tail maps onto the last parameter.
			continue
		}
		v := ev.taintOf(arg)
		if v.empty() {
			continue
		}
		step := flowStep{pos: ev.fa.position(call.Pos()), desc: "passed to " + funcDisplayName(callee)}
		if emit {
			for _, seed := range v.seeds {
				ev.fa.emit(call.Pos(), seed.extend(step).join(ps.steps))
			}
		}
		if v.params != 0 {
			ev.recordParamSink(v.params, append([]flowStep{step}, ps.steps...))
		}
	}
}

// normalizedArgs returns the call's arguments aligned with summary parameter
// indices: the receiver (for method calls) is index 0. Missing positions are
// nil.
func (ev *funcEval) normalizedArgs(call *ast.CallExpr) []ast.Expr {
	var out []ast.Expr
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := ev.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out = append(out, sel.X)
		}
	}
	out = append(out, call.Args...)
	return out
}

// taintOf evaluates the taint of a single-valued expression.
func (ev *funcEval) taintOf(e ast.Expr) tval {
	spec := ev.fa.spec
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := ev.info.Uses[x]
		if obj == nil {
			obj = ev.info.Defs[x]
		}
		if obj == nil {
			return tval{}
		}
		if vr, ok := obj.(*types.Var); ok && spec.trackGlobals && vr.Pkg() != nil && vr.Parent() == vr.Pkg().Scope() {
			if t := ev.fa.globalTaint[vr.Origin()]; t != nil {
				return mergeTval(ev.env[obj], tval{seeds: []*trail{t}})
			}
		}
		return ev.env[obj]
	case *ast.CallExpr:
		return ev.callTaint(x, 0)
	case *ast.SelectorExpr:
		v := tval{}
		if fv, ok := ev.info.Uses[x.Sel].(*types.Var); ok && fv.IsField() {
			if spec.trackFields {
				if t := ev.fa.fieldTaint[fv.Origin()]; t != nil {
					v = tval{seeds: []*trail{t}}
				}
			}
			// A field of a tainted value is tainted.
			v = mergeTval(v, ev.taintOf(x.X))
		}
		if !ev.fa.typeCarries(ev.info.TypeOf(e)) {
			return tval{}
		}
		return v
	case *ast.IndexExpr:
		if !ev.fa.typeCarries(ev.info.TypeOf(e)) {
			return tval{}
		}
		// Element identity comes from the container; the index only selects.
		return ev.taintOf(x.X)
	case *ast.BinaryExpr:
		return mergeTval(ev.taintOf(x.X), ev.taintOf(x.Y))
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return tval{} // channel receive: unmodeled
		}
		return ev.taintOf(x.X)
	case *ast.StarExpr:
		return ev.taintOf(x.X)
	case *ast.TypeAssertExpr:
		return ev.taintOf(x.X)
	case *ast.SliceExpr:
		return ev.taintOf(x.X)
	case *ast.CompositeLit:
		v := tval{}
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			v = mergeTval(v, ev.taintOf(el))
		}
		if !ev.fa.typeCarries(ev.info.TypeOf(e)) {
			return tval{}
		}
		return v
	}
	return tval{}
}

// callTaint evaluates the taint of result idx of a call expression.
func (ev *funcEval) callTaint(call *ast.CallExpr, idx int) tval {
	spec := ev.fa.spec
	info := ev.info

	// Seed call?
	if spec.seedCall != nil {
		if desc := spec.seedCall(ev.fi.pkg, call); desc != "" {
			return tval{seeds: []*trail{ev.seedTrail(call.Pos(), desc)}}
		}
	}

	// Conversion: T(x) propagates x.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if !ev.fa.typeCarries(info.TypeOf(call)) {
			return tval{}
		}
		return ev.taintOf(call.Args[0])
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				v := tval{}
				for _, a := range call.Args {
					v = mergeTval(v, ev.taintOf(a))
				}
				return v
			case "min", "max":
				v := tval{}
				for _, a := range call.Args {
					v = mergeTval(v, ev.taintOf(a))
				}
				return v
			default:
				return tval{} // len, cap, make, new, ...: order-insensitive
			}
		}
	}

	callee := ev.fa.mod.staticCallee(info, call)
	if callee == nil {
		if spec.unknownCallPropagates {
			// Stdlib / dynamic call: receiver and argument taint flows through
			// (time.Now().UnixNano(), fmt.Sprintf("%d", t), ...).
			v := tval{}
			for _, a := range ev.normalizedArgs(call) {
				if a != nil {
					v = mergeTval(v, ev.taintOf(a))
				}
			}
			if len(v.seeds) > 0 || v.params != 0 {
				if !ev.fa.typeCarries(info.TypeOf(call)) {
					return tval{}
				}
			}
			return v
		}
		return tval{}
	}
	cfi := ev.fa.mod.funcs[callee]
	cflow := cfi.flows[spec.name]
	if cflow == nil {
		return tval{}
	}
	out := tval{}
	if t := cflow.retTaint[idx]; t != nil {
		out = mergeTval(out, tval{seeds: []*trail{t.extend(flowStep{
			pos: ev.fa.position(call.Pos()), desc: "call to " + funcDisplayName(callee),
		})}})
	}
	args := ev.normalizedArgs(call)
	for j, arg := range args {
		if arg == nil {
			continue
		}
		if cflow.paramToRet[j]&(1<<idx) == 0 {
			continue
		}
		v := ev.taintOf(arg)
		if v.empty() {
			continue
		}
		step := flowStep{pos: ev.fa.position(call.Pos()), desc: "through " + funcDisplayName(callee)}
		moved := tval{params: v.params}
		for _, seed := range v.seeds {
			moved.seeds = append(moved.seeds, seed.extend(step))
		}
		out = mergeTval(out, moved)
	}
	if !out.empty() && !ev.fa.typeCarries(info.TypeOf(call)) {
		return tval{}
	}
	return out
}
