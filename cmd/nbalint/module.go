// Module-wide analysis state shared by the interprocedural rules.
//
// The per-file rules of the original nbalint see one package at a time; the
// dataflow rules (detflow, aliasflow, sharedstate) and the annotation-driven
// hotalloc rule need the whole module: a registry of every function
// declaration, a static call graph over them, the set of //nba:hotpath
// annotations, and the set of functions that run in simtime.Engine callback
// context. All of that is computed once per invocation and shared across
// rules, so adding rules does not re-type-check the tree.
package main

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"go/types"
)

const (
	simtimePkgPath = "nba/internal/simtime"
	tracePkgPath   = "nba/internal/trace"
	packetPkgPath  = "nba/internal/packet"
	parPkgPath     = "nba/internal/par"
)

// hotpathDirective is the annotation marking a function as part of the
// steady-state data path: hotalloc lints every allocation construct in its
// body. The annotation lives in the function's doc comment.
const hotpathDirective = "//nba:hotpath"

// funcInfo is one function or method declaration in the module.
type funcInfo struct {
	obj  *types.Func
	decl *ast.FuncDecl
	pkg  *lintPackage

	// callees are the statically resolvable module-local calls in the body
	// (including calls inside function literals), in source order.
	callees []callSite

	// ifaceCallees are the possible targets of interface-method calls in the
	// body, resolved by class-hierarchy approximation (every module method
	// implementing the called interface). Used for callback reachability
	// only — taint flows stay on static edges for precision.
	ifaceCallees []*types.Func

	// hotpath records a //nba:hotpath annotation on the declaration.
	hotpath bool

	// flows holds per-rule interprocedural summaries, keyed by rule name.
	flows map[string]*funcFlow
}

// callSite is one resolved static call.
type callSite struct {
	pos    token.Pos
	callee *types.Func // origin (generic, not instantiation)
}

// module is the whole-module analysis universe.
type module struct {
	fset *token.FileSet
	// pkgs is every loaded package, sorted by import path for deterministic
	// iteration.
	pkgs []*lintPackage
	// funcs maps a function object (origin) to its declaration info.
	funcs map[*types.Func]*funcInfo
	// order lists funcs in deterministic (position) order.
	order []*funcInfo
	// callbackRoots are functions passed to simtime.Engine.At/After or
	// installed as Engine.OnFire, plus a synthetic entry per function literal
	// used that way; they seed sharedstate reachability.
	callbackRoots []callbackRoot

	// methodsByName indexes module methods by name for interface-call
	// resolution.
	methodsByName map[string][]*funcInfo

	// funcValueSources maps a variable or field of function type to the
	// module functions ever assigned to it. A callback registered through
	// such a variable (eng.After(d, w.stepFn)) roots all of them.
	funcValueSources map[*types.Var][]*types.Func
}

// callbackRoot is one entry point into engine-callback context, or — when
// par is set — one job function handed to the parallel runner.
type callbackRoot struct {
	pos token.Pos
	// fn is the named function passed as a callback (nil for literals).
	fn *types.Func
	// lit is the function literal passed inline (nil for named functions).
	lit *ast.FuncLit
	// pkg is the package the registration appears in.
	pkg *lintPackage
	// desc describes the registration for finding messages.
	desc string
	// par marks a par.Run/Map/MapErr job root, or the RunJob method of a job
	// submitted to the device executor (par.Executor). Par roots are scanned
	// shallowly (the job body only, no transitive call-graph closure): a
	// chaos job calls the whole simulator, and closing over it would drown
	// the sharedstate rule in the entire single-threaded hot path. The
	// discipline par enforces is local by design — a job may write only its
	// own slot — so the body is where violations appear.
	par bool
	// slot is the job's slot-index parameter for par roots with a literal
	// job, or the receiver of an executor job's RunJob; other named jobs
	// resolve it from their declaration.
	slot *types.Var
}

// newModule builds the analysis universe over every package the loader has
// type-checked (targets and their transitive module-local imports).
func newModule(l *loader) *module {
	m := &module{fset: l.fset, funcs: map[*types.Func]*funcInfo{}}
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		m.pkgs = append(m.pkgs, l.pkgs[p])
	}
	for _, lp := range m.pkgs {
		for _, f := range lp.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := lp.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{obj: obj, decl: fd, pkg: lp, flows: map[string]*funcFlow{}}
				fi.hotpath = hasHotpathAnnotation(fd)
				m.funcs[obj] = fi
				m.order = append(m.order, fi)
			}
		}
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i].decl.Pos() < m.order[j].decl.Pos() })
	m.methodsByName = map[string][]*funcInfo{}
	for _, fi := range m.order {
		if sig, ok := fi.obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			m.methodsByName[fi.obj.Name()] = append(m.methodsByName[fi.obj.Name()], fi)
		}
	}
	for _, fi := range m.order {
		m.resolveCalls(fi)
	}
	m.collectFuncValueSources()
	m.findCallbackRoots()
	return m
}

// collectFuncValueSources records, for every function-typed variable or
// field, the module functions assigned to it anywhere in the module.
func (m *module) collectFuncValueSources() {
	m.funcValueSources = map[*types.Var][]*types.Func{}
	for _, fi := range m.order {
		if fi.decl.Body == nil {
			continue
		}
		info := fi.pkg.Info
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				fn := m.funcValueOf(info, as.Rhs[i])
				if fn == nil {
					continue
				}
				var v *types.Var
				switch x := ast.Unparen(lhs).(type) {
				case *ast.Ident:
					v, _ = info.Defs[x].(*types.Var)
					if v == nil {
						v, _ = info.Uses[x].(*types.Var)
					}
				case *ast.SelectorExpr:
					v, _ = info.Uses[x.Sel].(*types.Var)
				}
				if v != nil {
					v = v.Origin()
					m.funcValueSources[v] = append(m.funcValueSources[v], fn)
				}
			}
			return true
		})
	}
}

// funcValueOf resolves an expression used as a function value (method value
// or function identifier) to a module function.
func (m *module) funcValueOf(info *types.Info, e ast.Expr) *types.Func {
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[x]; ok && s.Kind() == types.MethodVal {
			obj = s.Obj()
		} else {
			obj = info.Uses[x.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	fn = fn.Origin()
	if _, known := m.funcs[fn]; !known {
		return nil
	}
	return fn
}

// ifaceCallees resolves an interface-method call to every module method
// implementing it (class-hierarchy approximation).
func (m *module) resolveIfaceCall(info *types.Info, call *ast.CallExpr) []*types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	iface, ok := s.Recv().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, cand := range m.methodsByName[sel.Sel.Name] {
		sig, ok := cand.obj.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		if types.Implements(sig.Recv().Type(), iface) ||
			types.Implements(types.NewPointer(sig.Recv().Type()), iface) {
			out = append(out, cand.obj)
		}
	}
	return out
}

// hasHotpathAnnotation reports whether the declaration's doc comment carries
// a //nba:hotpath directive.
func hasHotpathAnnotation(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := c.Text
		if text == hotpathDirective || strings.HasPrefix(text, hotpathDirective+" ") {
			return true
		}
	}
	return false
}

// staticCallee resolves a call expression to the module-local function it
// invokes, or nil for dynamic calls (interface methods, func values),
// builtins, conversions and out-of-module targets.
func (m *module) staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified function
		}
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	fn = fn.Origin()
	if _, known := m.funcs[fn]; !known {
		return nil
	}
	return fn
}

// resolveCalls records fi's statically resolvable module-local call sites.
func (m *module) resolveCalls(fi *funcInfo) {
	if fi.decl.Body == nil {
		return
	}
	info := fi.pkg.Info
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := m.staticCallee(info, call); callee != nil {
			fi.callees = append(fi.callees, callSite{pos: call.Pos(), callee: callee})
		} else {
			fi.ifaceCallees = append(fi.ifaceCallees, m.resolveIfaceCall(info, call)...)
		}
		return true
	})
}

// isEngineSchedule reports whether the call schedules an engine callback
// (Engine.At / Engine.After) and returns the callback argument.
func isEngineSchedule(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 2 {
		return nil, false
	}
	s := info.Selections[sel]
	if isMethodOn(s, simtimePkgPath, "Engine", "At") || isMethodOn(s, simtimePkgPath, "Engine", "After") {
		return call.Args[1], true
	}
	return nil, false
}

// isOnFireInstall reports whether the assignment installs an Engine.OnFire
// hook and returns the installed expression.
func isOnFireInstall(info *types.Info, as *ast.AssignStmt) (ast.Expr, bool) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "OnFire" {
			continue
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() {
			continue
		}
		n := namedOrigin(info.TypeOf(sel.X))
		if n == nil {
			continue
		}
		obj := n.Obj()
		if obj.Name() == "Engine" && obj.Pkg() != nil && obj.Pkg().Path() == simtimePkgPath {
			return as.Rhs[i], true
		}
	}
	return nil, false
}

// isParDispatch reports whether the call hands jobs to the parallel runner
// (par.Run / par.Map / par.MapErr) and returns the job-function argument.
func isParDispatch(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	if len(call.Args) != 3 {
		return nil, false
	}
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation Map[T]
		fun = ast.Unparen(ix.X)
	}
	var obj types.Object
	switch x := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[x] // call from inside package par itself
	case *ast.SelectorExpr:
		obj = info.Uses[x.Sel]
	default:
		return nil, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != parPkgPath {
		return nil, false
	}
	switch fn.Name() {
	case "Run", "Map", "MapErr":
		return call.Args[2], true
	}
	return nil, false
}

// executorJob reports whether the call hands a job to the device executor
// ((*par.Executor).Submit) and returns the RunJob method of the job's static
// type — the job's entry point, whose receiver is its slot. A job passed as
// a par.Job interface value resolves to no module function.
func (m *module) executorJob(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 1 || !isMethodOn(info.Selections[sel], parPkgPath, "Executor", "Submit") {
		return nil
	}
	t := info.TypeOf(call.Args[0])
	if t == nil {
		return nil
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, nil, "RunJob")
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if _, known := m.funcs[fn.Origin()]; !known {
		return nil
	}
	return fn.Origin()
}

// slotParamOf returns the first parameter of a function literal — a par
// job's slot index.
func slotParamOf(info *types.Info, lit *ast.FuncLit) *types.Var {
	if lit.Type.Params == nil || len(lit.Type.Params.List) == 0 {
		return nil
	}
	names := lit.Type.Params.List[0].Names
	if len(names) == 0 {
		return nil
	}
	v, _ := info.Defs[names[0]].(*types.Var)
	return v
}

// findCallbackRoots scans every function for engine callback registrations
// and par job dispatches.
func (m *module) findCallbackRoots() {
	for _, fi := range m.order {
		if fi.decl.Body == nil {
			continue
		}
		info := fi.pkg.Info
		addRoot := func(pos token.Pos, arg ast.Expr, how string, par bool) {
			arg = ast.Unparen(arg)
			if lit, ok := arg.(*ast.FuncLit); ok {
				r := callbackRoot{
					pos: pos, lit: lit, pkg: fi.pkg, par: par,
					desc: how + " with a function literal in " + fi.obj.Name(),
				}
				if par {
					r.slot = slotParamOf(info, lit)
				}
				m.callbackRoots = append(m.callbackRoots, r)
				return
			}
			if fn := m.funcValueOf(info, arg); fn != nil {
				m.callbackRoots = append(m.callbackRoots, callbackRoot{
					pos: pos, fn: fn, pkg: fi.pkg, par: par,
					desc: how + " in " + fi.obj.Name(),
				})
				return
			}
			// A func-typed variable or field: root everything ever assigned
			// to it (eng.After(d, w.stepFn) where stepFn = w.step).
			var v *types.Var
			switch x := arg.(type) {
			case *ast.Ident:
				v, _ = info.Uses[x].(*types.Var)
			case *ast.SelectorExpr:
				v, _ = info.Uses[x.Sel].(*types.Var)
			}
			if v != nil {
				for _, fn := range m.funcValueSources[v.Origin()] {
					m.callbackRoots = append(m.callbackRoots, callbackRoot{
						pos: pos, fn: fn, pkg: fi.pkg, par: par,
						desc: how + " via " + v.Name() + " in " + fi.obj.Name(),
					})
				}
			}
		}
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if arg, ok := isEngineSchedule(info, n); ok {
					addRoot(n.Pos(), arg, "scheduled on the engine", false)
				} else if arg, ok := isParDispatch(info, n); ok {
					addRoot(n.Pos(), arg, "dispatched as a par job", true)
				} else if fn := m.executorJob(info, n); fn != nil {
					m.callbackRoots = append(m.callbackRoots, callbackRoot{
						pos: n.Pos(), fn: fn, pkg: fi.pkg, par: true,
						slot: fn.Type().(*types.Signature).Recv(),
						desc: "submitted to the device executor in " + fi.obj.Name(),
					})
				}
			case *ast.AssignStmt:
				if rhs, ok := isOnFireInstall(info, n); ok {
					addRoot(n.Pos(), rhs, "installed as Engine.OnFire", false)
				}
			}
			return true
		})
	}
}

// funcDisplayName renders a function for messages: pkg-qualified, with a
// receiver for methods, e.g. "(*trace.Tracer).Emit" or "core.newWorker".
func funcDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	pkgName := ""
	if fn.Pkg() != nil {
		p := fn.Pkg().Path()
		pkgName = p[strings.LastIndex(p, "/")+1:] + "."
	}
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		if n, ok := types.Unalias(t).(*types.Named); ok {
			return "(" + ptr + pkgName + n.Obj().Name() + ")." + fn.Name()
		}
	}
	return pkgName + fn.Name()
}
