package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// sharedstateAnalyzer is the guard-rail for the planned parallel event engine
// (ROADMAP item 4): state written from simtime.Engine callback context and
// read outside it is exactly the state that becomes a data race once sweep
// cases run on multiple OS threads. The rule computes the set of functions
// reachable from engine callbacks (Engine.At / Engine.After arguments,
// Engine.OnFire installs) over the static call graph and flags:
//
//   - package-level variables written in callback context and accessed by any
//     function outside it;
//   - struct fields written in callback context and read from a different
//     package outside it (same-package accessor methods are the intended
//     happens-after interface and stay exempt).
//
// Functions that take a sync.Mutex / sync.RWMutex lock anywhere in their body
// are treated as synchronized and exempt (coarse, but the engine is currently
// single-threaded — the rule exists to keep new shared state explicit).
var sharedstateAnalyzer = &modAnalyzer{
	name: "sharedstate",
	doc:  "flag state written from engine-callback context and read outside it without synchronization",
	run:  runSharedstate,
}

func runSharedstate(m *module) []finding {
	ctx := callbackContext(m)

	type site struct {
		pos  token.Pos
		pkg  *lintPackage
		desc string // how the enclosing context was reached
	}
	globalWrites := map[*types.Var][]site{}
	fieldWrites := map[*types.Var][]site{}

	// Writes in callback context. slot, when non-nil, is a par job's slot
	// parameter or an executor job's receiver: writes to the slot are the
	// runner's discipline and exempt.
	scanWrites := func(pkg *lintPackage, body ast.Node, how string, slot *types.Var) {
		info := pkg.Info
		record := func(lhs ast.Expr, pos token.Pos) {
			if isSlotWrite(info, lhs, slot) {
				return
			}
			switch v := writtenVar(info, lhs).(type) {
			case nil:
			case *types.Var:
				if v.IsField() {
					if writesLocalValue(info, lhs) {
						return // field of a local value-typed copy, not shared
					}
					fieldWrites[v.Origin()] = append(fieldWrites[v.Origin()], site{pos, pkg, how})
				} else if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					globalWrites[v.Origin()] = append(globalWrites[v.Origin()], site{pos, pkg, how})
				}
			}
		}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					record(lhs, n.Pos())
				}
			case *ast.IncDecStmt:
				record(n.X, n.Pos())
			}
			return true
		})
	}
	for _, fi := range m.order {
		how, in := ctx.funcs[fi.obj]
		if !in || fi.decl.Body == nil || usesLock(fi.pkg.Info, fi.decl.Body) {
			continue
		}
		scanWrites(fi.pkg, fi.decl.Body, how, nil)
	}
	for _, lr := range ctx.lits {
		if usesLock(lr.pkg.Info, lr.lit.Body) {
			continue
		}
		scanWrites(lr.pkg, lr.lit.Body, lr.desc, nil)
	}

	// Par job roots are scanned shallowly — the job body only, never the
	// transitive call graph: a sweep job invokes the entire simulator, and
	// closing over it would flood the rule with the single-threaded hot path.
	// The runner's contract is local by design (a job may write only its own
	// slot), so the body is where violations appear.
	parFns := map[*types.Func]bool{}
	var parLits []callbackRoot
	for _, r := range m.callbackRoots {
		if !r.par {
			continue
		}
		if r.lit != nil {
			parLits = append(parLits, r)
			if !usesLock(r.pkg.Info, r.lit.Body) {
				scanWrites(r.pkg, r.lit.Body, r.desc, r.slot)
			}
			continue
		}
		if r.fn == nil || parFns[r.fn] {
			continue
		}
		parFns[r.fn] = true
		fi := m.funcs[r.fn]
		if fi == nil || fi.decl.Body == nil || usesLock(fi.pkg.Info, fi.decl.Body) {
			continue
		}
		slot := r.slot
		if slot == nil {
			slot = firstParamOf(fi)
		}
		scanWrites(fi.pkg, fi.decl.Body, r.desc, slot)
	}

	// Accesses outside callback context. Callback-root literals are callback
	// context even though they sit syntactically inside an installer function
	// whose own body is not; skip their subtrees so the installer is not
	// mistaken for an outside reader of purely callback-confined state.
	rootLits := map[*ast.FuncLit]bool{}
	for _, lr := range ctx.lits {
		rootLits[lr.lit] = true
	}
	for _, lr := range parLits {
		rootLits[lr.lit] = true // par job bodies are concurrent context, not outside readers
	}
	type access struct {
		pos token.Position
		fn  *types.Func
	}
	globalReads := map[*types.Var]access{}
	fieldReads := map[*types.Var]access{}
	for _, fi := range m.order {
		if _, in := ctx.funcs[fi.obj]; in || fi.decl.Body == nil {
			continue
		}
		if parFns[fi.obj] || usesLock(fi.pkg.Info, fi.decl.Body) {
			continue
		}
		info := fi.pkg.Info
		ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok && rootLits[fl] {
				return false
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			v = v.Origin()
			if v.IsField() {
				// Cross-package field reads only, and only from simulation
				// packages: same-package accessors are the intended
				// happens-after interface, and cmd/bench tooling reads
				// results strictly after Run returns.
				if _, written := fieldWrites[v]; written && v.Pkg() != nil && v.Pkg().Path() != fi.pkg.Path && isSimPackage(fi.pkg.Path) {
					if cur, ok := fieldReads[v]; !ok || before(m.fset.Position(id.Pos()), cur.pos) {
						fieldReads[v] = access{m.fset.Position(id.Pos()), fi.obj}
					}
				}
			} else if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				if _, written := globalWrites[v]; written {
					if cur, ok := globalReads[v]; !ok || before(m.fset.Position(id.Pos()), cur.pos) {
						globalReads[v] = access{m.fset.Position(id.Pos()), fi.obj}
					}
				}
			}
			return true
		})
	}

	var out []finding
	emit := func(v *types.Var, writes []site, rd access, what string) {
		sort.Slice(writes, func(i, j int) bool { return writes[i].pos < writes[j].pos })
		w := writes[0]
		out = append(out, finding{
			pos:  m.fset.Position(w.pos),
			rule: "sharedstate",
			msg: fmt.Sprintf("%s %s is written from engine-callback context (%s) and accessed outside it by %s (%s:%d) without synchronization; "+
				"shared state blocks the parallel engine — confine it to the callback side or guard it",
				what, v.Name(), w.desc, funcDisplayName(rd.fn), shortFile(rd.pos.Filename), rd.pos.Line),
		})
	}
	vars := make([]*types.Var, 0, len(globalWrites))
	for v := range globalWrites {
		if _, ok := globalReads[v]; ok {
			vars = append(vars, v)
		}
	}
	sortVars(vars)
	for _, v := range vars {
		emit(v, globalWrites[v], globalReads[v], "package-level variable")
	}
	vars = vars[:0]
	for v := range fieldWrites {
		if _, ok := fieldReads[v]; ok {
			vars = append(vars, v)
		}
	}
	sortVars(vars)
	for _, v := range vars {
		emit(v, fieldWrites[v], fieldReads[v], "field")
	}
	return out
}

func sortVars(vars []*types.Var) {
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
}

func before(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Offset < b.Offset
}

// ctxSet is the engine-callback reachability closure.
type ctxSet struct {
	funcs map[*types.Func]string // reachable function → root description
	lits  []callbackRoot         // literal roots (their bodies are context too)
}

// callbackContext closes the callback roots over the static call graph.
func callbackContext(m *module) *ctxSet {
	ctx := &ctxSet{funcs: map[*types.Func]string{}}
	var queue []*types.Func
	add := func(fn *types.Func, desc string) {
		if _, ok := ctx.funcs[fn]; ok {
			return
		}
		ctx.funcs[fn] = desc
		queue = append(queue, fn)
	}
	for _, r := range m.callbackRoots {
		if r.par {
			continue // par jobs are scanned shallowly by runSharedstate, not closed over
		}
		if r.fn != nil {
			add(r.fn, r.desc)
			continue
		}
		ctx.lits = append(ctx.lits, r)
		// Calls inside the literal enter callback context too.
		info := r.pkg.Info
		ast.Inspect(r.lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if callee := m.staticCallee(info, call); callee != nil {
					add(callee, r.desc)
				}
			}
			return true
		})
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fi := m.funcs[fn]
		if fi == nil {
			continue
		}
		desc := ctx.funcs[fn]
		for _, cs := range fi.callees {
			add(cs.callee, desc)
		}
		// Interface-dispatched calls (graph environments, elements) stay in
		// callback context too.
		for _, callee := range fi.ifaceCallees {
			add(callee, desc)
		}
	}
	return ctx
}

// writtenVar resolves the variable (local, global or field) an lvalue writes
// to, looking through parens and indexing.
func writtenVar(info *types.Info, lhs ast.Expr) types.Object {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		return obj
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v
		}
	case *ast.IndexExpr:
		return writtenVar(info, x.X)
	case *ast.StarExpr:
		return writtenVar(info, x.X)
	}
	return nil
}

// writesLocalValue reports whether a field-write lvalue goes through a local
// variable of value (non-pointer) type — a write to a stack copy, which is
// not shared state (dst.Lo |= x on a local struct value).
func writesLocalValue(info *types.Info, lhs ast.Expr) bool {
	x := ast.Unparen(lhs)
	for {
		switch cur := x.(type) {
		case *ast.SelectorExpr:
			x = ast.Unparen(cur.X)
		case *ast.IndexExpr:
			x = ast.Unparen(cur.X)
		case *ast.Ident:
			obj := info.Uses[cur]
			if obj == nil {
				obj = info.Defs[cur]
			}
			v, ok := obj.(*types.Var)
			if !ok || !isLocalVar(v) {
				return false
			}
			_, isPtr := v.Type().Underlying().(*types.Pointer)
			return !isPtr
		default:
			return false
		}
		// A pointer anywhere on the path means the write lands on the pointee.
		if t := info.TypeOf(x); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				return false
			}
			if _, isSlice := t.Underlying().(*types.Slice); isSlice {
				return false
			}
		}
	}
}

// isSlotWrite reports whether lhs writes the par job's own slot: an index
// expression whose index is the job's slot parameter (results[slot] = v), or,
// for a device-executor job whose slot is its receiver, a field reached from
// the receiver through no pointer, slice or map (j.out = v, j.sums[i] = v).
// The runner gives each job a distinct slot and an executor job owns its
// receiver until it is joined, so these writes are the sanctioned result
// channels.
func isSlotWrite(info *types.Info, lhs ast.Expr, slot *types.Var) bool {
	if slot == nil {
		return false
	}
	isSlot := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := info.Uses[id].(*types.Var)
		return ok && v.Origin() == slot.Origin()
	}
	x := ast.Unparen(lhs)
	if ix, ok := x.(*ast.IndexExpr); ok && isSlot(ix.Index) {
		return true
	}
	for {
		switch cur := x.(type) {
		case *ast.SelectorExpr:
			x = ast.Unparen(cur.X)
		case *ast.IndexExpr:
			x = ast.Unparen(cur.X)
		default:
			return false
		}
		if _, ok := x.(*ast.Ident); ok {
			return isSlot(x)
		}
		switch info.TypeOf(x).Underlying().(type) {
		case *types.Pointer, *types.Slice, *types.Map:
			return false // the write lands in storage the slot only points at
		}
	}
}

// firstParamOf resolves a named par job's slot parameter from its signature.
func firstParamOf(fi *funcInfo) *types.Var {
	sig, ok := fi.obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return nil
	}
	return sig.Params().At(0)
}

// usesLock reports whether a body takes a sync.Mutex / sync.RWMutex lock.
func usesLock(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := info.Selections[sel]
		for _, typ := range [2]string{"Mutex", "RWMutex"} {
			for _, meth := range [2]string{"Lock", "RLock"} {
				if isMethodOn(s, "sync", typ, meth) {
					found = true
				}
			}
		}
		return true
	})
	return found
}
