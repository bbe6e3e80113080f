package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotallocAnalyzer is the static complement of the testing.AllocsPerRun
// gates: functions annotated with //nba:hotpath in their doc comment must not
// contain allocation constructs. The dynamic gates cover three call sites;
// the annotation covers every hot function — simtime event-heap operations,
// the worker RX loop, batch recycling — including ones with no benchmark.
//
// Flagged constructs, each a reliable heap allocation when it executes:
//
//   - &T{...} composite literals and new(T)
//   - make(slice/map/chan)
//   - append whose destination is a struct field or package-level variable
//     (growth amortizes but still allocates; annotate an allow if amortized
//     growth is the design)
//   - capturing function literals that are stored, returned or sent (a
//     literal only passed as a call argument usually stays on the stack)
//   - method values (x.M used as a value always allocates a closure)
//   - string <-> []byte conversions
//   - non-pointer values passed to interface parameters (boxing)
//   - calls to the standard-library constructors in allocatingConstructors:
//     the rule reads one function body and does not follow calls, so an
//     object built per call behind a stdlib name is otherwise invisible
//
// Arguments of panic() are exempt: building the panic message allocates but
// the path is already failing.
var hotallocAnalyzer = &modAnalyzer{
	name: "hotalloc",
	doc:  "forbid allocation constructs in //nba:hotpath-annotated functions",
	run:  runHotalloc,
}

// allocatingConstructors are the standard-library constructors the data
// path has a reason to call — the crypto contexts of the IPsec gateway —
// each of which returns a fresh heap object per call. They belong in set-up
// code; a hot function reuses what they returned.
var allocatingConstructors = map[string]bool{
	"crypto/aes.NewCipher": true,
	"crypto/cipher.NewCTR": true,
	"crypto/hmac.New":      true,
	"crypto/sha1.New":      true,
}

func runHotalloc(m *module) []finding {
	var out []finding
	report := func(pos token.Pos, msg string) {
		out = append(out, finding{pos: m.fset.Position(pos), rule: "hotalloc", msg: msg})
	}
	for _, fi := range m.order {
		if !fi.hotpath || fi.decl.Body == nil {
			continue
		}
		checkHotalloc(m, fi, report)
	}
	return out
}

func checkHotalloc(m *module, fi *funcInfo, report func(pos token.Pos, msg string)) {
	info := fi.pkg.Info
	body := fi.decl.Body

	// Panic arguments are exempt (failing path); collect their spans first.
	type span struct{ lo, hi token.Pos }
	var panicSpans []span
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				for _, a := range call.Args {
					panicSpans = append(panicSpans, span{a.Pos(), a.End()})
				}
			}
		}
		return true
	})
	exempt := func(pos token.Pos) bool {
		for _, s := range panicSpans {
			if s.lo <= pos && pos < s.hi {
				return true
			}
		}
		return false
	}

	// Function literals passed directly as call arguments usually stay on the
	// stack; collect them so only stored/returned/sent literals are flagged.
	// Callee expressions are collected too, to tell method values (flagged)
	// from method calls (fine).
	argLits := map[*ast.FuncLit]bool{}
	calleeExprs := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		calleeExprs[ast.Unparen(call.Fun)] = true
		for _, a := range call.Args {
			if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
				argLits[lit] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND && !exempt(n.Pos()) {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal allocates on a //nba:hotpath function; reuse a pooled or preallocated value")
				}
			}
		case *ast.CallExpr:
			checkHotallocCall(info, n, exempt, report)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) || exempt(rhs.Pos()) {
					continue
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
						if kind := escapeKind(info, n.Lhs[i]); kind != "" {
							report(rhs.Pos(), "append into a "+kind+" may grow on a //nba:hotpath function; preallocate or pool the backing array")
						}
					}
				}
			}
		case *ast.FuncLit:
			if !argLits[n] && capturesOuter(info, n) && !exempt(n.Pos()) {
				report(n.Pos(), "capturing function literal escapes (stored, returned or sent) on a //nba:hotpath function; hoist it to a field set once")
			}
		case *ast.SelectorExpr:
			if calleeExprs[n] || exempt(n.Pos()) {
				return true
			}
			if s, ok := info.Selections[n]; ok && s.Kind() == types.MethodVal {
				report(n.Pos(), "method value "+n.Sel.Name+" allocates a closure on a //nba:hotpath function; hoist it to a func field set once")
			}
		}
		return true
	})
}

// checkHotallocCall flags allocation-shaped calls: make, new, string<->[]byte
// conversions, and interface boxing of non-pointer arguments.
func checkHotallocCall(info *types.Info, call *ast.CallExpr, exempt func(token.Pos) bool, report func(pos token.Pos, msg string)) {
	if exempt(call.Pos()) {
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates on a //nba:hotpath function; preallocate in the constructor")
			case "new":
				report(call.Pos(), "new allocates on a //nba:hotpath function; reuse a pooled or preallocated value")
			}
			return
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
			allocatingConstructors[fn.Pkg().Path()+"."+fn.Name()] {
			report(call.Pos(), "allocating constructor call "+fn.Pkg().Path()+"."+fn.Name()+" on a //nba:hotpath function; build the object once and reuse it")
		}
	}
	// Conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := info.TypeOf(call.Args[0])
		if src != nil {
			if isByteSlice(dst) && isString(src.Underlying()) {
				report(call.Pos(), "[]byte(string) conversion copies on a //nba:hotpath function; keep data as []byte end to end")
			}
			if isString(dst) && isByteSlice(src.Underlying()) {
				report(call.Pos(), "string([]byte) conversion copies on a //nba:hotpath function; keep data as []byte end to end")
			}
		}
		return
	}
	// Interface boxing of non-pointer arguments.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < sig.Params().Len()-1 || (!sig.Variadic() && i < sig.Params().Len()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic() && call.Ellipsis == token.NoPos:
			if s, ok := sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil {
			continue
		}
		switch u := at.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
			continue // pointer-shaped: no boxing allocation
		case *types.Basic:
			if u.Kind() == types.UntypedNil {
				continue
			}
		}
		if exempt(arg.Pos()) {
			continue
		}
		report(arg.Pos(), "non-pointer value boxed into an interface parameter allocates on a //nba:hotpath function")
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// capturesOuter reports whether a function literal references variables
// declared outside its own body (a capturing closure).
func capturesOuter(info *types.Info, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captures {
			return !captures
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level: no capture needed
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captures = true
		}
		return true
	})
	return captures
}
