package main

import (
	"go/ast"
	"go/types"
)

const batchPkgPath = "nba/internal/batch"

// aliasflowAnalyzer flags a pooled *packet.Packet — from batch.Batch.Packet
// or a ForEachLive callback — stashed into a struct field, package-level
// variable or channel, in the function that obtained it or through any chain
// of helpers (it summarizes which parameters of every module function
// escape). The finding sits at the escape site and carries the path from the
// pool access to the store. Batches and packets are pooled: after the batch
// is Put back, Reset() clears the slots and the pointer dangles into memory
// the pool will hand to someone else — the Go analogue of use-after-free on
// DPDK mbufs. Elements that need per-flow state must copy the bytes they
// need, not retain the packet.
var aliasflowAnalyzer = &modAnalyzer{
	name: "aliasflow",
	doc:  "flag pooled *packet.Packet values escaping through helpers into fields, globals or channels",
	run:  runAliasflow,
}

var aliasflowSpec = &flowSpec{
	name:              "aliasflow",
	seedCall:          aliasflowSeedCall,
	seedFuncLitParams: aliasflowSeedForEachLive,
	sinkStore:         aliasflowSinkStore,
	sendSink:          "sent on a channel",
	typeOK:            packetCarrier,
	skipPkg:           aliasflowSkipPkg,
	reportAtSink:      true,
}

func runAliasflow(m *module) []finding {
	var out []finding
	for _, ff := range runFlow(m, aliasflowSpec) {
		out = append(out, finding{
			pos:  ff.pos,
			rule: "aliasflow",
			msg: "pooled *packet.Packet escapes into long-lived storage " +
				"(aliases memory reclaimed on Reset; copy the bytes you need); path: " +
				renderPath(ff.path),
			path: ff.path,
		})
	}
	return out
}

// aliasflowSkipPkg exempts the packages that legitimately own pooled packet
// storage: the pool itself, the batch slot arrays, the packet internals, and
// the netio RX queues that buffer packets between polls.
func aliasflowSkipPkg(path string) bool {
	return path == batchPkgPath || path == mempoolPkgPath ||
		path == packetPkgPath || path == "nba/internal/netio"
}

func aliasflowSeedCall(p *lintPackage, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if isMethodOn(p.Info.Selections[sel], batchPkgPath, "Batch", "Packet") {
		return "pooled packet from Batch.Packet"
	}
	return ""
}

func aliasflowSeedForEachLive(p *lintPackage, call *ast.CallExpr) ([]*ast.Ident, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isMethodOn(p.Info.Selections[sel], batchPkgPath, "Batch", "ForEachLive") {
		return nil, ""
	}
	if len(call.Args) != 1 {
		return nil, ""
	}
	lit, ok := call.Args[0].(*ast.FuncLit)
	if !ok || len(lit.Type.Params.List) != 2 {
		return nil, ""
	}
	return lit.Type.Params.List[1].Names, "pooled packet from Batch.ForEachLive"
}

func aliasflowSinkStore(p *lintPackage, lhs ast.Expr) string {
	return escapeKind(p.Info, lhs)
}

// escapeKind classifies an lvalue as a long-lived destination: "struct
// field" for selector stores (possibly through indexing), "package-level
// variable" for globals. Local destinations return "".
func escapeKind(info *types.Info, lhs ast.Expr) string {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
			return "struct field"
		}
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		if v, ok := obj.(*types.Var); ok {
			if pkg := v.Pkg(); pkg != nil && v.Parent() == pkg.Scope() {
				return "package-level variable"
			}
		}
	case *ast.IndexExpr:
		// Indexed stores escape if the indexed container itself does
		// (s.pkts[i] = p, globalSlice[i] = p).
		return escapeKind(info, x.X)
	}
	return ""
}

func isLocalVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if pkg := v.Pkg(); pkg != nil && v.Parent() == pkg.Scope() {
		return false
	}
	return true
}

// packetCarrier reports whether a type can carry a pooled packet reference:
// *packet.Packet itself, or a slice/array/map/channel of carriers. Structs
// are not carriers — a struct holding a packet is exactly the escape the rule
// flags, not a conduit.
func packetCarrier(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := types.Unalias(t).(type) {
	case *types.Pointer:
		n := namedOrigin(u)
		return n != nil && n.Obj().Name() == "Packet" &&
			n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == packetPkgPath
	case *types.Slice:
		return packetCarrier(u.Elem())
	case *types.Array:
		return packetCarrier(u.Elem())
	case *types.Map:
		return packetCarrier(u.Elem())
	case *types.Chan:
		return packetCarrier(u.Elem())
	case *types.Named:
		return packetCarrier(u.Underlying())
	}
	return false
}
