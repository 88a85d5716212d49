package analysis

import (
	"go/ast"
	"go/types"
)

// MapiterAnalyzer flags nondeterministic iteration: a `range` over a
// map, in a deterministic package, whose body has order-dependent
// effects.
//
// Go randomizes map iteration order per run. In this stack that is not
// a style nit — it is the exact class of bug PR 4 hand-fixed in
// kts.KeyStates: two same-seed virtual-time runs visited entries in
// different orders, emitted RPCs in different orders, and the bitwise
// determinism the plans and scale tests assert broke. An iteration is
// order-dependent when its body appends to an accumulator, performs a
// send, spawns a goroutine, or calls any non-builtin function (RPC,
// trace/metrics emission, anything with observable order).
//
// Two shapes are recognized as safe:
//
//   - the collect-then-sort idiom: a body that only appends the keys
//     (or values) into a slice that is subsequently passed to a
//     sort.*/slices.Sort* call later in the same function — or to a
//     same-package helper that visibly sorts that parameter (the
//     store.sortEntries shape);
//   - call-free commutative aggregation (counters, sums, building
//     another map), which is order-insensitive by construction.
//
// Escape hatch: // lint:unordered-ok on (or directly above) the range
// statement, with a comment saying why iteration order cannot be
// observed.
var MapiterAnalyzer = &Analyzer{
	Name: "mapiter",
	Doc: "order-dependent effects inside a range over a map\n\n" +
		"Flags map ranges in deterministic packages whose body appends,\n" +
		"sends, or calls functions, unless the keys are sorted first\n" +
		"(collect-then-sort) or the loop is tagged.\n" +
		"Escape hatch: // lint:unordered-ok",
	Run: runMapiter,
}

// sortCalls recognizes the standard-library sorting entry points that
// discharge the collect-then-sort idiom.
var sortCalls = map[string]bool{
	"sort.Strings":          true,
	"sort.Ints":             true,
	"sort.Float64s":         true,
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

// pureBuiltins never observe iteration order.
var pureBuiltins = map[string]bool{
	"len": true, "cap": true, "delete": true, "make": true, "new": true,
	"min": true, "max": true, "copy": true, "real": true, "imag": true,
	"complex": true,
}

func runMapiter(pass *Pass) error {
	for _, f := range pass.instrumentedFiles() {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				pass.checkMapRange(fd.Body, rng)
				return true
			})
		}
	}
	return nil
}

func (pass *Pass) checkMapRange(enclosing *ast.BlockStmt, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.Allowed(rng.Pos(), "lint:unordered-ok") {
		return
	}
	effect := "" // first order-dependent effect found, for the message
	var appendTargets []ast.Expr
	appendOnly := true
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if id.Name == "append" && pass.isBuiltin(id) {
					if tgt := appendAssignTarget(rng.Body, n); tgt != nil {
						appendTargets = append(appendTargets, tgt)
					} else {
						// append whose result escapes some other way:
						// treat as a plain order-dependent effect.
						appendOnly = false
						if effect == "" {
							effect = "an append"
						}
					}
					return true
				}
				if pass.isBuiltin(id) && pureBuiltins[id.Name] {
					return true
				}
			}
			if pass.isConversion(n) {
				return true
			}
			appendOnly = false
			if effect == "" {
				effect = "a call to " + types.ExprString(n.Fun)
			}
		case *ast.SendStmt:
			appendOnly = false
			if effect == "" {
				effect = "a channel send"
			}
		case *ast.GoStmt:
			appendOnly = false
			if effect == "" {
				effect = "a goroutine spawn"
			}
		}
		return true
	})
	if effect == "" && len(appendTargets) == 0 {
		return // call-free commutative body
	}
	if appendOnly && len(appendTargets) > 0 {
		allSorted := true
		for _, tgt := range appendTargets {
			if !pass.sortedAfter(enclosing, rng, tgt) {
				allSorted = false
			}
		}
		if allSorted {
			return // collect-then-sort idiom
		}
		effect = "an append to " + types.ExprString(appendTargets[0]) + " that is never sorted"
	}
	pass.Reportf(rng.Pos(),
		"nondeterministic iteration over map %s: the body has order-dependent effects (%s); sort the keys first, or tag // lint:unordered-ok with why order cannot be observed",
		types.ExprString(rng.X), effect)
}

// isBuiltin reports whether id resolves to a universe-scope builtin.
func (pass *Pass) isBuiltin(id *ast.Ident) bool {
	_, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// isConversion reports whether call is a type conversion, not a call.
func (pass *Pass) isConversion(call *ast.CallExpr) bool {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	return ok && tv.IsType()
}

// appendAssignTarget matches the statement shape `x = append(x, ...)`
// (or `x = append(y, ...)`) enclosing the given append call, returning
// the assignment target. A nil return means the append's result is not
// a simple reassignment.
func appendAssignTarget(body ast.Node, call *ast.CallExpr) ast.Expr {
	var target ast.Expr
	ast.Inspect(body, func(n ast.Node) bool {
		if target != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		if ast.Unparen(as.Rhs[0]) == call {
			target = as.Lhs[0]
			return false
		}
		return true
	})
	return target
}

// sortedAfter reports whether target is passed to a recognized sort
// call somewhere after the range statement in the enclosing function
// body.
func (pass *Pass) sortedAfter(enclosing *ast.BlockStmt, rng *ast.RangeStmt, target ast.Expr) bool {
	want := types.ExprString(target)
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		fn := pass.funcObj(call)
		if fn == nil {
			return true
		}
		if sortCalls[shortPkg(pkgPathOf(fn))+"."+fn.Name()] {
			if types.ExprString(call.Args[0]) == want {
				found = true
				return false
			}
			return true
		}
		// Same-package sort helper (the store.sortEntries shape): the
		// callee's body passes one of its own parameters to a recognized
		// sort call, and target is the argument in that position.
		if i := pass.sortedParam(fn); i >= 0 && i < len(call.Args) &&
			types.ExprString(call.Args[i]) == want {
			found = true
			return false
		}
		return true
	})
	return found
}

// sortedParam reports which parameter (by index) of the same-package
// function fn is visibly sorted by fn's body — passed as the first
// argument of a sort.*/slices.Sort* call — or -1. Results are memoized
// on the pass.
func (pass *Pass) sortedParam(fn *types.Func) int {
	if fn.Pkg() != pass.Pkg {
		return -1
	}
	if pass.sortHelpers == nil {
		pass.sortHelpers = make(map[*types.Func]int)
	}
	if i, ok := pass.sortHelpers[fn]; ok {
		return i
	}
	pass.sortHelpers[fn] = -1 // cut recursion
	decl := pass.funcDeclOf(fn)
	if decl == nil || decl.Body == nil || decl.Type.Params == nil {
		return -1
	}
	var params []*ast.Ident
	for _, field := range decl.Type.Params.List {
		params = append(params, field.Names...)
	}
	result := -1
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if result >= 0 {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		callee := pass.funcObj(call)
		if callee == nil || !sortCalls[shortPkg(pkgPathOf(callee))+"."+callee.Name()] {
			return true
		}
		arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[arg]
		for i, p := range params {
			if obj != nil && pass.TypesInfo.Defs[p] == obj {
				result = i
				return false
			}
		}
		return true
	})
	pass.sortHelpers[fn] = result
	return result
}

// funcDeclOf finds the declaration of a same-package function in the
// pass's files.
func (pass *Pass) funcDeclOf(fn *types.Func) *ast.FuncDecl {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if pass.TypesInfo.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}
