package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatFold flags order-sensitive floating-point reductions: compound
// assignments (`+=`, `-=`, `*=`, `/=`) on float lvalues whose
// accumulation order is not fixed — inside the body of a range over a
// map, or inside a closure passed to par.Do / par.For. Float addition
// and multiplication are not associative, so the iteration or
// scheduling order changes the last ulp of the result, which changes
// the saved model bytes: exactly the drift class the fitting
// pipeline's build() step once exhibited and now avoids by folding
// over sorted keys.
//
// A fold is exempt when its target cannot carry state across
// orderings: a variable declared inside the loop or closure, or a map
// slot addressed by the iteration key (each key owns its slot). In par
// closures, an element write whose index involves a closure-local
// variable is index-disjoint under the pool's unique-index contract
// and therefore deterministic.
//
// Deliberately order-tolerant folds are annotated
// //cplint:partial-ok <reason> on the assignment; a map-range already
// annotated //cplint:ordered-ok <reason> is also honored, since that
// annotation asserts the whole loop body is order-insensitive and
// carries its own machine-checked justification.
//
// The check runs module-wide: a float fold in a CLI drifts the
// printed summary just as surely as one in the core drifts the model.
var FloatFold = &Analyzer{
	Name: "floatfold",
	Doc:  "flags order-sensitive float reductions in map ranges and par closures",
	Run:  runFloatFold,
}

func runFloatFold(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapRangeStmt(info, n) {
					checkFoldMapRange(pass, n)
					return false // folds inside are judged against this range
				}
			case *ast.CallExpr:
				if lit := parClosureArg(info, n); lit != nil {
					checkFoldParClosure(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

func isMapRangeStmt(info *types.Info, rs *ast.RangeStmt) bool {
	t := info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// parClosureArg returns the func literal passed as the worker of a
// par.Do / par.For call, or nil.
func parClosureArg(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || !pathHasSuffix(fn.Pkg().Path(), "internal/par") {
		return nil
	}
	var arg int
	switch fn.Name() {
	case "Do":
		arg = 1 // Do(workers, fn)
	case "For":
		arg = 2 // For(n, workers, fn)
	default:
		return nil
	}
	if arg >= len(call.Args) {
		return nil
	}
	lit, _ := call.Args[arg].(*ast.FuncLit)
	return lit
}

// isFloat reports whether t's underlying type is a floating-point
// basic type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// foldToken reports whether tok is a compound assignment whose float
// result depends on evaluation order.
func foldToken(tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	}
	return false
}

func checkFoldMapRange(pass *Pass, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	// The ordered-ok annotation on the range asserts order-insensitivity
	// for the whole body, reason checked by validateDirectives; it
	// suppresses this check the same way it suppresses detmap.
	ordered := directiveAt(pass.Pkg, DirOrderedOK, rs.For) != nil

	key := rangeVarObj(info, rs.Key)
	usesKey := func(e ast.Expr) bool {
		if key == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] == key {
				found = true
			}
			return !found
		})
		return found
	}
	local := func(obj types.Object) bool {
		return obj != nil && rs.Pos() <= obj.Pos() && obj.Pos() < rs.End()
	}

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.RangeStmt); ok && inner != rs && isMapRangeStmt(info, inner) {
			checkFoldMapRange(pass, inner)
			return false // judged against the inner range's own order
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || !foldToken(as.Tok) || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		if !isFloat(info.TypeOf(lhs)) {
			return true
		}
		root, keyed := writeRoot(info, lhs, usesKey)
		if root == nil || local(root) || keyed {
			return true
		}
		if ordered {
			return true
		}
		if d := directiveAt(pass.Pkg, DirPartialOK, as.Pos()); d != nil {
			return true
		}
		pass.Reportf(as.Pos(),
			"%s %s folds a float in map iteration order; the sum's last ulp (and any bytes derived from it) depends on the order — fold over sorted keys, accumulate into a key-addressed slot, or annotate //cplint:partial-ok <reason>",
			types.ExprString(lhs), as.Tok.String())
		return true
	})
}

func checkFoldParClosure(pass *Pass, lit *ast.FuncLit) {
	info := pass.Pkg.Info
	closureLocal := func(obj types.Object) bool {
		return obj != nil && lit.Pos() <= obj.Pos() && obj.Pos() < lit.End()
	}
	// usesLocal treats any index touching a closure-local variable as
	// index-disjoint, the par pool's contract: it hands each worker a
	// unique index, so slots addressed through it are private.
	usesLocal := func(e ast.Expr) bool {
		ok := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, isID := n.(*ast.Ident); isID {
				if v, isVar := info.Uses[id].(*types.Var); isVar && closureLocal(v) {
					ok = true
				}
			}
			return !ok
		})
		return ok
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || !foldToken(as.Tok) || len(as.Lhs) != 1 {
			return true
		}
		lhs := as.Lhs[0]
		if !isFloat(info.TypeOf(lhs)) {
			return true
		}
		root, disjoint := writeRoot(info, lhs, usesLocal)
		if root == nil || closureLocal(root) || disjoint {
			return true
		}
		if d := directiveAt(pass.Pkg, DirPartialOK, as.Pos()); d != nil {
			return true
		}
		pass.Reportf(as.Pos(),
			"%s %s folds a float across par workers in scheduling order; accumulate into a slot indexed by the worker's index and reduce serially, or annotate //cplint:partial-ok <reason>",
			types.ExprString(lhs), as.Tok.String())
		return true
	})
}
