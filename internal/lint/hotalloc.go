package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc checks functions annotated //cplint:hotpath for constructs
// that allocate on the heap or box values into interfaces. The runtime
// AllocsPerRun gates catch a regression after the fact; this analyzer
// names the exact expression that allocates, at compile time:
//
//   - any use of package fmt (formatting boxes every operand and
//     builds strings; hot paths use strconv.Append* into reused
//     buffers);
//   - string concatenation inside a loop (each + builds a new string);
//   - make/new (every call is a fresh allocation; hot paths reuse
//     buffers owned by the receiver);
//   - func literals that capture variables (the closure environment is
//     heap-allocated);
//   - append to a slice freshly declared in the function (growing a
//     throwaway slice; hot paths append to reused receiver-owned
//     buffers or to slices reset with buf[:0]);
//   - passing a concrete value to an interface parameter (the value is
//     boxed, and escapes unless inlining saves it).
//
// The check runs in every package — it fires only inside annotated
// functions, so there is nothing to gate.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flags heap allocation and interface boxing inside //cplint:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if d := claimDoc(pass.Pkg, DirHotPath, fd.Doc, fd.Pos()); d == nil {
				continue
			}
			if fd.Body == nil {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

// checkHotFunc runs the allocation checks over one annotated body.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	fresh := freshSlices(info, fd)

	var walk func(n ast.Node, inLoop bool)
	inspect := func(n ast.Node, inLoop bool) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			for _, c := range childNodes(n) {
				walk(c, true)
			}
			return false
		case *ast.FuncLit:
			reportCaptures(pass, fd, n)
			// Still check the literal's body: it runs on the hot path.
			walk(n.Body, inLoop)
			return false
		case *ast.BinaryExpr:
			if n.Op == token.ADD && inLoop && isString(info.TypeOf(n)) {
				pass.Reportf(n.OpPos, "string concatenation %s allocates on every loop iteration; use strconv.Append*/byte-slice building", types.ExprString(n))
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && inLoop && len(n.Lhs) == 1 && isString(info.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.TokPos, "string += %s allocates on every loop iteration", types.ExprString(n.Rhs[0]))
			}
		case *ast.CallExpr:
			checkHotCall(pass, n, fresh)
		}
		return true
	}
	walk = func(n ast.Node, inLoop bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == nil {
				return false
			}
			return inspect(m, inLoop)
		})
	}
	walk(fd.Body, false)
}

// childNodes lists the direct AST children worth descending into for a
// loop statement (init/cond/post plus body).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	switch n := n.(type) {
	case *ast.ForStmt:
		for _, c := range []ast.Node{n.Init, n.Cond, n.Post, n.Body} {
			if c != nil && !isNilNode(c) {
				out = append(out, c)
			}
		}
	case *ast.RangeStmt:
		if n.X != nil {
			out = append(out, n.X)
		}
		out = append(out, n.Body)
	}
	return out
}

func isNilNode(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.BlockStmt:
		return v == nil
	case ast.Expr:
		return v == nil
	case ast.Stmt:
		return v == nil
	}
	return n == nil
}

// checkHotCall flags fmt usage, make/new, appends to throwaway slices,
// and interface boxing at call boundaries.
func checkHotCall(pass *Pass, call *ast.CallExpr, fresh map[types.Object]bool) {
	info := pass.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		reportBoxingConversion(pass, call)
		return
	}
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fn].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "%s allocates; hot paths reuse receiver-owned buffers", types.ExprString(call))
			case "new":
				pass.Reportf(call.Pos(), "%s allocates; hot paths reuse receiver-owned state", types.ExprString(call))
			case "append":
				if len(call.Args) > 0 {
					if root := exprRootObj(info, call.Args[0]); root != nil && fresh[root] {
						pass.Reportf(call.Pos(), "append grows %s, a slice freshly allocated in this function; append into a reused buffer (field or buf[:0])", root.Name())
					}
					if _, isLit := call.Args[0].(*ast.CompositeLit); isLit {
						pass.Reportf(call.Pos(), "append to a composite literal allocates a throwaway slice")
					}
				}
			}
			return
		}
	case *ast.SelectorExpr:
		if obj, ok := info.Uses[fn.Sel].(*types.Func); ok && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			pass.Reportf(call.Pos(), "fmt.%s allocates (boxes operands, builds strings); use strconv.Append* into a reused buffer", obj.Name())
			return
		}
	}
	reportInterfaceArgs(pass, call)
}

// reportBoxingConversion flags explicit conversions to interface types.
func reportBoxingConversion(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	t := info.TypeOf(call)
	if t == nil || len(call.Args) != 1 {
		return
	}
	if !types.IsInterface(t) {
		return
	}
	at := info.TypeOf(call.Args[0])
	if at == nil || types.IsInterface(at) || isUntypedNil(info, call.Args[0]) {
		return
	}
	pass.Reportf(call.Pos(), "conversion %s boxes a concrete value into an interface", types.ExprString(call))
}

// reportInterfaceArgs flags concrete values passed to interface
// parameters (boxing at the call boundary).
func reportInterfaceArgs(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			st, ok := sig.Params().At(np - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || isUntypedNil(info, arg) {
			continue
		}
		// Passing a pointer into an interface does not copy the
		// pointee, but the interface header may still escape; flag
		// only non-pointer concrete values, the unambiguous boxing.
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue
		}
		pass.Reportf(arg.Pos(), "argument %s is boxed into interface %s", types.ExprString(arg), pt.String())
	}
}

// reportCaptures flags variables a func literal captures from the
// enclosing function; the captured environment is heap-allocated, and
// capturing a loop variable additionally pins one environment per
// iteration.
func reportCaptures(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) {
	info := pass.Pkg.Info
	seen := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := info.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		// Captured iff declared in the enclosing function but outside
		// the literal. Package-level vars do not enlarge the closure
		// environment.
		if obj.Pos() >= fd.Pos() && obj.Pos() < fd.End() &&
			!(obj.Pos() >= lit.Pos() && obj.Pos() < lit.End()) {
			seen[obj] = true
			pass.Reportf(id.Pos(), "closure captures %s, forcing a heap-allocated environment; pass it as a parameter or restructure without a closure", obj.Name())
		}
		return true
	})
}

// freshSlices collects slice-typed locals whose declaration allocates
// (or starts empty) in this function: `var s []T`, `s := []T{...}`,
// `s := make([]T, ...)`. Appending to these grows throwaway storage.
// Slices derived from parameters, receiver fields, or reslicing
// (buf[:0]) are reused storage and not collected.
func freshSlices(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	mark := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		if _, ok := obj.Type().Underlying().(*types.Slice); !ok {
			return
		}
		switch r := rhs.(type) {
		case nil:
			fresh[obj] = true // var s []T
		case *ast.CompositeLit:
			fresh[obj] = true
		case *ast.CallExpr:
			if fn, ok := r.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[fn].(*types.Builtin); ok && b.Name() == "make" {
					fresh[obj] = true
				}
			}
		case *ast.Ident:
			if r.Name == "nil" {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" || i >= len(n.Rhs) {
					continue
				}
				mark(id, n.Rhs[i])
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					var rhs ast.Expr
					if i < len(vs.Values) {
						rhs = vs.Values[i]
					}
					mark(id, rhs)
				}
			}
		}
		return true
	})
	return fresh
}

// exprRootObj unwraps index/selector/paren chains to the root object.
func exprRootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				return obj
			}
			return info.Defs[v]
		case *ast.IndexExpr:
			e = v.X
		case *ast.SelectorExpr:
			return nil // field-based storage is receiver-owned, reused
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			return nil // buf[:0] reuse pattern
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return true
	}
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
