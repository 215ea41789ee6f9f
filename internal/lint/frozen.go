package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// Frozen mechanizes the ModelSet immutability contract behind the
// compiled-model cache: a *core.ModelSet is frozen once it is loaded,
// validated or lowered (core.Load, Validate, Generate, NewSource all
// compile it) — the compiled form is cached under a sync.Once, so any
// later mutation of the declarative model silently diverges from what
// the engine actually runs.
//
// The analyzer flags writes whose target is reachable from shared
// model storage: a dereference or field selection through a pointer to
// a model type, an element of a slice of model structs, a slot of a
// map holding model structs, or an element of a slice/map field read
// off a model struct (value copies share the backing array). Model
// types are ModelSet and every exported struct type in internal/core
// reachable from it through exported fields — DeviceModel, HourModel,
// ClusterModel, and the rest of the declarative family.
//
// The construction surface is whitelisted: internal/core's fit.go,
// fitstream.go, partialfit.go, model.go and modelload.go (fitting and
// the JSON codec build the model before anyone can generate from it)
// and all of
// internal/fiveg
// (its adapters clone via an encode/decode round-trip and mutate the
// copy's devices under a fresh ModelSet, since Load compiled the one it
// returned — the idiom this analyzer exists to enforce). Elsewhere,
// code that builds fresh model values is exempted structurally: a
// write is fine when its root is a local initialized by a composite
// literal, &composite, new, make, or a zero-value declaration, since a
// fresh value cannot be the one the engine compiled. A justified
// exception carries //cplint:partial-ok <reason> on the write.
var Frozen = &Analyzer{
	Name: "frozen",
	Doc:  "flags writes to core.ModelSet-reachable state outside the construction surface",
	Run:  runFrozen,
}

// frozenWhitelistFiles are the internal/core files that constitute the
// model construction surface.
var frozenWhitelistFiles = map[string]bool{
	"fit.go":        true,
	"fitstream.go":  true,
	"partialfit.go": true,
	"model.go":      true,
	"modelload.go":  true,
}

func runFrozen(pass *Pass) error {
	if pathHasSuffix(pass.Pkg.Path, "internal/fiveg") {
		return nil // clone-then-mutate adapters: the sanctioned mutation idiom
	}
	core := corePackage(pass.Pkg)
	if core == nil {
		return nil
	}
	frozen := frozenTypes(core)
	if len(frozen) == 0 {
		return nil
	}
	inCore := pathHasSuffix(pass.Pkg.Path, "internal/core")
	for _, f := range pass.Pkg.Files {
		if inCore && frozenWhitelistFiles[filepath.Base(pass.Fset.Position(f.Package).Filename)] {
			continue
		}
		checkFrozenFile(pass, f, frozen)
	}
	return nil
}

// corePackage finds the internal/core type-checker package: the pass
// package itself, or one of its direct imports. A package that does
// not import core cannot name its types in an assignment target.
func corePackage(pkg *Package) *types.Package {
	if pkg.Types == nil {
		return nil
	}
	if pathHasSuffix(pkg.Path, "internal/core") {
		return pkg.Types
	}
	for _, imp := range pkg.Types.Imports() {
		if pathHasSuffix(imp.Path(), "internal/core") {
			return imp
		}
	}
	return nil
}

// frozenTypes computes the model family: ModelSet plus every struct
// type in core reachable from it through exported fields, unwrapping
// pointers, slices, arrays, and map values. The unexported
// compiledModel cache is unreachable through exported fields and so
// stays out of the set — writes to it belong to the (whitelisted)
// lowering code anyway.
func frozenTypes(core *types.Package) map[*types.TypeName]bool {
	root, ok := core.Scope().Lookup("ModelSet").(*types.TypeName)
	if !ok {
		return nil
	}
	set := map[*types.TypeName]bool{root: true}
	work := []*types.TypeName{root}
	for len(work) > 0 {
		tn := work[0]
		work = work[1:]
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if !fld.Exported() {
				continue
			}
			if next := namedStructIn(fld.Type(), core); next != nil && !set[next] {
				set[next] = true
				work = append(work, next)
			}
		}
	}
	return set
}

// namedStructIn unwraps t (through pointers, slices, arrays, and map
// values) to a named struct type declared in pkg, or nil.
func namedStructIn(t types.Type, pkg *types.Package) *types.TypeName {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Map:
			t = u.Elem()
		case *types.Named:
			obj := u.Obj()
			if obj.Pkg() == pkg {
				if _, isStruct := u.Underlying().(*types.Struct); isStruct {
					return obj
				}
			}
			return nil
		default:
			return nil
		}
	}
}

func checkFrozenFile(pass *Pass, f *ast.File, frozen map[*types.TypeName]bool) {
	info := pass.Pkg.Info
	fresh := freshRoots(info, f)
	check := func(pos token.Pos, lhs ast.Expr) {
		root, via := sharedModelWrite(info, lhs, frozen)
		if via == "" {
			return
		}
		if root != nil && fresh[root] {
			return // freshly built value, not yet anyone's compiled model
		}
		if d := directiveAt(pass.Pkg, DirPartialOK, pos); d != nil {
			return
		}
		pass.Reportf(pos,
			"write to %s mutates %s state reachable from core.ModelSet, which is frozen once generation compiles it (the cached compiled model would go stale); build a fresh model or clone first (encode/decode round-trip, as internal/fiveg does), or annotate //cplint:partial-ok <reason>",
			types.ExprString(lhs), via)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !isBlank(lhs) {
					check(n.Pos(), lhs)
				}
			}
		case *ast.IncDecStmt:
			check(n.Pos(), n.X)
		}
		return true
	})
}

// sharedModelWrite walks an assignment target from the outside in and
// reports whether the access path passes through shared model storage,
// returning the root object (for the fresh-value exemption) and the
// name of the model type whose storage is written ("" when the write
// is private). Shared steps are:
//
//   - dereference of, or field selection through, a pointer to a
//     model struct (the pointee is the shared model);
//   - indexing a slice, array, or map whose elements are model
//     structs (the backing store is shared regardless of how the
//     header was copied);
//   - indexing a slice or map read off a model struct — even a value
//     copy of the struct shares the reference-typed field's backing
//     store.
func sharedModelWrite(info *types.Info, lhs ast.Expr, frozen map[*types.TypeName]bool) (types.Object, string) {
	via := ""
	mark := func(t types.Type) {
		if via == "" {
			if tn := frozenNamed(t, frozen); tn != nil {
				via = tn.Name()
			}
		}
	}
	for {
		switch e := lhs.(type) {
		case *ast.Ident:
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			return obj, via
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.StarExpr:
			if pt, ok := info.TypeOf(e.X).(*types.Pointer); ok {
				mark(pt.Elem())
			}
			lhs = e.X
		case *ast.SelectorExpr:
			if pt, ok := info.TypeOf(e.X).(*types.Pointer); ok {
				mark(pt.Elem())
			}
			lhs = e.X
		case *ast.IndexExpr:
			switch xt := info.TypeOf(e.X).(type) {
			case *types.Slice:
				mark(xt.Elem())
			case *types.Array:
				mark(xt.Elem())
			case *types.Map:
				mark(xt.Elem())
			}
			// A slice/map field read off a model struct shares its
			// backing store even when the struct itself was copied.
			if sel, ok := e.X.(*ast.SelectorExpr); ok {
				mark(info.TypeOf(sel.X))
			}
			lhs = e.X
		default:
			return nil, via
		}
	}
}

// frozenNamed resolves t (through one level of pointer) to a frozen
// model type name, or nil.
func frozenNamed(t types.Type, frozen map[*types.TypeName]bool) *types.TypeName {
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if frozen[named.Obj()] {
		return named.Obj()
	}
	return nil
}

// freshRoots collects local variables initialized with storage that
// cannot alias an existing model: composite literals (and their
// addresses), new, make, or a zero-value declaration. Writes rooted in
// them are construction, not mutation.
func freshRoots(info *types.Info, f *ast.File) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	markIfFresh := func(id *ast.Ident, rhs ast.Expr) {
		obj := info.Defs[id]
		if obj == nil {
			return
		}
		switch r := rhs.(type) {
		case nil:
			fresh[obj] = true // var x T — zero value
		case *ast.CompositeLit:
			fresh[obj] = true
		case *ast.UnaryExpr:
			if r.Op == token.AND {
				if _, ok := r.X.(*ast.CompositeLit); ok {
					fresh[obj] = true
				}
			}
		case *ast.CallExpr:
			if fn, ok := r.Fun.(*ast.Ident); ok {
				if b, ok := info.Uses[fn].(*types.Builtin); ok && (b.Name() == "new" || b.Name() == "make") {
					fresh[obj] = true
				}
			}
		case *ast.Ident:
			if r.Name == "nil" {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					markIfFresh(id, n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				var rhs ast.Expr
				if i < len(n.Values) {
					rhs = n.Values[i]
				}
				markIfFresh(id, rhs)
			}
		}
		return true
	})
	return fresh
}
