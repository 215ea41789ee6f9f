package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// This file is the interprocedural substrate of the call-graph-backed
// analyzer, retain: a deterministic, module-local call graph over the
// packages the loader already type-checked, with class-hierarchy
// analysis (CHA) for interface dispatch and flow-insensitive,
// bitmask-based escape summaries per function.
//
// Everything here is computed once, serially, before the per-package
// analyzer fan-out (see AnalyzeWorkers), so the result — and therefore
// the diagnostics built on it — cannot depend on the worker count.
// Passes only read the graph; the one lazily-filled cache (CHA
// implementer lists) is mutex-guarded and its contents are a pure
// function of the type information, so late fills cannot change any
// answer.

// A Graph is the call-graph + dataflow substrate over one analysis run.
type Graph struct {
	pkgs  []*Package // analyzed packages plus transitive non-stdlib deps, sorted by path
	funcs map[*types.Func]*GraphFunc
	order []*GraphFunc // deterministic: package path, then file, then declaration order

	// reused holds the types annotated //cplint:reused: the
	// buffer-reuse contract types whose values retain tracks.
	reused map[*types.TypeName]*Directive

	// named lists every non-interface named type in the closure, in
	// deterministic order — the CHA candidate set.
	named []*types.Named

	inClosure map[*types.Package]bool

	mu  sync.Mutex
	cha map[*types.Func][]*GraphFunc // guarded by mu
}

// A GraphFunc is one function or method declaration in the graph.
type GraphFunc struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	sum retSummary
}

// retSummary is one function's escape summary in terms of its
// receiver-first parameter list: bit i stands for parameter i (capped
// at 64; spill parameters simply go untracked).
type retSummary struct {
	escapes uint64         // parameter bits that flow somewhere outliving every frame
	toRet   uint64         // parameter bits that flow into the return values
	into    map[int]uint64 // into[j]: parameter bits stored into the object parameter j points to
	note    map[int]string // per escaping bit: what happened, for call-site diagnostics
}

func (s retSummary) equal(o retSummary) bool {
	if s.escapes != o.escapes || s.toRet != o.toRet || len(s.into) != len(o.into) {
		return false
	}
	for k, v := range s.into {
		if o.into[k] != v {
			return false
		}
	}
	return true
}

// buildGraph constructs the substrate: closure, function index, reused
// types and escape summaries (to a global fixpoint). It also claims the
// reused directives so hygiene validation knows they are attached.
func buildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		funcs:     make(map[*types.Func]*GraphFunc),
		reused:    make(map[*types.TypeName]*Directive),
		inClosure: make(map[*types.Package]bool),
		cha:       make(map[*types.Func][]*GraphFunc),
	}

	// Closure: the analyzed packages plus every transitive non-stdlib
	// dependency, so fixture stubs and cross-package helpers have
	// bodies in the graph even when only one package is analyzed.
	seen := make(map[string]*Package)
	var grow func(p *Package)
	grow = func(p *Package) {
		if p == nil || p.std || seen[p.Path] != nil {
			return
		}
		seen[p.Path] = p
		for _, d := range p.deps {
			grow(d)
		}
	}
	for _, p := range pkgs {
		grow(p)
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		g.pkgs = append(g.pkgs, seen[p])
		if tp := seen[p].Types; tp != nil {
			g.inClosure[tp] = true
		}
	}

	for _, pkg := range g.pkgs {
		g.indexPackage(pkg)
	}
	g.fixpointSummaries()
	return g
}

// indexPackage registers the package's function declarations and
// reused-type markers, claiming the reused directives.
func (g *Graph) indexPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj, _ := pkg.Info.Defs[d.Name].(*types.Func)
				if obj == nil || d.Body == nil {
					continue
				}
				gf := &GraphFunc{Obj: obj, Decl: d, Pkg: pkg}
				g.funcs[obj] = gf
				g.order = append(g.order, gf)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					dir := claimDoc(pkg, DirReused, doc, ts.Pos())
					if dir == nil {
						continue
					}
					if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						g.reused[tn] = dir
					}
				}
			}
		}
	}
	// CHA candidates: every named non-interface type in the package
	// scope, in name order.
	if pkg.Types == nil {
		return
	}
	scope := pkg.Types.Scope()
	names := scope.Names()
	sort.Strings(names)
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		g.named = append(g.named, named)
	}
}

// resolvedCall is one call site's resolution: the possible callees in
// the graph and, for method-value calls, the receiver expression
// (which occupies parameter slot 0 of the callee).
type resolvedCall struct {
	callees []*GraphFunc
	recv    ast.Expr
}

// resolve maps a call expression to its possible graph callees: one
// for a static call, the CHA implementer set for a call through a
// module-local interface, none for dynamic calls (func values),
// builtins, conversions, and out-of-closure targets.
func (g *Graph) resolve(pkg *Package, call *ast.CallExpr) resolvedCall {
	info := pkg.Info
	switch fun := unparenExpr(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			if gf := g.funcs[f]; gf != nil {
				return resolvedCall{callees: []*GraphFunc{gf}}
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return resolvedCall{}
			}
			switch sel.Kind() {
			case types.MethodVal:
				if types.IsInterface(sel.Recv()) {
					return resolvedCall{callees: g.implementers(m), recv: fun.X}
				}
				if gf := g.funcs[m]; gf != nil {
					return resolvedCall{callees: []*GraphFunc{gf}, recv: fun.X}
				}
			case types.MethodExpr:
				// T.m used as a function: the receiver is args[0].
				if gf := g.funcs[m]; gf != nil {
					return resolvedCall{callees: []*GraphFunc{gf}}
				}
			}
			return resolvedCall{}
		}
		// Qualified identifier pkg.F.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if gf := g.funcs[f]; gf != nil {
				return resolvedCall{callees: []*GraphFunc{gf}}
			}
		}
	}
	return resolvedCall{}
}

// implementers returns the graph functions implementing an interface
// method, found by CHA over the closure's named types. Only
// module-local interfaces resolve (EventSource, BatchSink,
// EventSink, ...); stdlib interfaces yield nothing. The cache is a
// pure function of type information, so lazy fills are
// order-independent.
func (g *Graph) implementers(m *types.Func) []*GraphFunc {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r, ok := g.cha[m]; ok {
		return r
	}
	var out []*GraphFunc
	if m.Pkg() != nil && g.inClosure[m.Pkg()] {
		sig, _ := m.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			if iface, ok := sig.Recv().Type().Underlying().(*types.Interface); ok {
				for _, named := range g.named {
					ptr := types.NewPointer(named)
					if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
						continue
					}
					obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), m.Name())
					if f, ok := obj.(*types.Func); ok {
						if gf := g.funcs[f]; gf != nil {
							out = append(out, gf)
						}
					}
				}
			}
		}
	}
	g.cha[m] = out
	return out
}

// fixpointSummaries computes every function's escape summary to a
// global fixpoint: summaries only grow, functions are processed in
// deterministic order, so the result is unique.
func (g *Graph) fixpointSummaries() {
	for round := 0; round < 32; round++ {
		changed := false
		for _, fn := range g.order {
			s := g.summarize(fn)
			if !s.equal(fn.sum) {
				fn.sum = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// summarize runs the taint walk over one function body in summary mode.
func (g *Graph) summarize(fn *GraphFunc) retSummary {
	sig, _ := fn.Obj.Type().(*types.Signature)
	if sig == nil {
		return retSummary{}
	}
	t := newTaint(g, fn.Pkg, fn.Decl, fn.Decl.Body, sig)
	t.run()
	return t.sum
}

// displayName renders a function for diagnostics: Name or Type.Method.
func (f *GraphFunc) displayName() string {
	sig, _ := f.Obj.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + f.Obj.Name()
		}
	}
	return f.Obj.Name()
}

func unparenExpr(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// ---- type predicates ----

// isReusedType reports whether t (or its pointee) is a //cplint:reused
// type.
func (g *Graph) isReusedType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		_, ok := g.reused[n.Obj()]
		return ok
	}
	return false
}

// hasReusedParam reports whether the signature takes a reused-type
// parameter (receiver included): the definition of a retain frame.
func (g *Graph) hasReusedParam(sig *types.Signature) bool {
	for _, p := range paramVars(sig) {
		if g.isReusedType(p.Type()) {
			return true
		}
	}
	return false
}

// paramVars returns the receiver-first full parameter list.
func paramVars(sig *types.Signature) []*types.Var {
	var out []*types.Var
	if r := sig.Recv(); r != nil {
		out = append(out, r)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// pointerful reports whether values of t can carry references —
// whether an assignment of t aliases rather than copies underlying
// storage. Strings are immutable and count as value-like.
func pointerful(t types.Type) bool {
	return pointerfulDepth(t, 0)
}

func pointerfulDepth(t types.Type, d int) bool {
	if t == nil {
		return false
	}
	if d > 8 {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if pointerfulDepth(u.Field(i).Type(), d+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return pointerfulDepth(u.Elem(), d+1)
	case *types.Tuple:
		for i := 0; i < u.Len(); i++ {
			if pointerfulDepth(u.At(i).Type(), d+1) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// elemType returns the element type delivered by ranging/indexing t.
func elemType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Pointer:
		return elemType(u.Elem())
	case *types.Map:
		return u.Elem()
	case *types.Chan:
		return u.Elem()
	case *types.Basic:
		return nil // string: bytes are value-like
	}
	return nil
}
