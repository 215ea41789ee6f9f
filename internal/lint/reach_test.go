package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The reach test: every package-level declaration of the module must be
// reachable from a program. The roots are each main package's main and
// init (bench/, the benchmark's own module, included), every init, and
// the exported declarations of the facade package. An exported method
// of a type the facade re-exports is not a root by itself: it is
// reached when a program calls it. The loader reads no _test.go file,
// so a symbol only tests name is unreached and fails the test: delete
// it, move it behind _test.go as a test helper, or give it a line in
// reachAllow saying why it stays.
//
// Edges are the identifiers a declaration names (go/types Uses), so a
// function value stored in a table counts as reached. A method is also
// reached when its type is reached and it implements a reached method
// of a module interface (class-hierarchy analysis) or one of the
// standard-library interfaces in stdDispatch, which the standard
// library calls on the program's behalf. The constants of a group that
// uses iota are one node: deleting one would renumber the rest.

// reachAllow lists the symbols kept although no program reaches them,
// each with its reason. They are roots, so what they call needs no line
// of its own. An entry whose symbol a program reaches, or which is
// gone, fails the test, so the list cannot outlive its reasons.
var reachAllow = map[string]string{
	"cptraffic/internal/experiments.PoissonPassRate":  "a paper-shape metric experiments_test holds (units of 40 samples, where Table 9 tests 30); the fidelity ledger (ROADMAP item 1) will record it",
	"cptraffic/internal/mcn.NFLoadSeries":             worklist,
	"cptraffic/internal/sm.MacroBreakdown":            "oracle shared by eval, world and core tests",
	"cptraffic/internal/sm.MacroSojourns":             "oracle shared by eval and sm tests",
	"cptraffic/internal/stats.CountSeries":            worklist,
	"cptraffic/internal/stats.HurstRS":                worklist,
	"cptraffic/internal/stats.RNG.Intn":               "the seeded integer draw of tests in five packages",
	"cptraffic/internal/stats.RNG.Shuffle":            "the seeded shuffle of the cluster and stats tests",
	"cptraffic/internal/stats.SketchErrorBound":       "the documented error bound of a sketched fit, which the core and stats tests hold it to",
	"cptraffic/internal/trace.KeyRun.Events":          "reads one drainUntil call's run in the engine drain tests of core and world",
	"cptraffic/internal/trace.Population.Resorted":    "the count of second sorts the core and world tests hold the real populations to zero on",
	"cptraffic/internal/trace.Trace.Append":           "builds the event-by-event trace fixtures of tests in four packages",
	"cptraffic/internal/trace.batchingSink.SetDevice": "BatchSink's method set; the adapter goes with ROADMAP item 5(d)",
}

const (
	worklist = "ROADMAP item 1(e)'s worklist: goes in the change that also deletes its tests, its only callers"
)

// stdDispatch names the standard-library interfaces whose methods the
// standard library calls on values the program hands it.
var stdDispatch = map[string][]string{
	"container/heap": {"Interface"},
	"encoding":       {"BinaryMarshaler", "BinaryUnmarshaler", "TextMarshaler", "TextUnmarshaler"},
	"encoding/json":  {"Marshaler", "Unmarshaler"},
	"flag":           {"Getter", "Value"},
	"fmt":            {"Formatter", "GoStringer", "Stringer"},
	"go/types":       {"Importer", "ImporterFrom"},
	"io":             {"ByteReader", "ByteWriter", "Closer", "Reader", "ReaderFrom", "StringWriter", "Writer", "WriterTo"},
	"sort":           {"Interface"},
}

// reach holds one module's declaration graph and its reached set.
type reach struct {
	mod     string
	refs    map[types.Object][]types.Object // what each declaration names
	group   map[types.Object][]types.Object // iota constant groups
	decls   []types.Object                  // every declared object, in load order
	named   []*types.Named                  // every module named type
	ifaces  []*types.Func                   // interface methods whose callers can dispatch
	reached map[types.Object]bool
	queue   []types.Object
}

// unreached returns, sorted, the module's package-level declarations
// that neither a program nor an allowed symbol reaches, and the allowed
// symbols that a program reaches or that do not exist. Symbols read
// "pkg.Name" or "pkg.Type.Method"; the methods of an unreached type are
// covered by the type's own entry.
func unreached(pkgs []*Package, mod string, allow map[string]string) (dead, stale []string) {
	r := &reach{
		mod:     mod,
		refs:    make(map[types.Object][]types.Object),
		group:   make(map[types.Object][]types.Object),
		reached: make(map[types.Object]bool),
	}
	for _, pkg := range pkgs {
		r.index(pkg)
	}
	for _, p := range closure(pkgs) {
		for _, name := range stdDispatch[p.Path] {
			r.addIface(p.Types.Scope().Lookup(name))
		}
	}
	r.addIface(types.Universe.Lookup("error"))

	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				if fd.Name.Name == "init" || (fd.Name.Name == "main" && pkg.Types.Name() == "main") {
					r.mark(pkg.Info.Defs[fd.Name])
				}
			}
		}
		if pkg.Path == mod {
			scope := pkg.Types.Scope()
			for _, name := range scope.Names() {
				if obj := scope.Lookup(name); obj.Exported() {
					r.mark(obj)
				}
			}
		}
	}
	r.run()

	byName := make(map[string]types.Object)
	for _, obj := range r.decls {
		byName[symbolName(obj)] = obj
	}
	// An entry is stale by what programs alone reach, so the allowed
	// roots join only after the check.
	for name := range allow {
		if obj := byName[name]; obj == nil || r.reached[obj] {
			stale = append(stale, name)
		}
	}
	for name := range allow {
		r.mark(byName[name])
	}
	r.run()

	for _, obj := range r.decls {
		if r.reached[obj] || obj.Name() == "_" || obj.Name() == "init" {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if n := recvNamed(recv.Type()); n == nil || !r.reached[n.Obj()] {
					continue
				}
			}
		}
		dead = append(dead, symbolName(obj))
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// closure returns pkgs and every package they import, transitively.
func closure(pkgs []*Package) []*Package {
	seen := make(map[*Package]bool)
	var out []*Package
	var walk func(p *Package)
	walk = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		out = append(out, p)
		for _, d := range p.deps {
			walk(d)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	return out
}

func (r *reach) addIface(obj types.Object) {
	if obj == nil {
		return
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return
	}
	for i := 0; i < iface.NumMethods(); i++ {
		r.ifaces = append(r.ifaces, iface.Method(i))
	}
}

// inModule reports whether obj is a declaration of the module that the
// graph tracks: package-level, or a method.
func (r *reach) inModule(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if p := obj.Pkg().Path(); p != r.mod && !strings.HasPrefix(p, r.mod+"/") {
		return false
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// index records each declaration of pkg and the objects it names.
func (r *reach) index(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				obj := pkg.Info.Defs[d.Name]
				if obj == nil {
					continue
				}
				r.decls = append(r.decls, obj)
				r.refs[obj] = r.names(pkg, d)
			case *ast.GenDecl:
				iota := d.Tok == token.CONST && usesIota(pkg, d)
				var members []types.Object
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						obj := pkg.Info.Defs[s.Name]
						r.decls = append(r.decls, obj)
						r.refs[obj] = r.names(pkg, s)
						if n, ok := obj.Type().(*types.Named); ok && !obj.(*types.TypeName).IsAlias() {
							r.named = append(r.named, n)
						}
					case *ast.ValueSpec:
						refs := r.names(pkg, s)
						for _, id := range s.Names {
							obj := pkg.Info.Defs[id]
							r.decls = append(r.decls, obj)
							r.refs[obj] = refs
							members = append(members, obj)
						}
					}
				}
				if iota {
					for _, m := range members {
						r.group[m] = members
					}
				}
			}
		}
	}
}

// usesIota reports whether a const declaration mentions iota.
func usesIota(pkg *Package, d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pkg.Info.Uses[id] == types.Universe.Lookup("iota") {
			found = true
		}
		return !found
	})
	return found
}

// names returns the module declarations node names, interface methods
// included, each once.
func (r *reach) names(pkg *Package, node ast.Node) []types.Object {
	seen := make(map[types.Object]bool)
	var out []types.Object
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[id]
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if r.inModule(obj) && !seen[obj] {
			seen[obj] = true
			out = append(out, obj)
		}
		return true
	})
	return out
}

func (r *reach) mark(obj types.Object) {
	if obj == nil || r.reached[obj] {
		return
	}
	r.reached[obj] = true
	r.queue = append(r.queue, obj)
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			r.ifaces = append(r.ifaces, fn)
		}
	}
	for _, m := range r.group[obj] {
		r.mark(m)
	}
}

// run drains the queue, then dispatches every reached interface method
// to the reached module types that implement it, until nothing changes.
func (r *reach) run() {
	type pair struct {
		n *types.Named
		m *types.Func
	}
	done := make(map[pair]bool)
	for {
		for len(r.queue) > 0 {
			obj := r.queue[0]
			r.queue = r.queue[1:]
			for _, ref := range r.refs[obj] {
				r.mark(ref)
			}
		}
		for _, n := range r.named {
			if !r.reached[n.Obj()] {
				continue
			}
			for i := 0; i < len(r.ifaces); i++ {
				m := r.ifaces[i]
				if done[pair{n, m}] {
					continue
				}
				done[pair{n, m}] = true
				iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				ptr := types.NewPointer(n)
				if !types.Implements(ptr, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok {
					r.mark(fn.Origin())
				}
			}
		}
		if len(r.queue) == 0 {
			return
		}
	}
}

func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// symbolName renders obj as "pkg.Name" or "pkg.Type.Method".
func symbolName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := recvNamed(recv.Type()); n != nil {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// TestNothingOnlyTestsReach holds the module to its reach roots: every
// declaration no program reaches is deleted or allowed by name, with a
// reason, in reachAllow. `make deadcode` runs it alone.
func TestNothingOnlyTestsReach(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	// Listing from bench/ matches its packages as well as the module's.
	l := Loader{Dir: filepath.Join("..", "..", "bench")}
	pkgs, err := l.Load("cptraffic/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	dead, stale := unreached(pkgs, "cptraffic", reachAllow)
	for _, s := range dead {
		t.Errorf("only tests reach %s: delete it, or allow it in reachAllow with the reason it stays", s)
	}
	for _, s := range stale {
		t.Errorf("reachAllow lists %s, which a program reaches or which is gone: drop the entry", s)
	}
}

// TestReachFixture pins what counts as reached on a fixture module:
// roots, references, interface dispatch, the standard-library
// interfaces, iota groups, the facade, and an allowed symbol as a root.
func TestReachFixture(t *testing.T) {
	var l Loader
	if err := l.AddFixtureTree(filepath.Join("testdata", "src")); err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPaths("reachmod", "reachmod/cmd/tool", "reachmod/lib")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := unreached(pkgs, "reachmod", map[string]string{
		"reachmod/lib.Kept":     "calls keptHelper",
		"reachmod/lib.Use":      "reached: stale",
		"reachmod/lib.Vanished": "gone: stale",
	})
	want := []string{
		"reachmod/cmd/tool.unusedHelper",
		"reachmod/lib.Dead",
		"reachmod/lib.DeadType",
		"reachmod/lib.Impl.NotInIface",
		"reachmod/lib.Loner",
		"reachmod/lib.Pub.Exported",
		"reachmod/lib.deadVar",
	}
	if strings.Join(dead, "\n") != strings.Join(want, "\n") {
		t.Errorf("dead:\n got %q\nwant %q", dead, want)
	}
	if want := []string{"reachmod/lib.Use", "reachmod/lib.Vanished"}; strings.Join(stale, "\n") != strings.Join(want, "\n") {
		t.Errorf("stale: got %q, want %q", stale, want)
	}
}
