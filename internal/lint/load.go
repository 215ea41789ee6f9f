// Package lint implements the cplint static-analysis suite: a small,
// dependency-free clone of the golang.org/x/tools/go/analysis driver
// plus the six repo-specific analyzers (detmap, detsource,
// exhaustive, floatfold, frozen, hotalloc) that turn this repo's
// determinism, state-machine, float-fold, hot-path and immutability
// invariants into build errors. Each analyzer runs on one package at a
// time.
//
// The framework mirrors the go/analysis API (Analyzer, Pass, Reportf)
// so the analyzers would port to the upstream driver verbatim, but it
// is built entirely on the standard library: packages are enumerated
// with `go list -deps -json` and type-checked from source with
// go/types, including the standard-library closure. The build
// container has no module proxy, so vendoring x/tools is not an
// option; ~100 packages type-check from source in a few seconds, which
// is fine for a pre-commit gate.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cptraffic/internal/par"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path as the type checker sees it
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	fset       *token.FileSet
	directives []*Directive
	typeErrs   []types.Error
	deps       []*Package // direct imports, sorted by path (fixture or module; stdlib included)
	std        bool       // from `go list` Standard (fixture packages are never standard)
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// A Loader enumerates, parses, and type-checks packages. Dependencies
// are resolved through `go list` (run in Dir) and type-checked from
// source; results are cached per Loader, so fixture tests share one
// standard-library type-check.
type Loader struct {
	// Dir is the directory `go list` runs in; it must be inside a Go
	// module. Empty means the current directory.
	Dir string

	// Fixtures maps import paths to directories holding their sources,
	// consulted before `go list`. Tests use this to load analysistest
	// fixture trees from testdata/src without touching the module.
	Fixtures map[string]string

	// Workers bounds the type-check fan-out of LoadPaths: distinct
	// packages type-check on their own goroutines (<= 0 means
	// GOMAXPROCS). Any one package is still checked exactly once — a
	// second demand for an in-flight package blocks until the first
	// completes — so the worker count can never change the result.
	Workers int

	mu      sync.Mutex             // guards fset/meta/entries creation
	fset    *token.FileSet         // guarded by mu
	meta    map[string]*listPkg    // guarded by mu
	entries map[string]*checkEntry // guarded by mu
}

// checkEntry is the once-per-import-path type-check slot.
type checkEntry struct {
	once sync.Once
	pkg  *Package
	err  error
}

// Fset returns the loader's shared file set, creating it on first use.
func (l *Loader) Fset() *token.FileSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fset == nil {
		l.fset = token.NewFileSet()
	}
	return l.fset
}

// Load type-checks the packages matched by the given `go list`
// patterns (plus their dependency closure) and returns the matched
// packages only, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	paths, err := l.list(false, patterns...)
	if err != nil {
		return nil, err
	}
	return l.LoadPaths(paths...)
}

// LoadPaths type-checks exactly the named import paths (fixture paths
// or module/stdlib paths) and returns them in the given order. The
// per-path checks fan out over Workers goroutines; errors surface in
// path order, so the result is worker-count-independent.
func (l *Loader) LoadPaths(paths ...string) ([]*Package, error) {
	pkgs := make([]*Package, len(paths))
	errs := make([]error, len(paths))
	par.For(len(paths), l.Workers, func(i int) {
		pkgs[i], errs[i] = l.check(paths[i])
	})
	for i, p := range paths {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if n := len(pkgs[i].typeErrs); n > 0 {
			return nil, fmt.Errorf("type-checking %s: %v (and %d more)", p, pkgs[i].typeErrs[0], n-1)
		}
	}
	return pkgs, nil
}

// list runs `go list` and returns matched import paths; with deps it
// also fills the metadata cache for the whole dependency closure. The
// subprocess and the cache write are serialized under the loader lock.
func (l *Loader) list(deps bool, patterns ...string) ([]string, error) {
	args := []string{"list", "-e", "-json=ImportPath,Dir,GoFiles,Standard"}
	if deps {
		args = append(args, "-deps")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.meta == nil {
		l.meta = make(map[string]*listPkg)
	}
	var paths []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list -json: %v", err)
		}
		if _, ok := l.meta[p.ImportPath]; !ok {
			l.meta[p.ImportPath] = p
		}
		paths = append(paths, p.ImportPath)
	}
	if deps {
		// -deps emits dependencies first; the matched patterns are the
		// trailing entries, but callers of list(true, ...) only want the
		// cache side effect.
		return paths, nil
	}
	sort.Strings(paths)
	return paths, nil
}

// metaFor returns go list metadata for path, querying the go command
// on a cache miss (this pulls in the path's own dependency closure).
func (l *Loader) metaFor(path string) (*listPkg, error) {
	l.mu.Lock()
	m, ok := l.meta[path]
	l.mu.Unlock()
	if ok {
		return m, nil
	}
	if _, err := l.list(true, path); err != nil {
		return nil, err
	}
	l.mu.Lock()
	m, ok = l.meta[path]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("package %q not found by go list", path)
	}
	return m, nil
}

// check parses and type-checks one package (and, recursively, its
// imports), caching the result. Concurrent demands for the same path
// share one check: the entry's once runs the work, later callers block
// on it. The import graph is acyclic, so the blocking cannot deadlock.
func (l *Loader) check(path string) (*Package, error) {
	l.mu.Lock()
	if l.entries == nil {
		l.entries = make(map[string]*checkEntry)
	}
	e, ok := l.entries[path]
	if !ok {
		e = new(checkEntry)
		l.entries[path] = e
	}
	l.mu.Unlock()
	e.once.Do(func() { e.pkg, e.err = l.doCheck(path) })
	return e.pkg, e.err
}

// doCheck performs the actual parse + type-check of one package. Hard
// type errors are accumulated on the package (surfaced by LoadPaths)
// rather than failing the check, so diamond imports of a broken
// package do not re-report it.
func (l *Loader) doCheck(path string) (*Package, error) {
	var dir string
	var files []string
	var std bool
	if fdir, ok := l.Fixtures[path]; ok {
		ents, err := os.ReadDir(fdir)
		if err != nil {
			return nil, err
		}
		for _, e := range ents {
			name := e.Name()
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				files = append(files, name)
			}
		}
		sort.Strings(files)
		dir = fdir
	} else {
		m, err := l.metaFor(path)
		if err != nil {
			return nil, err
		}
		dir, files, std = m.Dir, m.GoFiles, m.Standard
	}
	if len(files) == 0 {
		// `go list -e` reports unresolvable patterns as pseudo-packages
		// with no files; surface them as load errors, not clean packages.
		return nil, fmt.Errorf("package %s has no Go files", path)
	}

	fset := l.Fset()
	pkg := &Package{Path: path, Dir: dir, fset: fset, std: std}
	for _, name := range files {
		af, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", filepath.Join(dir, name), err)
		}
		pkg.Files = append(pkg.Files, af)
	}

	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	deps := make(map[string]*Package)
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if imp == "unsafe" {
				return types.Unsafe, nil
			}
			// Fixture trees shadow the module: "cptraffic/internal/par"
			// inside testdata resolves to the fixture stub, not the
			// real package, so fixtures stay self-contained.
			dep, err := l.check(imp)
			if err != nil {
				return nil, err
			}
			deps[imp] = dep
			return dep.Types, nil
		}),
		Error: func(err error) {
			if te, ok := err.(types.Error); ok && !te.Soft {
				pkg.typeErrs = append(pkg.typeErrs, te)
			}
		},
	}
	tpkg, err := conf.Check(path, fset, pkg.Files, pkg.Info)
	pkg.Types = tpkg
	if err != nil && len(pkg.typeErrs) == 0 {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	pkg.directives = parseDirectives(fset, pkg.Files)
	depPaths := make([]string, 0, len(deps))
	for p := range deps {
		depPaths = append(depPaths, p)
	}
	sort.Strings(depPaths)
	for _, p := range depPaths {
		pkg.deps = append(pkg.deps, deps[p])
	}
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
