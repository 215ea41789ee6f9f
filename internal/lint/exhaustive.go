package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive checks that every switch over one of the repo's small
// enums — cp.EventType, cp.DeviceType, cp.UEState, and the sm state
// types — either covers every declared value or carries an explicit
// default clause. The paper's artifact is a two-level hierarchical
// state machine, so these switches are its
// semantic heart: a missed case is a silently dropped transition, the
// exact bug class a faithful reproduction cannot afford.
//
// A switch that is deliberately partial (e.g. a classifier that only
// distinguishes two categories) is annotated
// //cplint:partial-ok <reason>, with the same machine-checked hygiene
// as ordered-ok: the reason is mandatory and the annotation must be
// attached to a partially-covered enum switch.
//
// An enum, for this check, is a named integer type declared in a
// package whose import path ends in internal/cp or internal/sm, with
// at least two typed constants of that type in the defining package.
// Members are deduplicated by constant value: sm.State deliberately
// overlays the LTE/EMM-ECM/5G-SA state spaces on the same small
// integers, so covering every *value* is what exhaustiveness means.
// The `num*` sentinels are untyped and therefore never count as
// members.
//
// The check runs in the determinism-critical packages plus internal/cp
// and internal/fiveg — everywhere transitions are dispatched. cmd/
// CLIs are exempt, but an annotation placed there is still claimed so
// directive hygiene does not call it a mistake.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc:  "checks that switches over cp/sm enums cover every value or carry a default",
	Run:  runExhaustive,
}

// exhaustivePackages extends the detmap/detsource gate with the enum
// home package and the 5G adapters, both of which dispatch on enums.
var exhaustivePackages = []string{"internal/cp", "internal/fiveg"}

func inExhaustivePackage(path string) bool {
	if inDetPackage(path) {
		return true
	}
	for _, p := range exhaustivePackages {
		if pathHasSuffix(path, p) {
			return true
		}
	}
	return false
}

// enumDef describes one checkable enum type.
type enumDef struct {
	obj *types.TypeName
	// values holds the distinct constant values in increasing order.
	values []int64
	// names maps each value to its declared names ("LTEIdle/EEIdle"
	// for the overlaid state spaces), joined in declaration-name order.
	names map[int64]string
}

// enumHomePackage reports whether pkg declares checkable enums.
func enumHomePackage(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pathHasSuffix(pkg.Path(), "internal/cp") || pathHasSuffix(pkg.Path(), "internal/sm")
}

// enumFor resolves t to an enum definition, or nil if t is not a
// checkable enum. Definitions are cached per call site's package walk
// via the enums map.
func enumFor(t types.Type, enums map[*types.TypeName]*enumDef) *enumDef {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if def, seen := enums[obj]; seen {
		return def
	}
	enums[obj] = nil // negative-cache until proven otherwise
	if !enumHomePackage(obj.Pkg()) {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsInteger == 0 {
		return nil
	}
	scope := obj.Pkg().Scope()
	def := &enumDef{obj: obj, names: make(map[int64]string)}
	for _, name := range scope.Names() { // Names() is sorted: deterministic
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		v, exact := constant.Int64Val(c.Val())
		if !exact {
			continue
		}
		if prev, seen := def.names[v]; seen {
			def.names[v] = prev + "/" + name
		} else {
			def.names[v] = name
			def.values = append(def.values, v)
		}
	}
	if len(def.values) < 2 {
		return nil
	}
	sort.Slice(def.values, func(i, j int) bool { return def.values[i] < def.values[j] })
	enums[obj] = def
	return def
}

func runExhaustive(pass *Pass) error {
	gated := inExhaustivePackage(pass.Pkg.Path)
	info := pass.Pkg.Info
	enums := make(map[*types.TypeName]*enumDef)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sw, ok := n.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			t := info.TypeOf(sw.Tag)
			if t == nil {
				return true
			}
			def := enumFor(t, enums)
			if def == nil {
				return true
			}
			missing, hasDefault := uncovered(info, sw, def)
			if hasDefault || len(missing) == 0 {
				return true
			}
			// The annotation is claimed even outside the gated packages,
			// so a legitimately placed partial-ok in a CLI is not called
			// unattached by directive hygiene.
			if d := directiveAt(pass.Pkg, DirPartialOK, sw.Switch); d != nil {
				return true
			}
			if !gated {
				return true
			}
			var names []string
			for _, v := range missing {
				names = append(names, def.names[v])
			}
			covered := len(def.values) - len(missing)
			fix := SuggestedFix{
				Message: "add an explicit default clause naming the unhandled values",
				Edits: []TextEdit{pass.Edit(sw.Body.Rbrace, sw.Body.Rbrace,
					fmt.Sprintf("default: // unhandled: %s\n", strings.Join(names, ", ")))},
			}
			pass.ReportFixf(sw.Switch, fix,
				"switch on %s covers %d of %d values of %s (missing %s); add the missing cases or an explicit default, or annotate //cplint:partial-ok <reason>",
				types.ExprString(sw.Tag), covered, len(def.values), def.obj.Name(), strings.Join(names, ", "))
			return true
		})
	}
	return nil
}

// uncovered returns the enum values no case clause covers and whether
// the switch has a default clause. Non-constant case expressions prove
// nothing and are ignored; only a default can make such a switch
// exhaustive.
func uncovered(info *types.Info, sw *ast.SwitchStmt, def *enumDef) (missing []int64, hasDefault bool) {
	covered := make(map[int64]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
			continue
		}
		for _, e := range cc.List {
			tv, ok := info.Types[e]
			if !ok || tv.Value == nil {
				continue
			}
			if v, exact := constant.Int64Val(tv.Value); exact {
				covered[v] = true
			}
		}
	}
	for _, v := range def.values {
		if !covered[v] {
			missing = append(missing, v)
		}
	}
	return missing, hasDefault
}
