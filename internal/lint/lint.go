package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"cptraffic/internal/par"
)

// An Analyzer is one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer so these checks would port
// to the upstream driver unchanged.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// A Pass is one analyzer applied to one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFixf records a diagnostic at pos carrying one suggested fix.
func (p *Pass) ReportFixf(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Fixes:    []SuggestedFix{fix},
	})
}

// Edit builds a TextEdit replacing [pos, end) with new text. pos == end
// is a pure insertion.
func (p *Pass) Edit(pos, end token.Pos, new string) TextEdit {
	return TextEdit{Pos: p.Fset.Position(pos), End: p.Fset.Position(end), New: new}
}

// A TextEdit replaces the source range [Pos.Offset, End.Offset) of
// Pos.Filename with New. Positions carry resolved offsets so fixes can
// be applied without re-parsing.
type TextEdit struct {
	Pos token.Position `json:"pos"`
	End token.Position `json:"end"`
	New string         `json:"new"`
}

// A SuggestedFix is one self-contained, semantics-preserving rewrite
// that resolves a diagnostic. Edits are within a single file.
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// A Diagnostic is one finding, addressed by resolved position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
	// Fixes holds machine-applicable rewrites (applied by cplint -fix);
	// empty when the finding needs a human restructure.
	Fixes []SuggestedFix
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// DetPackages lists the determinism-critical packages, by import-path
// suffix: the model-fitting and generation core, the ground-truth
// simulator, the state machines, the numeric kernels, the clusterer,
// the trace codecs, the evaluation sweeps, the table renderer, the
// storm-replay engine, and the scenario loader. detmap and detsource
// enforce their invariants only inside these packages; cmd/ CLIs (flag
// parsing, wall-clock logging) are exempt by omission.
var DetPackages = []string{
	"internal/core",
	"internal/world",
	"internal/sm",
	"internal/stats",
	"internal/cluster",
	"internal/trace",
	"internal/eval",
	"internal/report",
	"internal/mcn",
	"internal/scenario",
}

// pathHasSuffix reports whether path equals suffix or ends in
// "/"+suffix (whole-segment match, so fixture paths like
// "cptraffic/internal/core" under testdata qualify too).
func pathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// inDetPackage reports whether path is one of the determinism-critical
// packages.
func inDetPackage(path string) bool {
	for _, p := range DetPackages {
		if pathHasSuffix(path, p) {
			return true
		}
	}
	return false
}

// All returns the full cplint suite in its canonical order.
func All() []*Analyzer {
	return []*Analyzer{DetMap, DetSource, Exhaustive, FloatFold, Frozen, HotAlloc}
}

// AnalyzeWorkers runs the given analyzers over the given packages and
// returns the merged diagnostics sorted by position. Packages are
// analyzed in parallel over workers goroutines of the repo's own par
// pool (<= 0 means GOMAXPROCS). The diagnostics are identical for any
// worker count: a package's directives are only ever touched by the one
// worker that owns it, and the merged result is sorted before
// returning. Directive hygiene (unknown //cplint: names, missing
// reasons, annotations attached to nothing) is validated per package,
// after every analyzer has had the chance to claim its directives.
func AnalyzeWorkers(pkgs []*Package, analyzers []*Analyzer, workers int) []Diagnostic {
	perPkg := make([][]Diagnostic, len(pkgs))
	par.For(len(pkgs), workers, func(i int) {
		pkg := pkgs[i]
		collect := func(d Diagnostic) { perPkg[i] = append(perPkg[i], d) }
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: fsetOf(pkg), Pkg: pkg, report: collect}
			if err := a.Run(pass); err != nil {
				collect(Diagnostic{
					Analyzer: a.Name,
					Pos:      fsetOf(pkg).Position(pkg.Files[0].Package),
					Message:  fmt.Sprintf("internal error: %v", err),
				})
			}
		}
		validateDirectives(pkg, analyzers, collect)
	})
	var diags []Diagnostic
	for _, ds := range perPkg {
		diags = append(diags, ds...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// fsetOf recovers the FileSet a package was parsed with. Packages are
// always produced by a Loader, which threads one shared FileSet; the
// pass just needs access to it for position resolution.
func fsetOf(pkg *Package) *token.FileSet {
	return pkg.fset
}

// ---- //cplint: directives ----

// Directive names understood by the suite.
const (
	DirOrderedOK = "ordered-ok" // on a range-over-map: order-insensitivity is argued by the reason
	DirHotPath   = "hotpath"    // on a func decl: the body must not allocate
	DirPartialOK = "partial-ok" // on an enum switch, float fold, or model write: partial behavior is argued by the reason
)

// A Directive is one parsed //cplint:<name> <reason> comment.
type Directive struct {
	Pos    token.Pos
	File   string
	Line   int
	Name   string
	Reason string

	used bool // claimed by a matching node during analysis
}

const dirPrefix = "//cplint:"

// parseDirectives extracts every //cplint: comment from the files.
// Syntax errors (unknown name, missing reason) are kept as directives
// with their problems diagnosed by validateDirectives, so one malformed
// annotation cannot silence an analyzer.
func parseDirectives(fset *token.FileSet, files []*ast.File) []*Directive {
	var dirs []*Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, dirPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, dirPrefix)
				name, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				dirs = append(dirs, &Directive{
					Pos:    c.Pos(),
					File:   pos.Filename,
					Line:   pos.Line,
					Name:   name,
					Reason: strings.TrimSpace(reason),
				})
			}
		}
	}
	return dirs
}

// directiveAt returns the package's directive of the given name
// attached to the node starting at pos: on the same line (trailing
// comment) or on the line immediately above. A same-line match wins —
// on consecutive annotated lines (struct fields, say) each node must
// claim its own trailing directive, not the previous line's. It marks
// the directive used so validateDirectives can flag the ones attached
// to nothing.
func directiveAt(pkg *Package, name string, pos token.Pos) *Directive {
	p := pkg.fset.Position(pos)
	var above *Directive
	for _, d := range pkg.directives {
		if d.Name != name || d.File != p.Filename {
			continue
		}
		if d.Line == p.Line {
			d.used = true
			return d
		}
		if above == nil && d.Line == p.Line-1 {
			above = d
		}
	}
	if above != nil {
		above.used = true
	}
	return above
}

// claimDoc marks directives inside a func declaration's doc comment
// (any line between doc start and the decl line) as attached to it.
func claimDoc(pkg *Package, name string, doc *ast.CommentGroup, declPos token.Pos) *Directive {
	if doc == nil {
		return directiveAt(pkg, name, declPos)
	}
	start := pkg.fset.Position(doc.Pos()).Line
	p := pkg.fset.Position(declPos)
	for _, d := range pkg.directives {
		if d.Name != name || d.File != p.Filename {
			continue
		}
		if d.Line >= start && d.Line <= p.Line {
			d.used = true
			return d
		}
	}
	return nil
}

// directiveOwners maps each directive name to the analyzers that can
// claim it. Reason hygiene for a name is enforced when any owner ran;
// the attached-to-nothing check only when every owner ran (a
// single-analyzer fixture test must not call another analyzer's
// legitimately placed annotation a mistake).
var directiveOwners = map[string][]string{
	DirOrderedOK: {"detmap", "floatfold"},
	DirHotPath:   {"hotalloc"},
	DirPartialOK: {"exhaustive", "floatfold", "frozen"},
}

// reasonRequired lists the directives whose reason is mandatory: the
// annotation suppresses a finding, so the justification must travel
// with it.
var reasonRequired = map[string]bool{
	DirOrderedOK: true,
	DirPartialOK: true,
}

// attachWant describes, per directive, what kind of node the
// annotation must be attached to.
var attachWant = map[string]string{
	DirOrderedOK: "a range-over-map statement",
	DirHotPath:   "a function declaration",
	DirPartialOK: "a partially-covered enum switch, an order-sensitive float fold, or a frozen-model write",
}

func validateDirectives(pkg *Package, ran []*Analyzer, report func(Diagnostic)) {
	names := make(map[string]bool, len(ran))
	for _, a := range ran {
		names[a.Name] = true
	}
	pos := func(d *Directive) token.Position { return pkg.fset.Position(d.Pos) }
	for _, d := range pkg.directives {
		owners, known := directiveOwners[d.Name]
		if !known {
			report(Diagnostic{
				Analyzer: "cplint",
				Pos:      pos(d),
				Message: fmt.Sprintf("unknown directive //cplint:%s (known: %s, %s, %s)",
					d.Name, DirHotPath, DirOrderedOK, DirPartialOK),
			})
			continue
		}
		anyRan, allRan := false, true
		for _, o := range owners {
			if names[o] {
				anyRan = true
			} else {
				allRan = false
			}
		}
		if !anyRan {
			continue
		}
		if reasonRequired[d.Name] && d.Reason == "" {
			report(Diagnostic{
				Analyzer: owners[0],
				Pos:      pos(d),
				Message:  fmt.Sprintf("//cplint:%s needs a reason: //cplint:%s <why this is justified>", d.Name, d.Name),
			})
			continue
		}
		if !d.used && allRan {
			report(Diagnostic{
				Analyzer: owners[0],
				Pos:      pos(d),
				Message:  fmt.Sprintf("//cplint:%s is not attached to %s", d.Name, attachWant[d.Name]),
			})
		}
	}
}
