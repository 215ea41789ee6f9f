package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// Directive-comment lines cannot also carry // want comments (a line
// comment runs to end of line), so annotation hygiene is asserted
// explicitly here instead of through the fixture harness.

func parseSrc(t *testing.T, src string) (*token.FileSet, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return fset, []*ast.File{f}
}

func TestParseDirectives(t *testing.T) {
	fset, files := parseSrc(t, `package p

//cplint:ordered-ok keys are written into disjoint slots
var a int

//cplint:hotpath
var b int

//cplint:ordered-ok
var c int

// a plain comment, not a directive
var d int
`)
	dirs := parseDirectives(fset, files)
	if len(dirs) != 3 {
		t.Fatalf("got %d directives, want 3", len(dirs))
	}
	want := []struct {
		name, reason string
		line         int
	}{
		{"ordered-ok", "keys are written into disjoint slots", 3},
		{"hotpath", "", 6},
		{"ordered-ok", "", 9},
	}
	for i, w := range want {
		d := dirs[i]
		if d.Name != w.name || d.Reason != w.reason || d.Line != w.line {
			t.Errorf("directive %d: got {%q %q line %d}, want {%q %q line %d}",
				i, d.Name, d.Reason, d.Line, w.name, w.reason, w.line)
		}
	}
}

// TestDirectiveHygiene runs the full suite over the hygiene fixture:
// every malformed or misplaced annotation must produce exactly one
// diagnostic, and nothing else.
func TestDirectiveHygiene(t *testing.T) {
	l := fixtureLoader(t)
	pkgs, err := l.LoadPaths("cptraffic/internal/cluster")
	if err != nil {
		t.Fatalf("loading hygiene fixture: %v", err)
	}
	diags := Analyze(pkgs, All())

	want := []struct {
		line int
		sub  string
	}{
		{9, "//cplint:ordered-ok needs a reason"},
		{19, "not attached to a range-over-map statement"},
		{26, "not attached to a function declaration"},
		{31, "unknown directive //cplint:frobnicate"},
		{12, "//cplint:partial-ok needs a reason"},
		{20, "not attached to a partially-covered enum switch, an order-sensitive float fold, or a frozen-model write"},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Pos.Line != w.line || !strings.Contains(d.Message, w.sub) {
			t.Errorf("diagnostic %d: got line %d %q, want line %d containing %q",
				i, d.Pos.Line, d.Message, w.line, w.sub)
		}
	}

	// Names the suite no longer knows: an annotation left behind in a
	// tree must be reported, with the valid names, not pass as a comment.
	const known = "(known: coldpath, hotpath, ordered-ok, partial-ok, retained-ok, reused)"
	for _, stale := range []string{
		"guardedby mu",
		"unguarded-ok read before publication",
		"leak-ok lives for the process",
		"detached-ok outlives the request",
	} {
		fset, files := parseSrc(t, "package p\n\n//cplint:"+stale+"\nvar x int\n")
		pkg := &Package{fset: fset, directives: parseDirectives(fset, files)}
		var got []Diagnostic
		validateDirectives(pkg, All(), func(d Diagnostic) { got = append(got, d) })
		name, _, _ := strings.Cut(stale, " ")
		if len(got) != 1 || got[0].Pos.Line != 3 ||
			!strings.Contains(got[0].Message, "unknown directive //cplint:"+name+" ") ||
			!strings.HasSuffix(got[0].Message, known) {
			t.Errorf("//cplint:%s: got %v, want one unknown-directive diagnostic on line 3 ending %q", stale, got, known)
		}
	}
}

// TestRetainDirectiveHygiene runs the full suite over the retain
// negative-control fixture (outside the determinism-gated set): the
// reasonless retained-ok, the unattached retained-ok, and the reused
// marker on a non-type each produce exactly one diagnostic, and the
// annotated escape itself stays suppressed.
func TestRetainDirectiveHygiene(t *testing.T) {
	l := fixtureLoader(t)
	pkgs, err := l.LoadPaths("cptraffic/internal/retainneg")
	if err != nil {
		t.Fatalf("loading retain hygiene fixture: %v", err)
	}
	diags := Analyze(pkgs, All())

	want := []struct {
		line int
		sub  string
	}{
		{17, "//cplint:retained-ok needs a reason"},
		{21, "not attached to a statement that retains a reused buffer"},
		{27, "not attached to a type declaration"},
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, w := range want {
		d := diags[i]
		if d.Pos.Line != w.line || !strings.Contains(d.Message, w.sub) {
			t.Errorf("diagnostic %d: got line %d %q, want line %d containing %q",
				i, d.Pos.Line, d.Message, w.line, w.sub)
		}
	}
	for _, d := range diags {
		if strings.Contains(d.Message, "reused buffer escapes") {
			t.Errorf("attached retained-ok failed to suppress the escape: %s", d)
		}
	}
}

// TestMalformedDirectiveStillSuppresses documents the failure mode of a
// reasonless ordered-ok: the annotated loop itself is not re-reported
// (the annotation is attached), but the missing reason is an error, so
// the build still fails until a justification is written.
func TestMalformedDirectiveStillSuppresses(t *testing.T) {
	l := fixtureLoader(t)
	pkgs, err := l.LoadPaths("cptraffic/internal/cluster")
	if err != nil {
		t.Fatalf("loading hygiene fixture: %v", err)
	}
	for _, d := range Analyze(pkgs, []*Analyzer{DetMap}) {
		if strings.Contains(d.Message, "nondeterministic iteration order") {
			t.Errorf("annotated loop was re-reported: %s", d)
		}
	}
}
