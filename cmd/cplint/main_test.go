package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cptraffic/internal/lint"
)

// The CLI is tested end to end against a throwaway module: run() is
// driven directly (no subprocess), so exit codes and output streams
// are observable without build machinery. Each test writes its own
// module because -fix mutates it.

// writeModule lays out a minimal module with one exhaustive finding:
// a partial switch over a cp enum inside a gated internal/core
// package.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fixmod\n\ngo 1.22\n",
		"internal/cp/cp.go": `// Package cp declares the fixture enum.
package cp

// EventType enumerates control-plane event kinds.
type EventType uint8

const (
	Attach EventType = iota
	Detach
	ServiceRequest
)
`,
		"internal/core/classify.go": `// Package core hosts one deliberately partial switch.
package core

import "fixmod/internal/cp"

// Classify drops ServiceRequest on the floor.
func Classify(e cp.EventType) int {
	switch e {
	case cp.Attach:
		return 1
	case cp.Detach:
		return 2
	}
	return 0
}
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runCplint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCodeDirtyTree(t *testing.T) {
	dir := writeModule(t)
	code, stdout, stderr := runCplint(t, "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "exhaustive") || !strings.Contains(stdout, "classify.go") {
		t.Errorf("diagnostic missing from output:\n%s", stdout)
	}
	if !strings.Contains(stderr, "issue(s)") {
		t.Errorf("summary missing from stderr: %q", stderr)
	}
}

func TestExitCodeCleanTree(t *testing.T) {
	dir := writeModule(t)
	// Restricted to an analyzer with nothing to say, the tree is clean.
	code, stdout, _ := runCplint(t, "-C", dir, "-only", "detsource", "./...")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout: %s", code, stdout)
	}
	if stdout != "" {
		t.Errorf("clean run printed: %q", stdout)
	}
}

func TestExitCodeUsageErrors(t *testing.T) {
	dir := writeModule(t)
	// A deleted analyzer's name is as unknown as a name that never was.
	for _, name := range []string{"nosuch", "hotcall", "parshare"} {
		if code, _, stderr := runCplint(t, "-C", dir, "-only", name, "./..."); code != 2 {
			t.Errorf("-only %s: exit code = %d, want 2 (stderr %q)", name, code, stderr)
		} else if !strings.Contains(stderr, `unknown analyzer "`+name+`"`) {
			t.Errorf("-only %s stderr: %q", name, stderr)
		}
	}
	if code, _, _ := runCplint(t, "-badflag"); code != 2 {
		t.Errorf("bad flag: exit code = %d, want 2", code)
	}
	// A directory with no module is a load error, not a finding.
	empty := t.TempDir()
	if code, _, _ := runCplint(t, "-C", empty, "./..."); code != 2 {
		t.Errorf("load failure: exit code = %d, want 2", code)
	}
}

func TestListAnalyzers(t *testing.T) {
	code, stdout, _ := runCplint(t, "-list")
	if code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	for _, name := range []string{"detmap", "detsource", "exhaustive", "floatfold", "frozen", "hotalloc", "retain"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout)
		}
	}
	for _, name := range []string{"hotcall", "parshare"} {
		if strings.Contains(stdout, name) {
			t.Errorf("-list output names the deleted analyzer %q:\n%s", name, stdout)
		}
	}
}

// TestJSONSchema pins the cplint/4 report shape: stable field names,
// module-relative forward-slash paths, and byte-determinism across
// worker counts.
func TestJSONSchema(t *testing.T) {
	dir := writeModule(t)
	code, stdout, _ := runCplint(t, "-C", dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	var rep struct {
		Version     string `json:"version"`
		Packages    int    `json:"packages"`
		Diagnostics []struct {
			Analyzer string `json:"analyzer"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Column   int    `json:"column"`
			Message  string `json:"message"`
			Fixable  bool   `json:"fixable"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
		t.Fatalf("output is not the expected JSON: %v\n%s", err, stdout)
	}
	if rep.Version != "cplint/4" {
		t.Errorf("version = %q, want cplint/4", rep.Version)
	}
	if rep.Packages != 2 {
		t.Errorf("packages = %d, want 2", rep.Packages)
	}
	if len(rep.Diagnostics) != 1 {
		t.Fatalf("got %d diagnostics, want 1:\n%s", len(rep.Diagnostics), stdout)
	}
	d := rep.Diagnostics[0]
	if d.Analyzer != "exhaustive" || d.File != "internal/core/classify.go" || d.Line == 0 || d.Column == 0 || !d.Fixable {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
	if !strings.Contains(d.Message, "missing ServiceRequest") {
		t.Errorf("message = %q", d.Message)
	}

	for _, workers := range []string{"1", "8"} {
		_, again, _ := runCplint(t, "-C", dir, "-json", "-workers", workers, "./...")
		if again != stdout {
			t.Errorf("-workers %s changed the report bytes", workers)
		}
	}
}

func TestSARIFReport(t *testing.T) {
	dir := writeModule(t)
	sarif := filepath.Join(t.TempDir(), "cplint.sarif")
	code, _, _ := runCplint(t, "-C", dir, "-sarif", sarif, "./...")
	if code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					Physical struct {
						Artifact struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "cplint" || len(run.Tool.Driver.Rules) != 7 {
		t.Errorf("driver = %q with %d rules, want cplint with 7", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != 1 || run.Results[0].RuleID != "exhaustive" {
		t.Fatalf("unexpected results: %+v", run.Results)
	}
	loc := run.Results[0].Locations[0].Physical
	if loc.Artifact.URI != "internal/core/classify.go" || loc.Region.StartLine == 0 {
		t.Errorf("unexpected location: %+v", loc)
	}
}

// TestFixCollisionRefused pins the cross-analyzer overlap policy of
// ApplyFixes, which -fix exposes as exit 2: the two analyzers that
// propose edits cannot naturally touch the same span (exhaustive edits
// inside switches, retain rewrites the retaining expression), so the
// collision is fabricated — two analyzers rewriting the same bytes must
// refuse the whole run before any file is written, naming both
// analyzers, while a same-analyzer overlap keeps the first edit and
// defers the rest.
func TestFixCollisionRefused(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "clash.go")
	src := "package clash\n\nvar v = 1\n"
	if err := os.WriteFile(target, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pos := func(offset, line int) lint.TextEdit {
		return lint.TextEdit{
			Pos: token.Position{Filename: target, Offset: offset, Line: line},
			End: token.Position{Filename: target, Offset: offset + 1, Line: line},
			New: "w",
		}
	}
	diag := func(analyzer string, e lint.TextEdit) lint.Diagnostic {
		return lint.Diagnostic{
			Analyzer: analyzer,
			Pos:      e.Pos,
			Message:  "fabricated",
			Fixes:    []lint.SuggestedFix{{Message: "rewrite", Edits: []lint.TextEdit{e}}},
		}
	}

	// Two analyzers, same span: refused, file untouched.
	off := strings.Index(src, "v =")
	files, applied, err := lint.ApplyFixes([]lint.Diagnostic{
		diag("exhaustive", pos(off, 3)),
		diag("retain", pos(off, 3)),
	})
	if err == nil {
		t.Fatalf("overlapping cross-analyzer fixes applied: files=%v applied=%d", files, applied)
	}
	for _, name := range []string{"exhaustive", "retain", "clash.go:3"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("collision error %q does not name %q", err, name)
		}
	}
	after, rerr := os.ReadFile(target)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if string(after) != src {
		t.Errorf("refused run still modified the file:\n%s", after)
	}

	// Same analyzer, same span: first edit wins, no error.
	files, applied, err = lint.ApplyFixes([]lint.Diagnostic{
		diag("exhaustive", pos(off, 3)),
		diag("exhaustive", pos(off, 3)),
	})
	if err != nil {
		t.Fatalf("same-analyzer overlap should defer, not fail: %v", err)
	}
	if len(files) != 1 || applied != 1 {
		t.Errorf("same-analyzer overlap: files=%v applied=%d, want 1 file 1 fix", files, applied)
	}
	after, rerr = os.ReadFile(target)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if !strings.Contains(string(after), "w = 1") {
		t.Errorf("kept edit not applied:\n%s", after)
	}
}

// TestFixIdempotent pins the -fix contract: the suggested edit is
// applied, the result is gofmt-clean and analyzer-clean, and a second
// run changes nothing.
func TestFixIdempotent(t *testing.T) {
	dir := writeModule(t)
	target := filepath.Join(dir, "internal", "core", "classify.go")

	code, stdout, _ := runCplint(t, "-C", dir, "-fix", "./...")
	if code != 0 {
		t.Fatalf("first -fix run: exit code = %d, want 0 (all findings fixable)\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "fixed ") || !strings.Contains(stdout, "classify.go") {
		t.Errorf("fixed file not reported:\n%s", stdout)
	}
	fixed, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fixed), "default:") || !strings.Contains(string(fixed), "ServiceRequest") {
		t.Errorf("fix not applied:\n%s", fixed)
	}
	formatted, err := format.Source(fixed)
	if err != nil {
		t.Fatalf("fixed file does not parse: %v", err)
	}
	if !bytes.Equal(formatted, fixed) {
		t.Errorf("fixed file is not gofmt-clean:\n%s", fixed)
	}

	// The fixed tree is clean...
	if code, stdout, _ := runCplint(t, "-C", dir, "./..."); code != 0 {
		t.Errorf("fixed tree still dirty (exit %d):\n%s", code, stdout)
	}
	// ...and a second -fix run touches nothing.
	code, stdout, _ = runCplint(t, "-C", dir, "-fix", "./...")
	if code != 0 || strings.Contains(stdout, "fixed ") {
		t.Errorf("second -fix run not a no-op (exit %d):\n%s", code, stdout)
	}
	again, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, fixed) {
		t.Errorf("second -fix run changed bytes")
	}
}
