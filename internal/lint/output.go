package lint

import (
	"encoding/json"
	"io"
	"path/filepath"
)

// The machine-readable report schema. The shape is part of cplint's
// contract with CI: fields are only ever added, never renamed or
// removed, so downstream parsers keep working across versions.

// ReportVersion identifies the JSON report schema.
const ReportVersion = "cplint/4"

type jsonReport struct {
	Version     string           `json:"version"`
	Packages    int              `json:"packages"`
	Diagnostics []jsonDiagnostic `json:"diagnostics"`
}

type jsonDiagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	Fixable  bool   `json:"fixable"`
}

// relPath rebases an absolute diagnostic path onto base (the module
// root) with forward slashes, for stable, machine-portable reports.
func relPath(base, name string) string {
	if base != "" {
		if rel, err := filepath.Rel(base, name); err == nil && !filepath.IsAbs(rel) && rel != ".." && !hasDotDotPrefix(rel) {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(name)
}

func hasDotDotPrefix(rel string) bool {
	return len(rel) >= 3 && rel[:3] == ".."+string(filepath.Separator)
}

// WriteJSON renders diagnostics as the stable cplint/4 JSON report.
// Diagnostics must already be in their deterministic sorted order (as
// returned by AnalyzeWorkers); the writer adds nothing nondeterministic.
func WriteJSON(w io.Writer, diags []Diagnostic, packages int, base string) error {
	rep := jsonReport{
		Version:     ReportVersion,
		Packages:    packages,
		Diagnostics: []jsonDiagnostic{}, // [] not null when clean
	}
	for _, d := range diags {
		rep.Diagnostics = append(rep.Diagnostics, jsonDiagnostic{
			Analyzer: d.Analyzer,
			File:     relPath(base, d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
			Fixable:  len(d.Fixes) > 0,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Minimal SARIF 2.1.0 — just enough for GitHub code scanning to turn
// findings into PR annotations: one run, one rule per analyzer, one
// result per diagnostic with a physical location.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID        string    `json:"id"`
	ShortDesc sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders diagnostics as a SARIF 2.1.0 log suitable for
// github/codeql-action/upload-sarif. Every analyzer becomes a rule so
// suppressed-but-declared checks still show in the scanning config UI.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, diags []Diagnostic, base string) error {
	driver := sarifDriver{Name: "cplint", Rules: []sarifRule{}}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{ID: a.Name, ShortDesc: sarifText{Text: a.Doc}})
	}
	run := sarifRun{Tool: sarifTool{Driver: driver}, Results: []sarifResult{}}
	for _, d := range diags {
		run.Results = append(run.Results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{Physical: sarifPhysical{
				Artifact: sarifArtifact{URI: relPath(base, d.Pos.Filename)},
				Region:   sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
