// Command cplint runs the repo's custom static-analysis suite: the
// six analyzers in internal/lint that turn the determinism,
// state-machine, float-fold, hot-path and immutability invariants into
// build-time errors. Parallel writes are the race detector's (make
// race), and a batch kept past its callback fails the copy-contract
// test (TestBatchConsumersCopy).
//
// Usage:
//
//	cplint [-only detmap,frozen] [-fix] [-json] [-sarif file] [packages]
//
// With no package arguments it analyzes ./... . The exit status is 0
// when the tree is clean (or -fix resolved everything), 1 when any
// diagnostic remains, and 2 on a load or usage error — mirroring the
// go/analysis multichecker convention so `make check` and CI can
// distinguish "invariant violated" from "could not analyze".
//
// -fix applies each diagnostic's suggested edit, gofmts the result,
// and is idempotent: a second run finds the fixed sites clean. Of two
// edits on overlapping spans it applies the first and leaves the other
// to the next run.
// -json writes the stable cplint/4 report to stdout; -sarif writes a
// SARIF 2.1.0 log for GitHub code scanning to the named file. Both
// are byte-deterministic for a given tree, independent of -workers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cptraffic/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	fix := fs.Bool("fix", false, "apply suggested fixes, gofmt the touched files, and report what remains")
	jsonOut := fs.Bool("json", false, "write the cplint/4 JSON report to stdout instead of plain text")
	sarif := fs.String("sarif", "", "also write a SARIF 2.1.0 report to this `file`")
	workers := fs.Int("workers", 0, "parallel type-check/analyze workers (0 = GOMAXPROCS; output is identical for any value)")
	dir := fs.String("C", "", "run in `dir` (the module to analyze) instead of the current directory")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cplint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = analyzers[:0]
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "cplint: unknown analyzer %q\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader := lint.Loader{Dir: *dir, Workers: *workers}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "cplint: %v\n", err)
		return 2
	}
	if len(pkgs) == 0 {
		fmt.Fprintf(stderr, "cplint: no packages matched %s\n", strings.Join(patterns, " "))
		return 2
	}

	diags := lint.AnalyzeWorkers(pkgs, analyzers, *workers)

	if *fix {
		files, applied, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintf(stderr, "cplint: applying fixes: %v\n", err)
			return 2
		}
		for _, f := range files {
			fmt.Fprintf(stdout, "fixed %s\n", f)
		}
		if applied > 0 {
			fmt.Fprintf(stderr, "cplint: applied %d fix(es) in %d file(s)\n", applied, len(files))
		}
		// Fixed diagnostics are resolved; only the ones needing a human
		// keep the exit status red.
		var remaining []lint.Diagnostic
		for _, d := range diags {
			if len(d.Fixes) == 0 {
				remaining = append(remaining, d)
			}
		}
		diags = remaining
	}

	base := *dir
	if base == "" {
		base, _ = os.Getwd()
	}
	if *sarif != "" {
		f, err := os.Create(*sarif)
		if err != nil {
			fmt.Fprintf(stderr, "cplint: %v\n", err)
			return 2
		}
		werr := lint.WriteSARIF(f, analyzers, diags, base)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintf(stderr, "cplint: writing SARIF: %v\n", werr)
			return 2
		}
	}
	if *jsonOut {
		if err := lint.WriteJSON(stdout, diags, len(pkgs), base); err != nil {
			fmt.Fprintf(stderr, "cplint: writing JSON: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cplint: %d issue(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
