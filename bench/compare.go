package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json that -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict places b against a for a metric whose better direction and
// regression bound are given: "worse" when b is worse than a by more
// than bound of a, "better" when it is better by more than that, else
// "within". change is (b-a)/a.
func verdict(a, b float64, better string, bound float64) (change float64, v string) {
	change = (b - a) / a
	worsening := change
	if better == "higher" {
		worsening = -change
	}
	switch {
	case worsening > bound:
		return change, "worse"
	case worsening < -bound:
		return change, "better"
	}
	return change, "within"
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareResults prints, for every workload and end-to-end metric both
// results have, both values, the relative change, the bound and the
// verdict, and reports whether anything got worse. More failed reps is
// worse whatever the size.
func compareResults(w io.Writer, spec *benchSpec, a, b *result) (worse bool) {
	byName := map[string]workloadResult{}
	for _, wr := range a.Workloads {
		byName[wr.Name] = wr
	}
	fmt.Fprintf(w, "%-16s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wb := range b.Workloads {
		wa, ok := byName[wb.Name]
		if !ok {
			continue
		}
		for _, d := range spec.EndToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-16s %-14s missing from one side  worse\n", wb.Name, d.Name)
				worse = true
				continue
			}
			change, v := verdict(ma.Value, mb.Value, d.Better, d.Bound)
			fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", wb.Name, d.Name, ma.Value, mb.Value, 100*change, 100*d.Bound, v)
			worse = worse || v == "worse"
		}
		v := "within"
		if wb.FailedShare > wa.FailedShare {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-16s %-14s %14.6g %14.6g %9s %7s  %s\n", wb.Name, "failed_share", wa.FailedShare, wb.FailedShare, "", "any", v)
		if wa.OutputSHA256 != wb.OutputSHA256 || wa.Events != wb.Events {
			fmt.Fprintf(w, "%-16s output differs: %d events %s, then %d events %s\n", wb.Name, wa.Events, wa.OutputSHA256, wb.Events, wb.OutputSHA256)
		}
	}
	return worse
}

func compareFiles(stdout io.Writer, specPath, pathA, pathB string) (int, error) {
	var spec benchSpec
	var a, b result
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return 0, err
		}
	}
	if compareResults(stdout, &spec, &a, &b) {
		return 1, nil
	}
	return 0, nil
}
