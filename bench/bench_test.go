package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// testScale keeps all five workloads inside a few seconds while leaving
// enough UEs for the ThetaN clustering and a many-leaf merge.
const testScale = 0.02

func TestSelfTimes(t *testing.T) {
	// root 100
	//  ├ a 60 (layer A)
	//  │  ├ wrapper re-entered 3 times, busy 15 (layer B)
	//  │  │  └ writer busy 5 (layer bench)
	//  │  └ replayed child timed elsewhere, busy 30 (layer C)
	//  └ b 38 (layer B)
	// plus a span outside the tree that must not be charged.
	spans := []span{
		{ID: 0, Parent: noParent, Layer: "bench", Busy: 100, Calls: 1},
		{ID: 1, Parent: 0, Layer: "A", Busy: 60, Calls: 1},
		{ID: 2, Parent: 1, Layer: "B", Busy: 15, Calls: 3},
		{ID: 3, Parent: 2, Layer: "bench", Busy: 5, Calls: 9},
		{ID: 4, Parent: noParent, Layer: "setup", Busy: 1000, Calls: 1},
		{ID: 5, Parent: 1, Layer: "C", Busy: 30, Calls: 1, Replay: true, Start: 500, End: 530},
		{ID: 6, Parent: 0, Layer: "B", Busy: 38, Calls: 1},
	}
	got := selfTimes(spans, 0)
	want := map[string]int64{
		"bench": (100 - 60 - 38) + 5,
		"A":     60 - 15 - 30,
		"B":     (15 - 5) + 38,
		"C":     30,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var sum int64
	for _, ns := range got {
		sum += ns
	}
	if sum != spans[0].Busy {
		t.Errorf("layers sum to %d, root is %d", sum, spans[0].Busy)
	}
	if got := busyOf(spans, "setup"); got != 1000 {
		t.Errorf("busyOf(setup) = %d, want 1000", got)
	}

	// A replay slower than the work it stands for leaves the parent
	// negative; that is reported, not hidden, and the sum still holds.
	spans[5].Busy = 70
	got = selfTimes(spans, 0)
	if got["A"] != 60-15-70 || got["C"] != 70 {
		t.Errorf("slow replay: A=%d C=%d", got["A"], got["C"])
	}
}

func TestRecorderAccumulates(t *testing.T) {
	rec := newRecorder("w")
	root := rec.open("root", "bench", noParent)
	rt := rec.enter()
	id := rec.open("wrapped", "L", root)
	for i := 0; i < 3; i++ {
		e := rec.enter()
		rec.leave(id, e)
	}
	rec.leave(root, rt)
	s := rec.spans[id]
	if s.Calls != 3 || s.Busy > s.End-s.Start || s.Start < rec.spans[root].Start || s.End > rec.spans[root].End {
		t.Errorf("accumulated span %+v inside root %+v", s, rec.spans[root])
	}
	if rec.find("wrapped") != id {
		t.Errorf("find(wrapped) = %d, want %d", rec.find("wrapped"), id)
	}

	// The nil recorder is the timed path: every method is a no-op.
	var off *recorder
	off.leave(off.open("x", "y", noParent), off.enter())
	if err := off.call("x", "y", noParent, func() error { return nil }); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	for _, tc := range []struct {
		in               []float64
		median, min, max float64
	}{
		{[]float64{3}, 3, 3, 3},
		{[]float64{5, 1, 3}, 3, 1, 5},
		{[]float64{4, 1, 3, 2}, 2.5, 1, 4},
		{[]float64{9, 1, 1, 1, 1}, 1, 1, 9}, // one noisy rep does not move the median
	} {
		s := summarize(tc.in)
		if s.n != len(tc.in) || s.median != tc.median || s.min != tc.min || s.max != tc.max {
			t.Errorf("summarize(%v) = %+v", tc.in, s)
		}
	}
	if s := summarize(nil); s.n != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		a, b   float64
		better string
		bound  float64
		want   string
	}{
		{100, 91, "higher", 0.10, "within"},
		{100, 89, "higher", 0.10, "worse"},
		{100, 111, "higher", 0.10, "better"},
		{100, 109, "lower", 0.10, "within"},
		{100, 111, "lower", 0.10, "worse"},
		{100, 89, "lower", 0.10, "better"},
		{2.0, 2.4, "lower", 0.25, "within"},
		{2.0, 2.6, "lower", 0.25, "worse"},
	} {
		change, got := verdict(tc.a, tc.b, tc.better, tc.bound)
		if got != tc.want {
			t.Errorf("verdict(%v, %v, %s, %v) = %s, want %s", tc.a, tc.b, tc.better, tc.bound, got, tc.want)
		}
		if want := (tc.b - tc.a) / tc.a; change != want {
			t.Errorf("change = %v, want %v", change, want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"events_per_s","unit":"events/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	mk := func(eps, setup, failedShare float64) *result {
		return &result{Workloads: []workloadResult{{
			Name: "w", Events: 10, OutputSHA256: "x", FailedShare: failedShare,
			EndToEnd: map[string]metric{"events_per_s": {Value: eps}, "setup_s": {Value: setup}},
		}}}
	}
	for _, tc := range []struct {
		name  string
		a, b  *result
		worse bool
		want  string
	}{
		{"same", mk(100, 1, 0), mk(100, 1, 0), false, "within"},
		{"noise", mk(100, 1, 0), mk(95, 1.2, 0), false, "within"},
		{"slower", mk(100, 1, 0), mk(85, 1, 0), true, "worse"},
		{"faster", mk(100, 1, 0), mk(120, 1, 0), false, "better"},
		{"setup grew", mk(100, 1, 0), mk(100, 1.3, 0), true, "worse"},
		{"new failure", mk(100, 1, 0), mk(100, 1, 0.2), true, "worse"},
	} {
		var buf bytes.Buffer
		if got := compareResults(&buf, &spec, tc.a, tc.b); got != tc.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", tc.name, got, tc.worse, buf.String())
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.want, buf.String())
		}
	}
	missing := mk(100, 1, 0)
	delete(missing.Workloads[0].EndToEnd, "setup_s")
	if !compareResults(&bytes.Buffer{}, &spec, mk(100, 1, 0), missing) {
		t.Error("a metric missing from one side must count as worse")
	}
}

func TestTimedRefusesInstruments(t *testing.T) {
	var mem memDelta
	ran := false
	instruments.Add(1)
	_, err := timed(func() error { ran = true; return nil }, &mem)
	instruments.Add(-1)
	if err == nil || ran {
		t.Errorf("timed ran=%v err=%v with an instrument alive", ran, err)
	}
	if _, err := timed(func() error { return nil }, &mem); err != nil {
		t.Errorf("timed with nothing alive: %v", err)
	}
	_, err = timed(func() error {
		instruments.Add(1) // a digest left open
		return nil
	}, &mem)
	instruments.Add(-1)
	if err == nil {
		t.Error("an instrument started during a timed rep went unnoticed")
	}
}

// TestAllWorkloads runs the whole protocol once at a small scale and
// checks the shape of what comes out, the audit checks, and that the
// per-layer self times account for each traced rep's wall.
func TestAllWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{seed: 7, scale: testScale, reps: 1, traced: true, setupRounds: 1, root: root, dir: t.TempDir(), log: &bytes.Buffer{}}
	for _, s := range specs {
		cfg.workloads = append(cfg.workloads, s.name)
	}
	res, spans, err := runBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := instruments.Load(); n != 0 {
		t.Errorf("%d samplers or digests left alive", n)
	}

	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("result JSON does not parse: %v", err)
	}
	if len(back.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the result, want %d", len(back.Workloads), len(specs))
	}
	if back.Host.NProc < 1 || back.Host.GoVersion == "" || back.Host.Seed != 7 {
		t.Errorf("host record incomplete: %+v", back.Host)
	}
	for _, wr := range back.Workloads {
		if !nameRE.MatchString(wr.Name) {
			t.Errorf("workload name %q", wr.Name)
		}
		if wr.Failed != 0 || wr.FailedShare != 0 {
			t.Errorf("%s: %d of %d reps failed: %v", wr.Name, wr.Failed, wr.Ops, wr.FailedChecks)
		}
		if wr.Ops != 3 { // audit, one timed, traced
			t.Errorf("%s: ops = %d, want 3", wr.Name, wr.Ops)
		}
		if wr.Events <= 0 || len(wr.OutputSHA256) != 64 {
			t.Errorf("%s: events=%d sha=%q", wr.Name, wr.Events, wr.OutputSHA256)
		}
		for _, d := range endToEnd {
			m, ok := wr.EndToEnd[d.name]
			if !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: end-to-end %s = %+v (present %v)", wr.Name, d.name, m, ok)
			}
		}
		if len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", wr.Name, len(wr.PerLayer), len(perLayer))
		}
		for name, m := range wr.PerLayer {
			if !nameRE.MatchString(name) || m.Unit == "" {
				t.Errorf("%s: per-layer %q unit %q", wr.Name, name, m.Unit)
			}
		}
		if v := wr.PerLayer["sm.replay.violations"].Value; v != 0 {
			t.Errorf("%s: %v replay violations", wr.Name, v)
		}

		var sum int64
		for _, ns := range wr.LayerSelfNs {
			sum += ns
		}
		if sum != wr.TracedWallNs || sum <= 0 {
			t.Errorf("%s: layer self times sum to %d ns, traced wall is %d ns", wr.Name, sum, wr.TracedWallNs)
		}
		unattributed := 100 * float64(wr.LayerSelfNs["bench"]) / float64(wr.TracedWallNs)
		if got := wr.PerLayer["bench.unattributed_pct"].Value; got != unattributed || got < 0 || got > 5 {
			t.Errorf("%s: bench.unattributed_pct = %v, layers say %v", wr.Name, got, unattributed)
		}
	}

	// The workloads separate the layers as designed: whole layers are
	// absent where the pipeline does not contain them.
	by := map[string]workloadResult{}
	for _, wr := range back.Workloads {
		by[wr.Name] = wr
	}
	for _, tc := range []struct {
		workload, metric string
		present          bool
	}{
		{"gen_mem", "trace.radix.ns_per_event", true},
		{"gen_mem", "trace.merge.ns_per_event", false},
		{"gen_mem", "trace.encode.ns_per_event", false},
		{"gen_mem", "par.generate.speedup", true},
		{"gen_stream_wide", "trace.merge.ns_per_event", true},
		{"gen_stream_wide", "trace.encode.bytes_per_event", true},
		{"gen_stream_wide", "trace.radix.ns_per_event", false},
		{"gen_stream_deep", "core.source.first_batch_s", true},
		{"gen_stream_deep", "core.model.load_s", true},
		{"fit_stream", "core.fit.build_s", true},
		{"fit_stream", "trace.scan.mb_per_s", true},
		{"fit_stream", "core.engine.ns_per_event", false},
		{"storm", "world.sim.ns_per_event", true},
		{"storm", "mcn.storm.transactions", true},
		{"storm", "core.fit.build_s", false},
	} {
		if v := by[tc.workload].PerLayer[tc.metric].Value; (v != 0) != tc.present {
			t.Errorf("%s: %s = %v, want present=%v", tc.workload, tc.metric, v, tc.present)
		}
	}
	if wide, deep := by["gen_stream_wide"].PerLayer, by["gen_stream_deep"].PerLayer; wide["trace.merge.leaves"].Value <= deep["trace.merge.leaves"].Value ||
		wide["trace.encode.bytes_per_event"].Value >= deep["trace.encode.bytes_per_event"].Value {
		t.Errorf("wide must merge more leaves into fewer bytes per event than deep: %v %v", wide, deep)
	}

	for _, s := range spans {
		if s.Workload == "" || s.Name == "" || s.Layer == "" || s.End < s.Start || s.Busy > s.End-s.Start || s.Calls < 1 {
			t.Errorf("malformed span %+v", s)
		}
	}
}

// TestContractLine drives the command the way the driver does and checks
// the last line of output, untraced and traced.
func TestContractLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{
		{"0", endToEnd},
		{"1", perLayer},
	} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"--workload", "storm", "--seed", "3", "--seconds", "0.01", "--trace", tc.trace, "--scale", "0.02"}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit %d\n%s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
		}
		if len(got) != 4 {
			t.Errorf("keys %v, want correct, attempted, failed, metrics", got)
		}
		var line struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1+minTimedReps {
			t.Errorf("trace=%s: %+v", tc.trace, line)
		}
		if len(line.Metrics) != len(tc.defs) {
			t.Errorf("trace=%s: %d metrics, want %d", tc.trace, len(line.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := line.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace=%s: metric %s = %+v (present %v)", tc.trace, d.name, m, ok)
			}
		}
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in the code: the
// driver reads names, units and bounds from the file, the program prints
// them from the tables, and the two must not drift.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", file.Paths, file.Command)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", file.RunSeconds)
	}
	var gated []spec
	for _, s := range specs {
		if s.gated {
			gated = append(gated, s)
		}
	}
	if len(file.Workloads) != len(gated) {
		t.Fatalf("%d workloads in the file, %d gated in the code", len(file.Workloads), len(gated))
	}
	for i, s := range gated {
		if w := file.Workloads[i]; w.Name != s.name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: file has %q (%q), code has %q", i, w.Name, w.Why, s.name)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the file, %d in the code", kind, len(got), len(want))
		}
		for i, d := range want {
			e := got[i]
			if e.Name != d.name || e.Unit != d.unit || !nameRE.MatchString(e.Name) || len(e.Unit) > 16 {
				t.Errorf("%s %d: file has %s [%s], code has %s [%s]", kind, i, e.Name, e.Unit, d.name, d.unit)
			}
			if e.Better != "higher" && e.Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, e.Name, e.Better)
			}
			if bounded != (e.Bound != nil) || (bounded && (*e.Bound <= 0 || *e.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, e.Name, e.Bound)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer, false)
}
