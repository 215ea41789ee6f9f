// Command bench is the repo's benchmark: five pipeline workloads driven
// through the packages' public functions, three end-to-end metrics per
// workload, and per-layer attribution measured from outside. README.md
// in this directory says what every number means; BENCHMARK.json at the
// repo root is the contract it is run under.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric and its unit. Direction and regression
// bound live in BENCHMARK.json, which -compare reads.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"events_per_s", "events/s"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer is every per-layer metric, printed for every workload; a
// layer a workload does not touch reads 0 there.
var perLayer = []metricDef{
	{"core.engine.ns_per_event", "ns/event"},
	{"trace.radix.ns_per_event", "ns/event"},
	{"trace.merge.ns_per_event", "ns/event"},
	{"trace.merge.leaves", "count"},
	{"core.source.new_s", "s"},
	{"core.source.first_batch_s", "s"},
	{"trace.encode.ns_per_event", "ns/event"},
	{"trace.encode.bytes_per_event", "B/event"},
	{"trace.encode.batches", "count"},
	{"trace.encode.write_calls", "count"},
	{"trace.scan.ns_per_event", "ns/event"},
	{"trace.scan.mb_per_s", "MB/s"},
	{"core.fit.ingest.ns_per_event", "ns/event"},
	{"core.fit.build_s", "s"},
	{"core.fit.models", "count"},
	{"core.model.save_s", "s"},
	{"core.model.bytes", "B"},
	{"core.model.load_s", "s"},
	{"world.sim.ns_per_event", "ns/event"},
	{"mcn.storm.ns_per_event", "ns/event"},
	{"mcn.storm.transactions", "count"},
	{"mcn.storm.drops", "count"},
	{"mcn.storm.retries", "count"},
	{"mcn.storm.injected_attaches", "count"},
	{"mcn.report.write_s", "s"},
	{"sm.replay.ns_per_event", "ns/event"},
	{"sm.replay.violations", "count"},
	{"runtime.allocs_per_event", "allocs/event"},
	{"runtime.alloc_bytes_per_event", "B/event"},
	{"runtime.gc.cycles", "count"},
	{"runtime.gc.pause_ms", "ms"},
	{"par.generate.speedup", "x"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
}

// perEventLayers and onceLayers map a span layer's self time in the
// traced rep to its metric: divided by the workload's events, or as
// seconds for a layer that runs once per rep.
var perEventLayers = map[string]string{
	"core.engine":     "core.engine.ns_per_event",
	"trace.radix":     "trace.radix.ns_per_event",
	"trace.merge":     "trace.merge.ns_per_event",
	"trace.encode":    "trace.encode.ns_per_event",
	"trace.scan":      "trace.scan.ns_per_event",
	"core.fit.ingest": "core.fit.ingest.ns_per_event",
	"world.sim":       "world.sim.ns_per_event",
	"mcn.storm":       "mcn.storm.ns_per_event",
}

var onceLayers = map[string]string{
	"core.source":    "core.source.new_s",
	"core.fit.build": "core.fit.build_s",
	"mcn.report":     "mcn.report.write_s",
}

// metric is one reported value. N, Min and Max are set where the value
// is a median over N samples.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name         string            `json:"name"`
	Events       int64             `json:"events"`
	OutputSHA256 string            `json:"output_sha256"`
	Ops          int               `json:"ops"`
	Failed       int               `json:"failed"`
	FailedShare  float64           `json:"failed_share"`
	FailedChecks []string          `json:"failed_checks,omitempty"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
	// TracedWallNs is the traced rep's root span; LayerSelfNs splits
	// exactly that interval by layer ("bench" is what the harness could
	// not attribute).
	TracedWallNs int64            `json:"traced_wall_ns,omitempty"`
	LayerSelfNs  map[string]int64 `json:"layer_self_ns,omitempty"`
}

// host is the record of where and how a result was measured.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Reps       int     `json:"reps"`
	Seconds    float64 `json:"seconds"`
}

type result struct {
	Host      host             `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

// config is one run's settings.
type config struct {
	workloads []string
	seed      uint64
	scale     float64
	// Timed reps per workload: reps when seconds is 0, else as many as
	// fit in seconds of rep time, never fewer than minTimedReps.
	reps    int
	seconds float64
	traced  bool
	// setupRounds is the least number of times each fixture set is built;
	// a fixture is rebuilt until setupFloor seconds have gone into it.
	setupRounds int
	setupFloor  float64
	root, dir   string
	log         io.Writer
}

const (
	minTimedReps = 3
	// Every fixture is rebuilt until this much time has gone into it, so
	// the quick ones get a median over many samples.
	setupFloorSeconds = 2.5
	maxSetupRounds    = 200
)

// state is one workload's progress through the protocol.
type state struct {
	spec   spec
	w      workload
	rec    *recorder
	counts counts

	setups   []float64
	audit    outcome
	peakMiB  float64
	attempts int       // timed reps started
	times    []float64 // seconds of each that succeeded
	mem      memDelta
	ops      int
	failures []string
	traced   outcome
}

// timedDone reports whether the workload has its timed reps: a fixed
// count, or as many as fit in cfg.seconds of rep time without the next
// one running over. One failed rep ends the timing; the result is
// already a failure.
func (st *state) timedDone(cfg *config) bool {
	n := len(st.times)
	if n < st.attempts {
		return true
	}
	if cfg.seconds <= 0 {
		return n >= cfg.reps
	}
	var sum float64
	for _, t := range st.times {
		sum += t
	}
	return n >= minTimedReps && sum+sum/float64(n) > cfg.seconds
}

// runBench drives the protocol: set-up rounds, one audit rep per
// workload, timed reps round-robin across workloads, one traced rep.
func runBench(cfg *config) (*result, []span, error) {
	var states []*state
	for _, name := range cfg.workloads {
		sp, ok := findSpec(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		states = append(states, &state{spec: sp})
	}
	e := &env{seed: cfg.seed, scale: cfg.scale, root: cfg.root, dir: cfg.dir}

	// One processor, like one worker: on this shared 2-core host the
	// collector's background workers on the second core made gen_mem reps
	// 40% slower and three times as scattered (README, "One processor").
	// Only the audit rep's sampler and the par.generate rep get them all.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)

	for _, st := range states {
		var total float64
		for round := 0; round < maxSetupRounds && (round < cfg.setupRounds || total < cfg.setupFloor); round++ {
			st.w, st.rec, st.counts = st.spec.new(), newRecorder(st.spec.name), counts{}
			start := time.Now()
			if err := st.w.setup(e, st.rec, st.counts); err != nil {
				return nil, nil, fmt.Errorf("%s: set-up: %w", st.spec.name, err)
			}
			d := time.Since(start).Seconds()
			st.setups = append(st.setups, d)
			total += d
		}
		fmt.Fprintf(cfg.log, "%s: set-up done (%d rounds)\n", st.spec.name, len(st.setups))
	}

	// Audit rep: also the warm-up. Memory is measured here and nowhere else.
	for _, st := range states {
		st.ops++
		var err error
		start := time.Now()
		st.peakMiB, err = sampled(func() (err error) {
			st.audit, err = st.w.run(rep{audit: true, counts: st.counts})
			return err
		})
		if err != nil {
			st.failures = append(st.failures, "audit rep: "+err.Error())
			continue
		}
		repS := time.Since(start).Seconds()
		failed := st.w.check(&st.audit, st.rec, st.counts)
		if len(failed) > 0 {
			st.failures = append(st.failures, "audit rep: "+strings.Join(failed, "; "))
		}
		// The checks are done with what the rep produced; timed reps must
		// not start with it on the heap.
		st.audit.trace, st.audit.model = nil, nil
		fmt.Fprintf(cfg.log, "%s: audit rep %.2f s, checks %.2f s: events=%d bytes=%d output_sha256=%s checks_failed=%d\n",
			st.spec.name, repS, time.Since(start).Seconds()-repS, st.audit.events, st.audit.bytes, st.audit.sha, len(failed))
	}

	// Timed reps, one per workload per round, so a noisy stretch of the
	// host costs each workload at most a rep or two and the median drops it.
	for {
		ran := false
		for _, st := range states {
			if st.timedDone(cfg) {
				continue
			}
			ran = true
			st.attempts++
			st.ops++
			var out outcome
			d, err := timed(func() (err error) {
				out, err = st.w.run(rep{})
				return err
			}, &st.mem)
			switch {
			case err != nil:
				st.failures = append(st.failures, fmt.Sprintf("timed rep %d: %v", st.attempts, err))
			case out.bytes != st.audit.bytes || (out.events >= 0 && out.events != st.audit.events):
				st.failures = append(st.failures, fmt.Sprintf("timed rep %d: %d events, %d bytes; audit rep had %d, %d",
					st.attempts, out.events, out.bytes, st.audit.events, st.audit.bytes))
			default:
				st.times = append(st.times, d.Seconds())
				fmt.Fprintf(cfg.log, "%s: timed rep %d %.4f s\n", st.spec.name, st.attempts, d.Seconds())
			}
		}
		if !ran {
			break
		}
	}

	if cfg.traced {
		for _, st := range states {
			st.ops++
			var err error
			runtime.GC() // the state every timed rep starts from
			st.traced, err = st.w.run(rep{rec: st.rec, counts: st.counts})
			if err == nil {
				err = st.w.replays(st.traced, st.rec, st.counts)
			}
			st.traced.trace = nil
			if err != nil {
				st.failures = append(st.failures, "traced rep: "+err.Error())
			}
		}
	}

	res := &result{Host: hostRecord(cfg, procs)}
	var spans []span
	for _, st := range states {
		res.Workloads = append(res.Workloads, st.report(cfg))
		spans = append(spans, st.rec.spans...)
	}
	return res, spans, nil
}

// report turns a workload's measurements into its named metrics.
func (st *state) report(cfg *config) workloadResult {
	events := float64(st.audit.events)
	wr := workloadResult{
		Name: st.spec.name, Events: st.audit.events, OutputSHA256: st.audit.sha,
		Ops: st.ops, Failed: len(st.failures), FailedChecks: st.failures,
		EndToEnd: map[string]metric{},
	}
	wr.FailedShare = float64(wr.Failed) / float64(wr.Ops)

	reps := summarize(st.times)
	if reps.n > 0 && events > 0 {
		// The slowest rep is the lowest rate.
		wr.EndToEnd["events_per_s"] = metric{Value: events / reps.median, Unit: "events/s", N: reps.n, Min: events / reps.max, Max: events / reps.min}
	}
	wr.EndToEnd["peak_heap_mb"] = metric{Value: st.peakMiB, Unit: "MiB", N: 1}
	setups := summarize(st.setups)
	wr.EndToEnd["setup_s"] = metric{Value: setups.median, Unit: "s", N: setups.n, Min: setups.min, Max: setups.max}

	if !cfg.traced || st.traced.events == 0 || reps.n == 0 {
		return wr
	}
	c := st.counts
	spans := st.rec.spans
	root := spans[st.traced.root]
	wr.TracedWallNs = root.Busy
	wr.LayerSelfNs = selfTimes(spans, st.traced.root)
	for layer, name := range perEventLayers {
		c[name] = float64(wr.LayerSelfNs[layer]) / events
	}
	for layer, name := range onceLayers {
		c[name] = float64(wr.LayerSelfNs[layer]) / 1e9
	}
	// Save and Load happen in set-up for the generate workloads and in
	// the rep for fit_stream; either way they are spans of those layers.
	c["core.model.save_s"] = float64(busyOf(spans, "core.model.save")) / 1e9
	c["core.model.load_s"] = float64(busyOf(spans, "core.model.load")) / 1e9
	n := float64(reps.n)
	c["runtime.allocs_per_event"] = float64(st.mem.mallocs) / n / events
	c["runtime.alloc_bytes_per_event"] = float64(st.mem.bytes) / n / events
	c["runtime.gc.cycles"] = float64(st.mem.gcCycles) / n
	c["runtime.gc.pause_ms"] = float64(st.mem.pauseNs) / n / 1e6
	if par := busyOf(spans, "par.generate"); par > 0 {
		c["par.generate.speedup"] = reps.median / (float64(par) / 1e9)
	}
	c["bench.trace_overhead_pct"] = 100 * (float64(root.Busy)/1e9 - reps.median) / reps.median
	c["bench.unattributed_pct"] = 100 * float64(wr.LayerSelfNs["bench"]) / float64(root.Busy)

	wr.PerLayer = map[string]metric{}
	for _, d := range perLayer {
		wr.PerLayer[d.name] = metric{Value: c[d.name], Unit: d.unit}
	}
	return wr
}

// hostRecord describes the machine and the run; procs is GOMAXPROCS as
// found, before the benchmark set it to 1.
func hostRecord(cfg *config, procs int) host {
	h := host{
		NProc: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Seed: cfg.seed, Scale: cfg.scale, Reps: cfg.reps, Seconds: cfg.seconds,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// findRoot walks up from the working directory to the module the
// benchmark measures, so scenarios/ resolves the same under `go run`,
// under `go test` and from the repo root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			if first, _, _ := strings.Cut(string(data), "\n"); strings.TrimSpace(first) == "module cptraffic" {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("module cptraffic not found above the working directory")
		}
		dir = parent
	}
}

// printResult writes every metric by name with its unit.
func printResult(w io.Writer, res *result) {
	h := res.Host
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d %s cpu=%q seed=%d scale=%g reps=%d seconds=%g\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.Seed, h.Scale, h.Reps, h.Seconds)
	line := func(wl string, d metricDef, m metric) {
		fmt.Fprintf(w, "%-16s %-30s %16.6g %-12s", wl, d.name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d median=%.6g min=%.6g max=%.6g", m.N, m.Value, m.Min, m.Max)
		}
		fmt.Fprintln(w)
	}
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "%-16s events=%d output_sha256=%s\n", wr.Name, wr.Events, wr.OutputSHA256)
		for _, d := range endToEnd {
			line(wr.Name, d, wr.EndToEnd[d.name])
		}
		fmt.Fprintf(w, "%-16s %-30s %16.6g %-12s ops=%d failed=%d\n", wr.Name, "failed_share", wr.FailedShare, "share", wr.Ops, wr.Failed)
		for _, f := range wr.FailedChecks {
			fmt.Fprintf(w, "%-16s FAILED %s\n", wr.Name, f)
		}
		if wr.PerLayer == nil {
			continue
		}
		for _, d := range perLayer {
			line(wr.Name, d, wr.PerLayer[d.name])
		}
	}
}

// contractLine is the one-object summary the driver reads from the last
// line of a single-workload run: end-to-end metrics untraced, per-layer
// metrics traced.
func contractLine(wr workloadResult, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	defs, from := endToEnd, wr.EndToEnd
	if traced {
		defs, from = perLayer, wr.PerLayer
	}
	for _, d := range defs {
		if m, ok := from[d.name]; ok {
			metrics[d.name] = value{m.Value, m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Ops, wr.Failed, metrics})
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// run is main without the exit: 0 for a clean run, 1 when an output
// check failed or -compare found something worse, 2 when the benchmark
// itself could not run.
func run(args []string, stdout, stderr io.Writer) int {
	code, err := runArgs(args, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}

func runArgs(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Uint64("seed", 1, "seed the generated inputs are derived from")
		reps     = fs.Int("reps", 5, "timed reps per workload when -seconds is 0")
		seconds  = fs.Float64("seconds", 0, "fill this much rep time per workload instead of counting -reps (never fewer than 3 reps)")
		traced   = fs.Int("trace", 1, "1 adds the traced rep and the per-layer metrics, 0 leaves them out")
		scale    = fs.Float64("scale", 1, "multiplies every population; below 1 only for tests")
		out      = fs.String("out", "", "write the full result as JSON to this file")
		traceOut = fs.String("trace-out", "", "write the recorded spans as JSON to this file")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
		specPath = fs.String("spec", "", "BENCHMARK.json to take bounds from (default: the one at the module root)")
	)
	if err := fs.Parse(args); err != nil {
		return 2, nil // the flag set has already said why
	}
	root, err := findRoot()
	if err != nil {
		return 0, err
	}
	if *compare {
		if fs.NArg() != 2 {
			return 0, fmt.Errorf("-compare takes two result files")
		}
		if *specPath == "" {
			*specPath = filepath.Join(root, "BENCHMARK.json")
		}
		return compareFiles(stdout, *specPath, fs.Arg(0), fs.Arg(1))
	}

	cfg := &config{
		seed: *seed, scale: *scale, reps: *reps, seconds: *seconds, traced: *traced != 0,
		setupRounds: 5, setupFloor: setupFloorSeconds, root: root, log: stderr,
	}
	if *workload == "all" {
		for _, s := range specs {
			cfg.workloads = append(cfg.workloads, s.name)
		}
	} else {
		cfg.workloads = []string{*workload}
	}
	// Generated input files stay inside the checkout.
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return 0, err
	}
	if cfg.dir, err = os.MkdirTemp(tmp, "run-"); err != nil {
		return 0, err
	}
	defer os.RemoveAll(cfg.dir)

	res, spans, err := runBench(cfg)
	if err != nil {
		return 0, err
	}
	printResult(stdout, res)
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			return 0, err
		}
	}
	if *traceOut != "" {
		if err := writeJSON(*traceOut, spans); err != nil {
			return 0, err
		}
	}
	code := 0
	for _, wr := range res.Workloads {
		if wr.Failed > 0 {
			code = 1
		}
	}
	if len(res.Workloads) == 1 {
		line, err := contractLine(res.Workloads[0], cfg.traced)
		if err != nil {
			return 0, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return code, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
