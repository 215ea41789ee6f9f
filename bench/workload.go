package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"cptraffic/internal/baseline"
	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// env is what a workload builds its fixtures from. The program under
// test never sees the seed, only the inputs derived from it.
type env struct {
	seed  uint64
	scale float64
	// root is the module root, where scenarios/ lives; dir is the run's
	// scratch directory for generated input files.
	root, dir string
}

// ues scales a population, keeping at least floor UEs so the small
// scale the tests run at still clusters and merges.
func (e *env) ues(n, floor int) int {
	if s := int(float64(n) * e.scale); s > floor {
		return s
	}
	return floor
}

// counts collects the exact per-layer figures a workload reads off its
// own wrappers and outputs, keyed by per-layer metric name.
type counts map[string]float64

// rep says what kind of repetition run is asked for. The zero rep is the
// bare timed path: no recorder, no digest, no wrapper.
type rep struct {
	rec    *recorder // traced rep: spans around every public call
	audit  bool      // audit rep: digest the output, check order, keep the result
	counts counts    // audit and traced reps: where exact counts go
}

func (r rep) count(name string, v float64) {
	if r.counts != nil {
		r.counts[name] = v
	}
}

// outcome is what one rep produced.
type outcome struct {
	// events is how many events the rep generated or consumed, -1 when
	// the bare path cannot know without a counting wrapper (the streamed
	// generators); bytes is what reached the output writer. A timed rep
	// fails when either differs from the audit rep's.
	events, bytes int64
	root          int // traced rep: the workload's root span

	// Audit rep only.
	sha        string
	outOfOrder int64
	trace      *trace.Trace
	model      *core.ModelSet
}

// workload is one pipeline the benchmark drives through the packages'
// public functions.
type workload interface {
	// setup builds the fixtures from nothing; its wall time is setup_s.
	setup(e *env, rec *recorder, c counts) error
	// run is one repetition of the pipeline.
	run(r rep) (outcome, error)
	// check verifies the audit rep's outcome against references computed
	// another way and returns one line per failed check.
	check(out *outcome, rec *recorder, c counts) []string
	// replays times alone, on the traced rep's data, the children the
	// harness could not interpose on.
	replays(out outcome, rec *recorder, c counts) error
}

type spec struct {
	name string
	// gated says BENCHMARK.json lists the workload, so the driver runs it
	// and holds its numbers to the bounds. A workload that is not gated
	// runs by name and under -workload all like any other.
	gated bool
	new   func() workload
}

// specs lists the workloads in reporting order; BENCHMARK.json and the
// README say why each exists. gen_stream_wide is not gated: its 375 MB of
// run buffers are read at random, so its rate follows the host's shared
// cache and memory bus — reps of the same process measured 3.5 to 7.1 s —
// and no run length the time cap allows repeats within 25% (README,
// "Why gen_stream_wide is not gated").
var specs = []spec{
	{"gen_mem", true, func() workload { return &genMem{} }},
	{"gen_stream_wide", false, func() workload { return &genStream{name: "gen_stream_wide", ues: 250000, hours: 1, startHour: 18} }},
	{"gen_stream_deep", true, func() workload { return &genStream{name: "gen_stream_deep", ues: 2000, hours: 336, text: true} }},
	{"fit_stream", true, func() workload { return &fitStream{} }},
	{"storm", true, func() workload { return &storm{} }},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// output is every workload's byte sink: it discards and counts. The
// audit rep adds a digest and the traced rep a span; on the timed path
// both are nil.
type output struct {
	n, calls int64
	digest   hash.Hash
	rec      *recorder
	span     int
}

// newOutput opens the writer's span under parent.
func newOutput(r rep, parent int) *output {
	o := &output{rec: r.rec, span: r.rec.open("io.Writer.Write", "bench", parent)}
	if r.audit {
		instruments.Add(1)
		o.digest = sha256.New()
	}
	return o
}

func (o *output) Write(p []byte) (int, error) {
	t := o.rec.enter()
	o.n += int64(len(p))
	o.calls++
	if o.digest != nil {
		o.digest.Write(p)
	}
	o.rec.leave(o.span, t)
	return len(p), nil
}

// sum retires the digest and returns it in hex ("" without one).
func (o *output) sum() string {
	if o.digest == nil {
		return ""
	}
	instruments.Add(-1)
	s := hex.EncodeToString(o.digest.Sum(nil))
	o.digest = nil
	return s
}

// digestOf hashes whatever write produces; references are digested this
// way so a 200 MB text trace is never held.
func digestOf(write func(*output) error) (string, error) {
	o := newOutput(rep{audit: true}, noParent)
	err := write(o)
	return o.sum(), err
}

// fitOptions returns the paper's method with the given small-cluster
// threshold, single worker.
func fitOptions(thetaN int) (core.FitOptions, error) {
	opt, err := baseline.Options("ours", cluster.Options{ThetaN: thetaN})
	opt.Workers = 1
	return opt, err
}

// modelWorldSeed fixes the world the generate workloads' model is fitted
// on (what seed 1 gave under the issue's seed+2). A 400-UE world has a
// heavy-tailed activity level, so a model per seed moved gen_mem's event
// count and peak heap from -30% to +18% and every rate with them (README,
// "What the seed varies"); the benchmark's seed varies the generation
// instead.
const modelWorldSeed = 3

// buildModel is the fixture the generate workloads share: simulate a
// small world, fit it, and round-trip the model through its file format
// as a CLI user would. Each workload builds its own copy, so the time is
// charged to every workload that uses it.
func buildModel(e *env, rec *recorder, c counts) (*core.ModelSet, error) {
	var tr *trace.Trace
	err := rec.call("world.Generate", "world.sim", noParent, func() (err error) {
		tr, err = world.Generate(world.Options{NumUEs: e.ues(400, 120), Duration: cp.Day, Seed: modelWorldSeed, Workers: 1})
		return err
	})
	if err != nil {
		return nil, err
	}
	opt, err := fitOptions(40)
	if err != nil {
		return nil, err
	}
	var ms *core.ModelSet
	err = rec.call("core.Fit", "core.fit", noParent, func() (err error) {
		ms, err = core.Fit(tr, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = rec.call("ModelSet.Save", "core.model.save", noParent, func() error { return ms.Save(&buf) })
	if err != nil {
		return nil, err
	}
	c["core.model.bytes"] = float64(buf.Len())
	return loadModel(&buf, rec)
}

// loadModel reads a saved model back and validates it.
func loadModel(saved *bytes.Buffer, rec *recorder) (*core.ModelSet, error) {
	var ms *core.ModelSet
	err := rec.call("core.Load", "core.model.load", noParent, func() (err error) {
		ms, err = core.Load(saved)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ms, ms.Validate()
}

// ueMajor returns tr's events stably re-ordered by UE — each UE's events
// contiguous and in time order, which is exactly core.Generate's
// pre-sort buffer at one worker — and the offset of each UE's run
// (len = max UE id + 2). tr must be sorted and its UE ids dense.
func ueMajor(tr *trace.Trace) ([]trace.Event, []int) {
	var maxUE cp.UEID
	for ue := range tr.Device {
		if ue > maxUE {
			maxUE = ue
		}
	}
	offs := make([]int, int(maxUE)+2)
	for _, e := range tr.Events {
		offs[e.UE+1]++
	}
	for i := 1; i < len(offs); i++ {
		offs[i] += offs[i-1]
	}
	flat := make([]trace.Event, len(tr.Events))
	next := append([]int(nil), offs...)
	for _, e := range tr.Events {
		flat[next[e.UE]] = e
		next[e.UE]++
	}
	return flat, offs
}

// checkReplay replays every UE of tr through the LTE two-level machine
// and reports the violations as a failed check. A fitted model that
// generates a handover while IDLE, or a simulator that drifts from the
// protocol, shows here.
func checkReplay(tr *trace.Trace, c counts) []string {
	flat, offs := ueMajor(tr)
	m := sm.LTE2Level()
	start := time.Now()
	violations := 0
	for i := 0; i+1 < len(offs); i++ {
		evs := flat[offs[i]:offs[i+1]]
		violations += sm.Replay(m, sm.InferInitial(m, evs), evs).Violations
	}
	if n := len(flat); n > 0 {
		c["sm.replay.ns_per_event"] = float64(time.Since(start)) / float64(n)
	}
	c["sm.replay.violations"] = float64(violations)
	if violations != 0 {
		return []string{fmt.Sprintf("sm.Replay: %d protocol violations", violations)}
	}
	return nil
}
