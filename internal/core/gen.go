package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// GenOptions configures trace synthesis.
type GenOptions struct {
	// NumUEs is the synthetic population size (any size — the model is
	// per-UE, so it scales to populations far larger than the training
	// trace, the paper's Scenario 2).
	NumUEs int
	// StartHour is the hour-of-day H at which generation starts (§7).
	StartHour int
	// Duration is the length of the synthesized window: every event
	// fires inside [StartHour*Hour, StartHour*Hour+Duration). A UE's last
	// firing may stamp a few events just past the end (see Generate).
	Duration cp.Millis
	// Seed makes the output deterministic; each UE derives an
	// independent stream from it.
	Seed uint64
	// Workers bounds the number of concurrent per-UE generators in
	// Generate; 0 means GOMAXPROCS. It never affects the output, only the
	// wall clock. Source ignores it: it fills one time window at a time,
	// serially.
	Workers int
	// DeviceMix optionally overrides the device-type population shares;
	// nil uses the training trace's shares.
	DeviceMix []float64
}

// maxEventsPerUE is a safety valve against pathological fitted models
// (e.g. a zero-width sojourn on a self-loop); no realistic UE comes
// anywhere near it.
const maxEventsPerUE = 1 << 20

// minSojournSec keeps generated events strictly advancing in time: two
// control events of one UE are never closer than 1 ms (the trace
// granularity).
const minSojournSec = 0.001

// Generate synthesizes a control-plane trace for opt.NumUEs UEs starting
// at hour opt.StartHour, by running one per-UE semi-Markov generator per
// UE concurrently (§7), and returns it sorted. Every event *fires* inside
// the window [StartHour*Hour, StartHour*Hour+Duration), but a firing may
// stamp events past its own time: when a top-level event is illegal from
// the current sub-state, the engine first flushes the sub-machine (step,
// case 1), one event per millisecond from the firing time, and the top
// event follows them. A UE's last firing can therefore leave up to
// windowOvershoot events with T in [end, end+windowOvershoot). Source
// emits exactly the same events.
//
// The model is first lowered into a compiled form (compile.go) so the
// per-event work is pure array indexing. There is one engine: the
// interpreter that walks the ModelSet directly lives in interp_test.go,
// as the oracle compile_test.go holds these bytes to. The population is
// ordered into a trace by trace.Population, the driver world.Generate
// shares: assembly and memory are described there.
func Generate(ms *ModelSet, opt GenOptions) (*trace.Trace, error) {
	p, err := planGeneration(ms, opt)
	if err != nil {
		return nil, err
	}
	return p.population().Generate(opt.Workers)
}

// Source is a generator-backed trace.EventSource: scanning it draws the
// synthetic population on the fly, so a trace of any size can be fitted,
// evaluated, or written to disk without ever materializing it. It holds
// one ueGen (168 B) and one pending time per UE plus a window of events
// whose size does not depend on the population. Both Devices and the scans
// re-derive the population from the seed, so the source is re-iterable and
// successive passes agree. The options are validated and the model
// compiled once, in NewSource, and shared by every scan.
type Source struct {
	pop *trace.Population[ueGen]
}

// NewSource validates the generation options once, compiles the model,
// and returns the lazy source; nothing is drawn — no population, no
// events — until Devices or a scan.
func NewSource(ms *ModelSet, opt GenOptions) (*Source, error) {
	p, err := planGeneration(ms, opt)
	if err != nil {
		return nil, err
	}
	return &Source{pop: p.population()}, nil
}

// Devices reports every planned UE's device type in ascending UE order.
func (s *Source) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	return s.pop.Devices(fn)
}

// ScanBatches generates the population's events in canonical order, a
// time window at a time (trace.Population.ScanBatches), in reused
// struct-of-arrays batches.
func (s *Source) ScanBatches(fn func(*trace.Batch) error) error {
	return s.pop.ScanBatches(fn)
}

// population is the plan as the trace driver's per-UE streams: one ueGen
// per UE, initialized in place from the UE's derived job and drained by
// the engine's one delivery loop.
func (p *genPlan) population() *trace.Population[ueGen] {
	clocks := new(clockSlab)
	return &trace.Population[ueGen]{
		N:      p.numUEs,
		T0:     p.t0,
		TMax:   p.end + windowOvershoot - 1,
		Device: func(i int) cp.DeviceType { return p.job(i).dev },
		Init: func(g *ueGen, i int) {
			j := p.job(i)
			g.init(p.cm, j.cd, j.ue, j.rng, p.t0, p.end, clocks)
		},
		Drain: (*ueGen).drainUntil,
	}
}

// genJob is one UE's generation assignment, derived on demand
// (genPlan.job) rather than held for the whole population.
type genJob struct {
	ue  cp.UEID
	dev cp.DeviceType
	cd  *cDevice // dev's compiled model: never nil, deviceMix picks only modelled devices
	rng stats.RNG
}

// genPlan is the validated, resolved form of (model, options) every
// generation entry starts from: the compiled model, the device mix and
// the window. It holds no per-UE state — job derives the population.
type genPlan struct {
	cm      *compiledModel
	mix     []float64
	numUEs  int
	root    stats.RNG // the seed's stream, which every UE's splits from
	t0, end cp.Millis
}

// planGeneration validates the options and lowers the model, whose error
// (Validate's) comes before the device mix's.
func planGeneration(ms *ModelSet, opt GenOptions) (genPlan, error) {
	if opt.NumUEs <= 0 {
		return genPlan{}, fmt.Errorf("core: NumUEs must be positive")
	}
	if opt.StartHour < 0 || opt.StartHour >= HoursPerDay {
		return genPlan{}, fmt.Errorf("core: StartHour %d out of range", opt.StartHour)
	}
	t0 := cp.Millis(opt.StartHour) * cp.Hour
	if opt.Duration <= 0 {
		return genPlan{}, fmt.Errorf("core: Duration must be positive")
	}
	if opt.Duration > math.MaxInt64-windowOvershoot-t0 {
		return genPlan{}, fmt.Errorf("core: StartHour %d plus Duration %d ms ends past the largest time", opt.StartHour, opt.Duration)
	}
	cm, err := ms.lower()
	if err != nil {
		return genPlan{}, err
	}
	mix, err := deviceMix(ms, opt.DeviceMix)
	if err != nil {
		return genPlan{}, err
	}
	return genPlan{cm: cm, mix: mix, numUEs: opt.NumUEs, root: stats.NewRNGVal(opt.Seed), t0: t0, end: t0 + opt.Duration}, nil
}

// job derives UE i's device and RNG stream from the seed alone, so
// results depend neither on scheduling nor on how often the population is
// derived.
func (p *genPlan) job(i int) genJob {
	j := genJob{ue: cp.UEID(i), rng: p.root.SplitVal(uint64(i) + 1)}
	j.dev = pickDevice(p.mix, &j.rng)
	j.cd = p.cm.dev(j.dev)
	return j
}

// deviceMix resolves the device-type population shares (none for a device
// past cp.NumDeviceTypes).
func deviceMix(ms *ModelSet, override []float64) ([]float64, error) {
	mix := make([]float64, cp.NumDeviceTypes)
	if override != nil {
		if len(override) != cp.NumDeviceTypes {
			return nil, fmt.Errorf("core: DeviceMix must have %d entries", cp.NumDeviceTypes)
		}
		copy(mix, override)
	} else {
		for d := range mix {
			if dm := ms.Device(cp.DeviceType(d)); dm != nil {
				mix[d] = dm.Share
			}
		}
	}
	var sum float64
	for d, m := range mix {
		if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("core: device mix share %v for %v is not a finite non-negative number", m, cp.DeviceType(d))
		}
		if m > 0 && ms.Device(cp.DeviceType(d)) == nil {
			return nil, fmt.Errorf("core: DeviceMix requests %v but the model has no such device", cp.DeviceType(d))
		}
		sum += m
	}
	if !(sum > 0 && sum <= math.MaxFloat64) {
		return nil, fmt.Errorf("core: empty device mix, or shares summing past the largest float")
	}
	for d := range mix {
		mix[d] /= sum
	}
	return mix, nil
}

func pickDevice(mix []float64, r *stats.RNG) cp.DeviceType {
	u := r.Float64()
	var acc float64
	for d, m := range mix {
		acc += m
		if u < acc {
			return cp.DeviceType(d)
		}
	}
	for d := len(mix) - 1; d >= 0; d-- {
		if mix[d] > 0 {
			return cp.DeviceType(d)
		}
	}
	return cp.Phone
}

// pending is a scheduled future event of one level of the generator.
type pending struct {
	at    cp.Millis
	ev    cp.EventType
	valid bool
	// toTop / toBot are the successor states (only one is meaningful,
	// depending on which level owns the pending event).
	toTop cp.UEState
	toBot sm.State
}

// ueGen is the compiled per-UE traffic generator (§7): a two-level
// semi-Markov race running on the dense compiledModel tables, so the
// steady-state step performs no map lookups, no fallback-chain walks, no
// edge-list scans, and no allocations (TestUEGenSteadyStateAllocs).
// Draw-for-draw it consumes the RNG exactly like the test oracle that
// walks the ModelSet directly (interp_test.go), so the two produce
// byte-identical traces.
//
// A Source holds one ueGen per UE, so the fields are packed:
// TestUEGenSize keeps the struct at or below 192 B.
type ueGen struct {
	cm *compiledModel
	cd *cDevice

	// cell is the parameter cell cellAt resolved last, valid for times in
	// [cellLo, cellHi): one hour of the day, whose cell the UE's fixed
	// persona decides. An empty range (the zero value) caches nothing.
	cell           *cCell
	cellLo, cellHi cp.Millis

	rng     stats.RNG // by value: the generator is self-contained, slab-friendly state
	t0, end cp.Millis
	topP    pending
	botP    pending

	// free[e] holds the next firing time of the free-running process of
	// event type e while bit e of freeOn is set: the interpreter's map as
	// a fixed array and a mask, so the race visits only armed clocks —
	// none at all for models without free processes, whose generators
	// have no array (init takes one from a clockSlab only for a device
	// whose cells arm a clock, cDevice.clocks).
	free *[cp.NumEventTypes]cp.Millis

	// qt stamps the staging queue: queue holds the types of events
	// already decided but not yet delivered, queue[i] stamped qt+i; qhead
	// is the next to deliver, qlen the fill level. One startup or step
	// call fills it from empty with events a millisecond apart (the case-1
	// flush, then the top event), so one time stands for all of them, and
	// the UE id they carry is ue. A step pushes at most windowOvershoot+1
	// events (the flush guard in step bounds case 1) and the queue always
	// drains fully between steps, so a fixed-size array suffices — no
	// per-UE heap allocation at all.
	qt cp.Millis

	ue         cp.UEID
	personaIdx int32
	emitted    int32 // at most maxEventsPerUE plus one queue
	top        cp.UEState
	bottom     sm.State
	started    bool
	exhausted  bool
	qhead      uint8 // see qt
	qlen       uint8
	freeOn     uint8 // see free
	queue      [ueGenQueueCap]cp.EventType
}

// freeOn has a bit for every event type: this fails to compile otherwise.
var _ [8 - cp.NumEventTypes]struct{}

// windowOvershoot bounds how far past its own firing time one step can
// stamp an event: the case-1 flush guard emits up to windowOvershoot
// sub-machine events a millisecond apart before the top event. Firings
// are strictly inside the window, so no event reaches end+windowOvershoot
// — the span Generate's key layout declares.
const windowOvershoot = 8

// ueGenQueueCap leaves slack above the windowOvershoot+1 events one
// startup or step call can push (the flushed sub-machine events plus the
// top event), so the bound is not load-bearing on the exact guard constant.
const ueGenQueueCap = 12

// init (re)initializes the generator in place, so per-worker code can
// reuse one ueGen value — or a slab of them — across the whole
// population instead of heap-allocating one per UE. A generator that
// needs free-event clocks and has none takes an array from clocks.
func (g *ueGen) init(cm *compiledModel, cd *cDevice, ue cp.UEID, rng stats.RNG, t0, end cp.Millis, clocks *clockSlab) {
	free := g.free // a clock array outlives its UE: drawFree sets a clock before arming it
	*g = ueGen{cm: cm, cd: cd, ue: ue, rng: rng, t0: t0, end: end, personaIdx: -1, free: free}
	if cd.clocks && free == nil {
		g.free = clocks.take()
	}
	if len(cd.personaCum) > 0 {
		g.personaIdx = int32(pickByCum(cd.personaCum, g.rng.Float64()))
	}
}

// clockChunk is how many clock arrays a clockSlab allocates at once:
// 12 KiB, so a scan of N Base UEs makes N/256 allocations, not N.
const clockChunk = 256

// clockSlab hands out the free-event clock arrays of one population's
// generators a chunk at a time. A scan's slab of generators takes one
// per UE; Generate's workers reuse theirs across their UEs and take one
// each, concurrently, hence the lock.
type clockSlab struct {
	mu    sync.Mutex
	chunk [][cp.NumEventTypes]cp.Millis
}

// take returns an unused clock array.
func (c *clockSlab) take() *[cp.NumEventTypes]cp.Millis {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.chunk) == 0 {
		c.chunk = make([][cp.NumEventTypes]cp.Millis, clockChunk)
	}
	a := &c.chunk[0]
	c.chunk = c.chunk[1:]
	return a
}

// pickByCum returns the first index whose cumulative probability
// exceeds u, defaulting to the last — the index the interpreter's serial
// accumulation stops at — by binary search, which needs cum nondecreasing
// (compileDevice keeps the persona sums so). Over such sums "u < cum[i]"
// is false up to one index and true from there on, equal sums (zero-weight
// personas) included, so the search lands where the linear scan stops.
func pickByCum(cum []float64, u float64) int {
	lo, hi := 0, len(cum)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if u < cum[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return min(lo, len(cum)-1)
}

// drainUntil advances the generator up to limit: it appends the packed key
// of every event with T < limit to run and returns the time of the
// stream's next event — at least limit — or trace.NoPending once the
// window is done. It is the engine's one delivery loop. The engine runs
// one firing ahead: it steps whenever the queue is empty, and whatever a
// step stamps at or past limit waits in the queue (a case-1 flush can
// straddle it). The race is therefore scanned once per firing, the time
// returned is exact, and however the timeline is cut into rising limits
// the calls together deliver the sequence one unlimited call would, from
// the same RNG draws (TestDrainUntilMatchesNext). Generate's workers call
// it once per UE with no limit; the streaming Source calls it once per
// time window the UE fires in. Queued events move one engine step at a
// time instead of a pop per event, and nothing crosses an interface.
//
//cplint:hotpath the engine's steady state, one pack-and-append per step; TestUEGenSteadyStateAllocs gates it at exactly 0 allocs
func (g *ueGen) drainUntil(limit cp.Millis, lay *trace.KeyLayout, run *trace.KeyRun) cp.Millis {
	for {
		if g.qhead < g.qlen {
			// Queued events deliver unconditionally; the safety cap only
			// stops further stepping.
			t := g.qt + cp.Millis(g.qhead)
			q := g.queue[g.qhead:g.qlen]
			n := len(q)
			if t+cp.Millis(n-1) >= limit { // otherwise all of it is due
				for n = 0; t+cp.Millis(n) < limit; n++ {
				}
			}
			run.AppendTicks(lay, g.ue, t, q[:n])
			g.emitted += int32(n)
			if n < len(q) {
				g.qhead += uint8(n)
				return t + cp.Millis(n)
			}
			g.qhead, g.qlen = 0, 0
		}
		if g.exhausted || g.emitted >= maxEventsPerUE {
			return trace.NoPending
		}
		if !g.started {
			g.startup()
			continue
		}
		g.step()
	}
}

// cellAt returns the compiled parameter cell for time t. The cell is a
// function of t's hour of day alone (the persona is fixed per UE), so the
// one resolved last is reused while t stays inside its hour; a firing's
// three draws and every firing after it in the same hour resolve nothing.
func (g *ueGen) cellAt(t cp.Millis) *cCell {
	if t >= g.cellLo && t < g.cellHi {
		return g.cell
	}
	return g.resolveCell(t)
}

// resolveCell is cellAt's miss: the persona's cluster for the hour, with
// -1 (the fallback cell) when the UE has no persona, cached with the
// bounds of t's hour. HourOfDay is constant on [lo, lo+Hour) for lo a
// non-negative multiple of Hour; a time outside that arithmetic's range
// (the engine never draws at one) is resolved and not cached.
func (g *ueGen) resolveCell(t cp.Millis) *cCell {
	h := t.HourOfDay()
	cl := int16(-1)
	if g.personaIdx >= 0 {
		cl = g.cd.personaCl[g.personaIdx][h]
	}
	g.cell = &g.cd.cells[h][cl+1]
	g.cellLo, g.cellHi = 0, 0
	if t >= 0 && t <= math.MaxInt64-cp.Hour {
		g.cellLo = t - t%cp.Hour
		g.cellHi = g.cellLo + cp.Hour
	}
	return g.cell
}

// push queues an event of type e, stamped a millisecond after the one
// queued before it, or at qt if the queue is empty.
//
//cplint:hotpath writes into the fixed-size staging queue, no allocation ever
func (g *ueGen) push(e cp.EventType) {
	g.queue[g.qlen] = e
	g.qlen++
}

// startup finds the first event (§5.4): a UE silent in one hour re-rolls
// the next hour's first-event model. Draw order per hour matches
// FirstEventModel.sample: the PNone draw, then (if active) the category
// draw and the offset sample.
func (g *ueGen) startup() {
	g.started = true
	for hourStart := g.t0; hourStart < g.end; hourStart += cp.Hour {
		cf := &g.cellAt(hourStart).first
		if len(cf.cats) == 0 {
			continue
		}
		if g.rng.Float64() < cf.pnone {
			continue
		}
		u := g.rng.Float64()
		cat := &cf.cats[len(cf.cats)-1]
		for i := range cf.cats {
			if u < cf.cats[i].cum {
				cat = &cf.cats[i]
				break
			}
		}
		off := cf.offset.sample(&g.rng)
		if off < 0 {
			off = 0
		}
		if off >= 3600 {
			off = 3599.999
		}
		t := hourStart + cp.MillisFromSeconds(off)
		if t >= g.end {
			break
		}
		g.qt = t
		g.push(cat.ev)
		// The fitted category carries the post-event machine state
		// (compile resolved the out-of-range → Forced fallback).
		g.top = cat.top
		g.bottom = cat.fine
		g.drawTop(t)
		g.drawBot(t)
		g.drawFree(t)
		return
	}
	g.exhausted = true
}

// step advances the two-level race by one firing, pushing the resulting
// event(s) onto the queue (or marking the generator exhausted).
//
//cplint:hotpath the compiled engine step: runs once per generated event
func (g *ueGen) step() {
	next := cp.Millis(math.MaxInt64)
	kind := 0 // 0 none, 1 top, 2 bottom, 3 free
	var freeEv cp.EventType
	if g.topP.valid && g.topP.at < next {
		next, kind = g.topP.at, 1
	}
	if g.botP.valid && g.botP.at < next {
		next, kind = g.botP.at, 2
	}
	// The armed clocks in ascending event-type order, same tie-break as
	// the interpreter's scan over cp.EventTypes; with none armed (every
	// ours/v2 model) there is nothing to scan.
	for on := g.freeOn; on != 0; on &= on - 1 {
		e := bits.TrailingZeros8(on)
		if g.free[e] < next {
			next, kind, freeEv = g.free[e], 3, cp.EventType(e)
		}
	}
	if kind == 0 || next >= g.end {
		g.exhausted = true
		return
	}
	g.qt = next
	switch kind {
	case 1:
		// The top event must be legal from the current bottom state
		// (the starred arrow in Fig. 5: SRV_REQ may not leave IDLE from
		// TAU_S_IDLE). If it is not, flush the sub-machine first: the
		// protocol mandates the TAU's S1_CONN_REL before the connection
		// can be re-established.
		at := next
		for guard := 0; guard < windowOvershoot; guard++ {
			if g.cm.next[g.bottom][g.topP.ev] >= 0 {
				break
			}
			var ev cp.EventType
			var to sm.State
			if g.botP.valid {
				ev, to = g.botP.ev, g.botP.toBot
			} else if g.cm.bridgeOK[g.bottom] {
				ev, to = g.cm.bridgeEv[g.bottom], g.cm.bridgeTo[g.bottom]
			} else {
				break
			}
			g.push(ev)
			g.bottom = to
			at += cp.Millis(1)
		}
		g.push(g.topP.ev)
		g.top = g.topP.toTop
		g.bottom = g.cm.subEntry[g.top]
		g.drawTop(at)
		g.drawBot(at)
		g.drawFree(at)
	case 2:
		g.push(g.botP.ev)
		g.bottom = g.botP.toBot
		g.drawBot(next)
	case 3:
		g.push(freeEv)
		g.redrawOneFree(freeEv, next)
	}
}

//cplint:hotpath one draw per top-level firing
func (g *ueGen) drawTop(now cp.Millis) {
	g.topP = pending{}
	trans := g.cellAt(now).top[g.top]
	if len(trans) == 0 {
		return
	}
	u := g.rng.Float64()
	tp := &trans[pickByCum2(trans, u)]
	if !tp.ok {
		return
	}
	g.topP = pending{at: now + sojournMillis(tp.soj.sample(&g.rng)), ev: tp.ev, valid: true, toTop: tp.to}
}

// sojournMillis is cp.MillisFromSeconds(math.Max(d, minSojournSec)) with
// the floor as one compare the compiler inlines (math.Max is an assembly
// stub it cannot). The bound is a positive finite constant, so every case
// Max treats specially comes out as Max gives it: NaN stays NaN (the
// compare is false), +Inf stays +Inf, and −Inf, ±0 and subnormals are
// below the bound. A floored sojourn is at least minSojournSec or NaN, so
// MillisFromSeconds would take its s ≥ 0 arm, which is this rounding.
func sojournMillis(d float64) cp.Millis {
	if d < minSojournSec {
		d = minSojournSec
	}
	return cp.Millis(d*1000 + 0.5)
}

// pickByCum2 is pickByCum's linear scan over cTopTrans — a state has a
// handful of transitions — kept separate so the hot loop indexes the cum
// field without building a float slice.
func pickByCum2(trans []cTopTrans, u float64) int {
	for i := range trans {
		if u < trans[i].cum {
			return i
		}
	}
	return len(trans) - 1
}

//cplint:hotpath one draw per bottom-level firing
func (g *ueGen) drawBot(now cp.Millis) {
	g.botP = pending{}
	bs := &g.cellAt(now).bottom[g.bottom]
	// KM tail mass: the probability the sub-machine never fires within
	// observable horizons; the bottom stays silent until the next
	// top-level transition re-enters it.
	if bs.pexit > 0 && g.rng.Float64() < bs.pexit {
		return
	}
	if len(bs.trans) == 0 {
		return
	}
	u := g.rng.Float64()
	idx := len(bs.trans) - 1
	for i := range bs.trans {
		if u < bs.trans[i].cum {
			idx = i
			break
		}
	}
	tp := &bs.trans[idx]
	if !tp.ok {
		return
	}
	g.botP = pending{at: now + sojournMillis(tp.soj.sample(&g.rng)), ev: tp.ev, valid: true, toBot: tp.to}
}

//cplint:hotpath re-arms every free-event clock after a macro transition
func (g *ueGen) drawFree(now cp.Millis) {
	g.freeOn = 0
	if g.top == cp.StateDeregistered {
		return
	}
	free := g.cellAt(now).free
	for i := range free {
		fp := &free[i]
		g.free[fp.ev] = now + sojournMillis(fp.inter.sample(&g.rng))
		g.freeOn |= 1 << fp.ev
	}
}

//cplint:hotpath re-arms one free-event clock after it fires
func (g *ueGen) redrawOneFree(e cp.EventType, now cp.Millis) {
	free := g.cellAt(now).free
	for i := range free {
		fp := &free[i]
		if fp.ev == e {
			g.free[e] = now + sojournMillis(fp.inter.sample(&g.rng))
			g.freeOn |= 1 << e
			return
		}
	}
	g.freeOn &^= 1 << e
}

// topNext gives the macro-level successor for a Category-1 event leaving
// macro state s. It mirrors the shared top-level structure of all three
// machines.
func topNext(s cp.UEState, e cp.EventType) (cp.UEState, bool) {
	switch e {
	case cp.Attach:
		if s == cp.StateDeregistered {
			return cp.StateConnected, true
		}
	case cp.Detach:
		if s != cp.StateDeregistered {
			return cp.StateDeregistered, true
		}
	case cp.ServiceRequest:
		if s == cp.StateIdle {
			return cp.StateConnected, true
		}
	case cp.S1ConnRelease:
		if s == cp.StateConnected {
			return cp.StateIdle, true
		}
	default: // Category-2 (HO, TAU): macro state never moves
	}
	return s, false
}
