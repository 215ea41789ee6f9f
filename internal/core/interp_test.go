package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// This file is the generator's test oracle: an interpreter of the fitted
// ModelSet, a second engine written against the paper rather than against
// compile.go, with its own resolution of the fallback chain (topParams,
// bottomParams, freeParams, firstEvent, walked per draw over the structs),
// plus the simplest ordering that can be right (interpTrace: concatenate
// and comparison-sort). Production has one engine, ueGen, and resolves the
// chain once, over lowered levels (compile.go); nothing here is built
// outside `go test`.

// ueInterp is the interpreted per-UE traffic generator (§7): it walks
// the fitted ModelSet directly, resolving the cluster → hour aggregate
// → device-global fallback chain and scanning machine edge lists on
// every draw. It is the reference the compiled ueGen is held
// byte-identical to (TestCompiledMatchesInterpreted), and it is the
// easier of the two to audit against the paper.
//
// It is an incremental iterator: Next returns the UE's events one at a
// time in time order. It samples the first event from the first-event
// model, then drives the two-level machine — both levels keep their own
// timers and race; a top-level transition drops the bottom level's
// pending event and re-enters the sub-machine of the new top state.
// Free-running processes (Base/V1's HO and TAU) race alongside while the
// UE is registered.
type ueInterp struct {
	m       *sm.Machine
	dm      *DeviceModel
	ue      cp.UEID
	rng     *stats.RNG
	t0, end cp.Millis

	personaIdx int
	started    bool
	exhausted  bool
	emitted    int

	top    cp.UEState
	bottom sm.State
	topP   pending
	botP   pending
	free   map[cp.EventType]cp.Millis

	// queue holds events already decided but not yet delivered (the
	// sub-machine flush before a blocked top-level event produces
	// several at once); qhead is the next to deliver, so the backing
	// array is reused across flushes instead of leaking capacity one
	// re-slice at a time.
	queue []trace.Event
	qhead int
}

// newUEInterp prepares the iterator; no work happens until the first
// Next.
func newUEInterp(m *sm.Machine, dm *DeviceModel, ue cp.UEID, rng *stats.RNG, t0, end cp.Millis) *ueInterp {
	return &ueInterp{
		m: m, dm: dm, ue: ue, rng: rng, t0: t0, end: end,
		personaIdx: dm.pickPersona(rng),
		free:       map[cp.EventType]cp.Millis{},
	}
}

// interpTrace is the oracle for whole traces: the population planned by
// the same planGeneration production uses, every UE interpreted to
// exhaustion, the events concatenated and ordered by a stdlib comparison
// sort on Event.Before. It shares neither the engine nor the ordering —
// packed keys, radix kernel, time windows — with what it checks.
func interpTrace(tb testing.TB, ms *ModelSet, opt GenOptions) *trace.Trace {
	tb.Helper()
	p, err := planGeneration(ms, opt)
	if err != nil {
		tb.Fatal(err)
	}
	machine, _ := ms.Machine() // planGeneration resolved it
	tr := trace.New()
	for i := 0; i < p.numUEs; i++ {
		j := p.job(i)
		tr.Device[j.ue] = j.dev
		dm := ms.Device(j.dev)
		if dm == nil {
			continue
		}
		rng := j.rng
		it := newUEInterp(machine, dm, j.ue, &rng, p.t0, p.end)
		for ev, ok := it.Next(); ok; ev, ok = it.Next() {
			tr.Events = append(tr.Events, ev)
		}
	}
	slices.SortFunc(tr.Events, func(a, b trace.Event) int {
		switch {
		case a.Before(b):
			return -1
		case b.Before(a):
			return 1
		}
		return 0
	})
	return tr
}

// Next returns the UE's next event, or ok=false when the window is done.
func (g *ueInterp) Next() (trace.Event, bool) {
	for {
		if g.qhead < len(g.queue) {
			ev := g.queue[g.qhead]
			g.qhead++
			if g.qhead == len(g.queue) {
				g.queue, g.qhead = g.queue[:0], 0
			}
			g.emitted++
			return ev, true
		}
		if g.exhausted || g.emitted >= maxEventsPerUE {
			return trace.Event{}, false
		}
		if !g.started {
			g.startup()
			continue
		}
		g.step()
	}
}

func (g *ueInterp) clusterAt(t cp.Millis) int {
	if g.personaIdx < 0 {
		return -1
	}
	h := t.HourOfDay()
	p := g.dm.Personas[g.personaIdx]
	if h < len(p.Cluster) {
		return p.Cluster[h]
	}
	return -1
}

func (g *ueInterp) push(t cp.Millis, e cp.EventType) {
	g.queue = append(g.queue, trace.Event{T: t, UE: g.ue, Type: e})
}

// startup finds the first event (§5.4): a UE silent in one hour re-rolls
// the next hour's first-event model.
func (g *ueInterp) startup() {
	g.started = true
	for hourStart := g.t0; hourStart < g.end; hourStart += cp.Hour {
		fe, ok := g.dm.firstEvent(hourStart.HourOfDay(), g.clusterAt(hourStart))
		if !ok {
			continue
		}
		silent, cat, off := fe.sample(g.rng)
		if silent {
			continue
		}
		t := hourStart + cp.MillisFromSeconds(off)
		if t >= g.end {
			break
		}
		g.push(t, cat.Event)
		// The fitted category carries the post-event machine state, so
		// e.g. a first TAU lands in TAU_S_IDLE when the training UEs
		// were idle, not blindly in TAU_S_CONN.
		fine := cat.State
		if int(fine) >= g.m.NumStates() {
			fine = g.m.Forced(cat.Event)
		}
		g.top = g.m.Top(fine)
		g.bottom = fine
		g.drawTop(t)
		g.drawBot(t)
		g.drawFree(t)
		return
	}
	g.exhausted = true
}

// step advances the two-level race by one firing, pushing the resulting
// event(s) onto the queue (or marking the generator exhausted).
func (g *ueInterp) step() {
	next := cp.Millis(math.MaxInt64)
	kind := 0 // 0 none, 1 top, 2 bottom, 3 free
	var freeEv cp.EventType
	if g.topP.valid && g.topP.at < next {
		next, kind = g.topP.at, 1
	}
	if g.botP.valid && g.botP.at < next {
		next, kind = g.botP.at, 2
	}
	// Scan free processes in fixed ascending event-type order, not map
	// order: with a strict < comparison, a same-millisecond tie between
	// two free events would otherwise be broken by Go's randomized map
	// iteration, making the generator non-reproducible.
	for _, e := range cp.EventTypes {
		if at, ok := g.free[e]; ok && at < next {
			next, kind, freeEv = at, 3, e
		}
	}
	if kind == 0 || next >= g.end {
		g.exhausted = true
		return
	}
	switch kind {
	case 1:
		// The top event must be legal from the current bottom state
		// (the starred arrow in Fig. 5: SRV_REQ may not leave IDLE from
		// TAU_S_IDLE). If it is not, flush the sub-machine first: the
		// protocol mandates the TAU's S1_CONN_REL before the connection
		// can be re-established.
		at := next
		for guard := 0; guard < windowOvershoot; guard++ {
			if _, ok := g.m.Next(g.bottom, g.topP.ev); ok {
				break
			}
			ev, to, found := bridgeEdge(g.m, g.bottom, g.botP)
			if !found {
				break
			}
			g.push(at, ev)
			g.bottom = to
			at += cp.Millis(1)
		}
		g.push(at, g.topP.ev)
		g.top = g.topP.toTop
		g.bottom = g.m.SubEntry(g.top)
		g.drawTop(at)
		g.drawBot(at)
		g.drawFree(at)
	case 2:
		g.push(next, g.botP.ev)
		g.bottom = g.botP.toBot
		g.drawBot(next)
	case 3:
		g.push(next, freeEv)
		g.redrawOneFree(freeEv, next)
	}
}

func (g *ueInterp) drawTop(now cp.Millis) {
	g.topP = pending{}
	params := g.dm.topParams(now.HourOfDay(), g.clusterAt(now), g.top)
	tp, ok := pickFrom(params, g.rng)
	if !ok {
		return
	}
	to, ok := topNext(g.top, tp.Event)
	if !ok {
		return
	}
	d := math.Max(tp.Sojourn.Sample(g.rng), minSojournSec)
	g.topP = pending{at: now + cp.MillisFromSeconds(d), ev: tp.Event, valid: true, toTop: to}
}

func (g *ueInterp) drawBot(now cp.Millis) {
	g.botP = pending{}
	sp := g.dm.bottomParams(now.HourOfDay(), g.clusterAt(now), g.bottom)
	if sp == nil {
		return
	}
	// KM tail mass: the probability the sub-machine never fires within
	// observable horizons; the bottom stays silent until the next
	// top-level transition re-enters it.
	if sp.PExit > 0 && g.rng.Float64() < sp.PExit {
		return
	}
	tp, ok := pickFrom(sp.Out, g.rng)
	if !ok {
		return
	}
	to, ok := g.m.Next(g.bottom, tp.Event)
	if !ok || g.m.Top(to) != g.top {
		return
	}
	// Prefer the Kaplan-Meier state-level delay marginal: it is the
	// unbiased estimate under the top-level race (per-transition
	// sojourns are fitted on uncensored observations only).
	soj := tp.Sojourn
	if sp.Sojourn != nil {
		soj = *sp.Sojourn
	}
	d := math.Max(soj.Sample(g.rng), minSojournSec)
	g.botP = pending{at: now + cp.MillisFromSeconds(d), ev: tp.Event, valid: true, toBot: to}
}

func (g *ueInterp) drawFree(now cp.Millis) {
	for k := range g.free {
		delete(g.free, k)
	}
	if g.top == cp.StateDeregistered {
		return
	}
	for _, fp := range g.dm.freeParams(now.HourOfDay(), g.clusterAt(now)) {
		d := math.Max(fp.Inter.Sample(g.rng), minSojournSec)
		g.free[fp.Event] = now + cp.MillisFromSeconds(d)
	}
}

func (g *ueInterp) redrawOneFree(e cp.EventType, now cp.Millis) {
	for _, fp := range g.dm.freeParams(now.HourOfDay(), g.clusterAt(now)) {
		if fp.Event == e {
			d := math.Max(fp.Inter.Sample(g.rng), minSojournSec)
			g.free[e] = now + cp.MillisFromSeconds(d)
			return
		}
	}
	delete(g.free, e)
}

// bridgeEdge chooses the sub-machine event that moves the bottom level
// toward a state from which a blocked top-level event becomes legal:
// preferably the already-pending bottom event, otherwise the first
// within-macro machine edge.
func bridgeEdge(m *sm.Machine, bottom sm.State, botP pending) (cp.EventType, sm.State, bool) {
	if botP.valid {
		return botP.ev, botP.toBot, true
	}
	for _, e := range m.Edges[bottom] {
		if m.Top(e.To) == m.Top(bottom) {
			return e.Event, e.To, true
		}
	}
	return 0, bottom, false
}

// clusterAt returns the cluster model for (hour, cluster id), or nil.
func (dm *DeviceModel) clusterAt(hour, cl int) *ClusterModel {
	if hour < 0 || hour >= len(dm.Hours) {
		return nil
	}
	hm := &dm.Hours[hour]
	if cl < 0 || cl >= len(hm.Clusters) {
		return nil
	}
	return &hm.Clusters[cl]
}

// topParams resolves the outgoing transitions of macro state s at (hour,
// cluster) with the fallback chain cluster → hour aggregate → global.
func (dm *DeviceModel) topParams(hour, cl int, s cp.UEState) []TransitionParam {
	if cm := dm.clusterAt(hour, cl); cm != nil && int(s) < len(cm.Top) && len(cm.Top[s].Out) > 0 {
		return cm.Top[s].Out
	}
	if hour >= 0 && hour < len(dm.Hours) {
		if agg := dm.Hours[hour].Aggregate; agg != nil && int(s) < len(agg.Top) && len(agg.Top[s].Out) > 0 {
			return agg.Top[s].Out
		}
	}
	if dm.Global != nil && int(s) < len(dm.Global.Top) {
		return dm.Global.Top[s].Out
	}
	return nil
}

// bottomParams resolves the bottom-level state parameters of fine state s
// with the same fallback chain.
func (dm *DeviceModel) bottomParams(hour, cl int, s sm.State) *StateParam {
	if cm := dm.clusterAt(hour, cl); cm != nil && int(s) < len(cm.Bottom) && len(cm.Bottom[s].Out) > 0 {
		return &cm.Bottom[s]
	}
	if hour >= 0 && hour < len(dm.Hours) {
		if agg := dm.Hours[hour].Aggregate; agg != nil && int(s) < len(agg.Bottom) && len(agg.Bottom[s].Out) > 0 {
			return &agg.Bottom[s]
		}
	}
	if dm.Global != nil && int(s) < len(dm.Global.Bottom) {
		return &dm.Global.Bottom[s]
	}
	return nil
}

// freeParams resolves the free-running processes.
func (dm *DeviceModel) freeParams(hour, cl int) []FreeProcess {
	if cm := dm.clusterAt(hour, cl); cm != nil && len(cm.Free) > 0 {
		return cm.Free
	}
	if hour >= 0 && hour < len(dm.Hours) {
		if agg := dm.Hours[hour].Aggregate; agg != nil && len(agg.Free) > 0 {
			return agg.Free
		}
	}
	if dm.Global != nil {
		return dm.Global.Free
	}
	return nil
}

// firstEvent resolves the first-event model.
func (dm *DeviceModel) firstEvent(hour, cl int) (FirstEventModel, bool) {
	if cm := dm.clusterAt(hour, cl); cm != nil && cm.First.valid() {
		return cm.First, true
	}
	if hour >= 0 && hour < len(dm.Hours) {
		if agg := dm.Hours[hour].Aggregate; agg != nil && agg.First.valid() {
			return agg.First, true
		}
	}
	if dm.Global != nil && dm.Global.First.valid() {
		return dm.Global.First, true
	}
	return FirstEventModel{}, false
}

// pickFrom samples a transition from params by probability.
func pickFrom(params []TransitionParam, r *stats.RNG) (TransitionParam, bool) {
	if len(params) == 0 {
		return TransitionParam{}, false
	}
	u := r.Float64()
	var acc float64
	for _, tp := range params {
		acc += tp.P
		if u < acc {
			return tp, true
		}
	}
	return params[len(params)-1], true
}

// sample draws (silent, category, offsetSeconds).
func (f FirstEventModel) sample(r *stats.RNG) (bool, FirstCat, float64) {
	if !f.valid() || r.Float64() < f.PNone {
		return true, FirstCat{}, 0
	}
	u := r.Float64()
	var acc float64
	cat := f.Cats[len(f.Cats)-1]
	for _, c := range f.Cats {
		acc += c.P
		if u < acc {
			cat = c
			break
		}
	}
	off := f.Offset.Sample(r)
	if off < 0 {
		off = 0
	}
	if off >= 3600 {
		off = 3599.999
	}
	return false, cat, off
}

// pickPersona samples a persona index by weight.
func (dm *DeviceModel) pickPersona(r *stats.RNG) int {
	if len(dm.Personas) == 0 {
		return -1
	}
	u := r.Float64()
	var acc float64
	for i, p := range dm.Personas {
		acc += p.Weight
		if u < acc {
			return i
		}
	}
	return len(dm.Personas) - 1
}

// Sample draws one duration in seconds: the interpreter's draw, which
// the compiled engine's cDist replays.
func (s SojournModel) Sample(r *stats.RNG) float64 {
	switch s.Kind {
	case SojournTable:
		return stats.QuantileAt(s.Q, r.OpenFloat64())
	case SojournExp:
		return r.Exp(s.Lambda)
	case SojournConst:
		return s.Value
	}
	panic(fmt.Sprintf("core: sample of invalid sojourn model kind %q", s.Kind))
}
