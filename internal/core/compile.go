package core

import (
	"errors"
	"fmt"
	"math"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
)

// This file lowers a fitted ModelSet into the dense, index-addressed
// form the generator's hot loop runs on, and so decides whether a model
// can run. Read directly, the model needs a fallback chain resolved
// (cluster → hour aggregate → device global) and machine edge lists
// walked on every draw — which is what the test oracle (interp_test.go)
// does; compile checks and lowers each ClusterModel once and builds every
// (device, hour, cluster) cell from those levels, so the steady-state
// step is pure array indexing.
//
// Determinism contract: the compiled generator must consume the RNG
// stream draw-for-draw like the interpreter and map every draw to the
// same outcome, so traces stay byte-identical (test-enforced: the oracle
// test in compile_test.go). Two rules make that hold:
//
//   - Cumulative probabilities are accumulated in the same serial
//     order as the interpreter's running sum (pickFrom: acc += p,
//     compare u < acc), so each partial sum is the bit-identical float
//     and every u lands on the same index, with the same last-entry
//     fallback. A level's sums are the same in every cell that uses it.
//   - A cell takes each entry from the first level that has it, the rule
//     the oracle's resolvers apply per draw (TestCompiledCellsMatchResolvers
//     holds every cell to a build through them).

// cDist is a sojourn distribution resolved for sampling: a small tag
// plus flat parameters, so drawing never switches on a string kind.
// sample consumes the RNG exactly like SojournModel.Sample.
type cDist struct {
	kind uint8
	x    float64   // λ for cdExp, the value for cdConst
	q    []float64 // the quantile table for cdTable
}

const (
	cdTable uint8 = iota
	cdExp
	cdConst
)

// compileDist lowers s for sampling, or reports ok=false when s cannot
// be sampled. It is the one judge of a sojourn model.
func compileDist(s SojournModel) (d cDist, ok bool) {
	switch s.Kind {
	case SojournTable:
		return cDist{kind: cdTable, q: s.Q}, (&stats.QuantileTable{Q: s.Q}).Valid()
	case SojournExp:
		return cDist{kind: cdExp, x: s.Lambda}, s.Lambda > 0
	case SojournConst:
		return cDist{kind: cdConst, x: s.Value}, s.Value >= 0
	}
	return cDist{}, false
}

func (d *cDist) sample(r *stats.RNG) float64 {
	switch d.kind {
	case cdTable:
		return stats.QuantileAt(d.q, r.OpenFloat64())
	case cdExp:
		return r.Exp(d.x)
	default:
		return d.x
	}
}

// cTopTrans is one outgoing top-level transition with its successor
// lookup (topNext) precomputed; ok=false entries are picked and then
// discarded, exactly like the interpreter's post-pick topNext check.
type cTopTrans struct {
	cum float64
	ev  cp.EventType
	ok  bool
	to  cp.UEState
	soj cDist
}

// cBotTrans is one outgoing bottom-level transition. ok folds both
// interpreter checks — the machine edge exists AND stays within the
// current macro state — which is precomputable because the generator
// maintains top == Top(bottom) as an invariant. soj is the resolved
// sampling distribution: the state-level Kaplan–Meier marginal when the
// state has one, else the per-transition sojourn.
type cBotTrans struct {
	cum float64
	ev  cp.EventType
	ok  bool
	to  sm.State
	soj cDist
}

// cBotState mirrors a *StateParam: pexit is the censoring mass (drawn
// only when positive), and trans may be empty (the global fallback can
// resolve to a state with no outgoing transitions, in which case only the
// PExit draw happens). The zero value, a state no level has, draws nothing.
type cBotState struct {
	pexit float64
	trans []cBotTrans
}

// cFree is one free-running process (Base/V1's HO and TAU).
type cFree struct {
	ev    cp.EventType
	inter cDist
}

// cFirstCat is one first-event category with the fine-state resolution
// (out-of-range state → machine's forced post-state) precomputed.
type cFirstCat struct {
	cum  float64
	ev   cp.EventType
	fine sm.State
	top  cp.UEState
}

// cFirst is the resolved first-event model; no cats means the fallback
// chain found no sampleable model for this (hour, cluster).
type cFirst struct {
	pnone  float64
	offset cDist
	cats   []cFirstCat
}

// cCell holds every parameter the generator can touch at one (hour,
// cluster), with the fallback chain applied — or, as a level, one
// ClusterModel lowered, with the entries it lacks empty.
type cCell struct {
	top    [cp.NumUEStates][]cTopTrans
	bottom []cBotState
	free   []cFree
	first  cFirst
}

// cDevice is one device type's compiled model. cells[h] is indexed by
// cluster id + 1, so the "no cluster" fallback (-1) is cells[h][0];
// personaCl pre-resolves each persona's hourly cluster schedule, with
// out-of-range ids mapped to -1 (the interpreted resolvers treat any
// out-of-range id identically to -1, so the cells coincide).
type cDevice struct {
	personaCum []float64
	personaCl  [][HoursPerDay]int16
	cells      [HoursPerDay][]cCell
}

// compiledModel is a ModelSet lowered onto one machine: dense
// edge/bridge tables per fine state plus one cDevice per device type.
type compiledModel struct {
	// next[s][e] is the machine successor of fine state s on event e,
	// -1 when the edge does not exist (replaces the edge-list scan).
	next [][cp.NumEventTypes]int16
	// subEntry flattens the macro-state accessor.
	subEntry [cp.NumUEStates]sm.State
	// bridge{Ev,To,OK}[s] is the first within-macro edge out of s — the
	// sub-machine flush step used when a pending top event is blocked
	// and no bottom event is pending (the oracle's bridgeEdge).
	bridgeEv []cp.EventType
	bridgeTo []sm.State
	bridgeOK []bool
	devs     []*cDevice
}

func (cm *compiledModel) dev(d cp.DeviceType) *cDevice {
	if int(d) >= len(cm.devs) {
		return nil
	}
	return cm.devs[d]
}

// compile lowers ms onto machine, checking every ClusterModel once
// whether or not a cell uses it: it is the model's one structural check
// (Validate). It is cheap relative to generation — O(hours × clusters ×
// states) — and runs once per ModelSet (ModelSet.lower caches it).
func compile(ms *ModelSet, machine *sm.Machine) (*compiledModel, error) {
	n := machine.NumStates()
	cm := &compiledModel{
		next:     make([][cp.NumEventTypes]int16, n),
		bridgeEv: make([]cp.EventType, n),
		bridgeTo: make([]sm.State, n),
		bridgeOK: make([]bool, n),
		devs:     make([]*cDevice, len(ms.Devices)),
	}
	for s := 0; s < n; s++ {
		st := sm.State(s)
		for e := range cm.next[s] {
			cm.next[s][e] = -1
		}
		for _, edge := range machine.Edges[s] {
			if cm.next[s][edge.Event] < 0 { // first match, like Machine.Next
				cm.next[s][edge.Event] = int16(edge.To)
			}
		}
		for _, edge := range machine.Edges[s] {
			if machine.Top(edge.To) == machine.Top(st) {
				cm.bridgeEv[s], cm.bridgeTo[s], cm.bridgeOK[s] = edge.Event, edge.To, true
				break
			}
		}
	}
	for t := 0; t < cp.NumUEStates; t++ {
		cm.subEntry[t] = machine.SubEntry(cp.UEState(t))
	}
	for d, dm := range ms.Devices {
		if dm == nil {
			continue
		}
		cd, err := compileDevice(dm, machine)
		if err != nil {
			return nil, fmt.Errorf("core: device %d %w", d, err)
		}
		cm.devs[d] = cd
	}
	return cm, nil
}

// compileDevice lowers one device: its personas, its global, and each
// hour's aggregate, clusters and cells, checking each hour's cluster count
// before anything is built. Errors name the part of the device.
func compileDevice(dm *DeviceModel, machine *sm.Machine) (*cDevice, error) {
	for h := range dm.Hours {
		if len(dm.Hours[h].Clusters) > math.MaxInt16 { // personaCl holds int16 ids
			return nil, fmt.Errorf("hour %d: %d clusters", h, len(dm.Hours[h].Clusters))
		}
	}
	np := len(dm.Personas)
	cd := &cDevice{personaCum: make([]float64, np), personaCl: make([][HoursPerDay]int16, np)}
	// pickByCum binary-searches these sums, so each is the running maximum
	// of the interpreter's running sums: equal to them when no weight is
	// negative or NaN (every fitted model), and whatever the weights,
	// u < max(sum[0..i]) holds exactly when u < sum[j] for some j ≤ i, so
	// the first index that passes is the same.
	acc, top := 0.0, math.Inf(-1)
	for i, p := range dm.Personas {
		if len(p.Cluster) != len(dm.Hours) {
			return nil, fmt.Errorf("persona covers %d hours, model has %d", len(p.Cluster), len(dm.Hours))
		}
		acc += p.Weight
		if acc > top { // not max, which would carry a NaN on
			top = acc
		}
		cd.personaCum[i] = top
		for h := range cd.personaCl[i] {
			// An id outside the hour's clusters resolves as -1 does.
			cd.personaCl[i][h] = -1
			if h < len(p.Cluster) && p.Cluster[h] >= 0 && p.Cluster[h] < len(dm.Hours[h].Clusters) {
				cd.personaCl[i][h] = int16(p.Cluster[h])
			}
		}
	}
	if np > 0 && math.Abs(acc-1) > 1e-6 {
		return nil, fmt.Errorf("persona weights sum to %v", acc)
	}
	var global *cCell
	if dm.Global != nil {
		global = new(cCell)
		if err := lowerLevel(dm.Global, machine, global); err != nil {
			return nil, fmt.Errorf("global %w", err)
		}
	}
	n := machine.NumStates()
	for h := range max(len(dm.Hours), HoursPerDay) {
		hm := &HourModel{}
		if h < len(dm.Hours) {
			hm = &dm.Hours[h]
		}
		var agg *cCell
		if hm.Aggregate != nil {
			agg = new(cCell)
			if err := lowerLevel(hm.Aggregate, machine, agg); err != nil {
				return nil, fmt.Errorf("hour %d aggregate %w", h, err)
			}
		}
		cells := make([]cCell, len(hm.Clusters)+1)
		cells[0] = resolveCell(nil, agg, global, n)
		for c := range hm.Clusters {
			var lv cCell
			if err := lowerLevel(&hm.Clusters[c], machine, &lv); err != nil {
				return nil, fmt.Errorf("hour %d cluster %d %w", h, c, err)
			}
			cells[c+1] = resolveCell(&lv, agg, global, n)
		}
		if h < HoursPerDay {
			cd.cells[h] = cells
		}
	}
	return cd, nil
}

// resolveCell builds the cell of n fine states over the fallback chain
// cluster → aggregate → global (any may be nil): each entry — a state with
// transitions, free processes, a sampleable first event — comes from the
// most specific level that has one, but a global bottom state is taken as
// it is, since the chain ends there. The cell shares the levels' slices.
func resolveCell(cluster, agg, global *cCell, n int) cCell {
	cell := cCell{bottom: make([]cBotState, n)}
	for _, lv := range [...]*cCell{global, agg, cluster} { // the most specific writes last
		if lv == nil {
			continue
		}
		for s, trans := range lv.top {
			if len(trans) > 0 {
				cell.top[s] = trans
			}
		}
		for s, bs := range lv.bottom {
			if len(bs.trans) > 0 || lv == global {
				cell.bottom[s] = bs
			}
		}
		if len(lv.free) > 0 {
			cell.free = lv.free
		}
		if len(lv.first.cats) > 0 {
			cell.first = lv.first
		}
	}
	return cell
}

// lowerLevel checks one ClusterModel and lowers it into lv. A first
// category's state may lie outside the machine (it maps to the event's
// forced state); its event may not, nor may any other event. Errors name
// the part of the model.
func lowerLevel(cm *ClusterModel, machine *sm.Machine, lv *cCell) error {
	for s := range cm.Top {
		trans, err := lowerState("top", s, &cm.Top[s], false, func(tp *TransitionParam, cum float64, soj cDist) cTopTrans {
			to, ok := topNext(cp.UEState(s), tp.Event)
			return cTopTrans{cum: cum, ev: tp.Event, ok: ok, to: to, soj: soj}
		})
		if err != nil {
			return err
		}
		if s < cp.NumUEStates {
			lv.top[s] = trans
		}
	}
	n := machine.NumStates()
	lv.bottom = make([]cBotState, min(len(cm.Bottom), n))
	for s := range cm.Bottom {
		trans, err := lowerState("bottom", s, &cm.Bottom[s], true, func(tp *TransitionParam, cum float64, soj cDist) cBotTrans {
			t := cBotTrans{cum: cum, ev: tp.Event, soj: soj}
			if s < n { // a state past the machine is checked, never drawn from
				t.to, t.ok = machine.Next(sm.State(s), tp.Event)
				t.ok = t.ok && machine.Top(t.to) == machine.Top(sm.State(s))
			}
			return t
		})
		if err != nil {
			return err
		}
		if s < n {
			lv.bottom[s] = cBotState{pexit: cm.Bottom[s].PExit, trans: trans}
		}
	}
	lv.free = make([]cFree, len(cm.Free))
	for i, fp := range cm.Free {
		if !fp.Event.Valid() {
			return fmt.Errorf("free process: invalid event %d", fp.Event)
		}
		inter, ok := compileDist(fp.Inter)
		if !ok {
			return fmt.Errorf("free %v process: invalid inter-arrival model", fp.Event)
		}
		lv.free[i] = cFree{ev: fp.Event, inter: inter}
	}
	fe := &cm.First
	offset, offsetOK := compileDist(fe.Offset)
	if fe.Offset.Kind != "" && !offsetOK {
		return errors.New("first event: invalid offset model")
	}
	cats := make([]cFirstCat, len(fe.Cats))
	acc := 0.0
	for i, c := range fe.Cats {
		if !c.Event.Valid() {
			return fmt.Errorf("first event: invalid event %d", c.Event)
		}
		if c.P < 0 || c.P > 1+1e-9 {
			return fmt.Errorf("first event: probability %v out of range", c.P)
		}
		acc += c.P
		fine := c.State
		if int(fine) >= machine.NumStates() {
			fine = machine.Forced(c.Event)
		}
		cats[i] = cFirstCat{cum: acc, ev: c.Event, fine: fine, top: machine.Top(fine)}
	}
	if len(cats) > 0 && math.Abs(acc-1) > 1e-6 {
		return fmt.Errorf("first event: probabilities sum to %v", acc)
	}
	if offsetOK { // else nothing can be sampled
		lv.first = cFirst{pnone: fe.PNone, offset: offset, cats: cats}
	}
	return nil
}

// lowerState checks state s's transitions and lowers each through lower,
// with the running sum of their probabilities and the sojourn to sample —
// for a bottom state (preferState), its Kaplan–Meier marginal if it has
// one. A state without transitions, never drawn from, lowers to nil.
func lowerState[T any](level string, s int, sp *StateParam, preferState bool, lower func(tp *TransitionParam, cum float64, soj cDist) T) ([]T, error) {
	if len(sp.Out) == 0 {
		return nil, nil
	}
	if sp.PExit < 0 || sp.PExit > 1 {
		return nil, fmt.Errorf("%s state %d: PExit %v out of range", level, s, sp.PExit)
	}
	var state cDist
	if sp.Sojourn != nil {
		var ok bool
		if state, ok = compileDist(*sp.Sojourn); !ok {
			return nil, fmt.Errorf("%s state %d: invalid state-level sojourn", level, s)
		}
	}
	out := make([]T, len(sp.Out))
	acc := 0.0
	for i := range sp.Out {
		tp := &sp.Out[i]
		if !tp.Event.Valid() {
			return nil, fmt.Errorf("%s state %d: transition on invalid event %d", level, s, tp.Event)
		}
		if tp.P < 0 || tp.P > 1+1e-9 {
			return nil, fmt.Errorf("%s state %d: probability %v out of range", level, s, tp.P)
		}
		soj, ok := compileDist(tp.Sojourn)
		if !ok {
			return nil, fmt.Errorf("%s state %d event %v: invalid sojourn", level, s, tp.Event)
		}
		if preferState && sp.Sojourn != nil {
			soj = state
		}
		acc += tp.P
		out[i] = lower(tp, acc, soj)
	}
	if math.Abs(acc-1) > 1e-6 {
		return nil, fmt.Errorf("%s state %d: probabilities sum to %v", level, s, acc)
	}
	return out, nil
}
