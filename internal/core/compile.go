package core

import (
	"fmt"
	"math"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
)

// This file lowers a fitted ModelSet into the dense, index-addressed
// form the generator's hot loop runs on. Read directly, the model needs
// a fallback chain resolved (cluster → hour aggregate → device global)
// and machine edge lists walked on every draw — which is what the test
// oracle (interp_test.go) does; the compiled form performs that
// resolution once per ModelSet, for every (device, hour, cluster, state)
// cell the generator could possibly touch, so the steady-state step is
// pure array indexing.
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
//     fallback.
//   - Resolution goes through the model's own resolvers (topParams,
//     bottomParams, freeParams, firstEvent), the ones the interpreter
//     calls per draw: a compiled cell is by construction exactly what
//     the interpreter sees at that (hour, cluster).

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

func compileDist(s SojournModel) cDist {
	switch s.Kind {
	case SojournTable:
		return cDist{kind: cdTable, q: s.Q}
	case SojournExp:
		return cDist{kind: cdExp, x: s.Lambda}
	case SojournConst:
		return cDist{kind: cdConst, x: s.Value}
	}
	panic(fmt.Sprintf("core: compile of invalid sojourn model kind %q", s.Kind))
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

// cBotState mirrors a resolved *StateParam: present=false means the
// fallback chain ended at nil (no draw at all), pexit is the censoring
// mass (drawn only when positive), and trans may be empty (the global
// fallback can resolve to a state with no outgoing transitions, in
// which case only the PExit draw happens).
type cBotState struct {
	present bool
	pexit   float64
	trans   []cBotTrans
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

// cFirst is the resolved first-event model; ok=false means the fallback
// chain found no sampleable model for this (hour, cluster).
type cFirst struct {
	ok     bool
	pnone  float64
	offset cDist
	cats   []cFirstCat
}

// cCell holds every parameter the generator can touch at one (hour,
// cluster), with the fallback chain already applied.
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
	m *sm.Machine
	// next[s][e] is the machine successor of fine state s on event e,
	// -1 when the edge does not exist (replaces the edge-list scan).
	next [][cp.NumEventTypes]int16
	// topOf and subEntry flatten the macro-state accessors.
	topOf    []cp.UEState
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

// compile lowers ms onto machine. It is cheap relative to generation —
// O(hours × clusters × states) — and runs once per ModelSet
// (ModelSet.lower caches it).
func compile(ms *ModelSet, machine *sm.Machine) *compiledModel {
	n := machine.NumStates()
	cm := &compiledModel{
		m:        machine,
		next:     make([][cp.NumEventTypes]int16, n),
		topOf:    make([]cp.UEState, n),
		bridgeEv: make([]cp.EventType, n),
		bridgeTo: make([]sm.State, n),
		bridgeOK: make([]bool, n),
		devs:     make([]*cDevice, cp.NumDeviceTypes),
	}
	for s := 0; s < n; s++ {
		st := sm.State(s)
		cm.topOf[s] = machine.Top(st)
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
	for d := 0; d < cp.NumDeviceTypes; d++ {
		if dm := ms.Device(cp.DeviceType(d)); dm != nil {
			cm.devs[d] = compileDevice(dm, machine)
		}
	}
	return cm
}

// numClusters is the cluster count of hour h (0 past the model's hours).
func numClusters(dm *DeviceModel, h int) int {
	if h >= 0 && h < len(dm.Hours) {
		return len(dm.Hours[h].Clusters)
	}
	return 0
}

func compileDevice(dm *DeviceModel, machine *sm.Machine) *cDevice {
	cd := &cDevice{}
	if n := len(dm.Personas); n > 0 {
		cd.personaCum = make([]float64, n)
		cd.personaCl = make([][HoursPerDay]int16, n)
		// pickByCum binary-searches these sums, so each is the running
		// maximum of the interpreter's running sums: equal to them when
		// no weight is negative or NaN (every fitted model), and whatever
		// the weights, u < max(sum[0..i]) holds exactly when u < sum[j]
		// for some j ≤ i, so the first index that passes is the same.
		acc, top := 0.0, math.Inf(-1)
		for i, p := range dm.Personas {
			acc += p.Weight
			if acc > top {
				top = acc
			}
			cd.personaCum[i] = top
			for h := 0; h < HoursPerDay; h++ {
				cl := -1
				if h < len(p.Cluster) {
					cl = p.Cluster[h]
				}
				if cl < 0 || cl >= numClusters(dm, h) {
					cl = -1
				}
				cd.personaCl[i][h] = int16(cl)
			}
		}
	}
	for h := 0; h < HoursPerDay; h++ {
		n := numClusters(dm, h)
		cells := make([]cCell, n+1)
		for cl := -1; cl < n; cl++ {
			compileCell(dm, machine, h, cl, &cells[cl+1])
		}
		cd.cells[h] = cells
	}
	return cd
}

func compileCell(dm *DeviceModel, machine *sm.Machine, h, cl int, cell *cCell) {
	for s := 0; s < cp.NumUEStates; s++ {
		st := cp.UEState(s)
		params := dm.topParams(h, cl, st)
		if len(params) == 0 {
			continue
		}
		ts := make([]cTopTrans, len(params))
		acc := 0.0
		for i, tp := range params {
			acc += tp.P
			to, ok := topNext(st, tp.Event)
			ts[i] = cTopTrans{cum: acc, ev: tp.Event, ok: ok, to: to, soj: compileDist(tp.Sojourn)}
		}
		cell.top[s] = ts
	}
	cell.bottom = make([]cBotState, machine.NumStates())
	for s := range cell.bottom {
		sp := dm.bottomParams(h, cl, sm.State(s))
		if sp == nil {
			continue
		}
		bs := &cell.bottom[s]
		bs.present = true
		bs.pexit = sp.PExit
		if len(sp.Out) == 0 {
			continue
		}
		bs.trans = make([]cBotTrans, len(sp.Out))
		acc := 0.0
		for i, tp := range sp.Out {
			acc += tp.P
			to, ok := machine.Next(sm.State(s), tp.Event)
			ok = ok && machine.Top(to) == machine.Top(sm.State(s))
			soj := tp.Sojourn
			if sp.Sojourn != nil {
				soj = *sp.Sojourn
			}
			bs.trans[i] = cBotTrans{cum: acc, ev: tp.Event, ok: ok, to: to, soj: compileDist(soj)}
		}
	}
	if fps := dm.freeParams(h, cl); len(fps) > 0 {
		cell.free = make([]cFree, len(fps))
		for i, fp := range fps {
			cell.free[i] = cFree{ev: fp.Event, inter: compileDist(fp.Inter)}
		}
	}
	if fe, ok := dm.firstEvent(h, cl); ok {
		cf := &cell.first
		cf.ok = true
		cf.pnone = fe.PNone
		cf.offset = compileDist(fe.Offset)
		cf.cats = make([]cFirstCat, len(fe.Cats))
		acc := 0.0
		for i, c := range fe.Cats {
			acc += c.P
			fine := c.State
			if int(fine) >= machine.NumStates() {
				fine = machine.Forced(c.Event)
			}
			cf.cats[i] = cFirstCat{cum: acc, ev: c.Event, fine: fine, top: machine.Top(fine)}
		}
	}
}
