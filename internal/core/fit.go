package core

import (
	"fmt"
	"slices"
	"strings"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/par"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// FitOptions configures the model-fitting pipeline.
type FitOptions struct {
	// Method names one of the paper's fitting methods (Table 3, Methods):
	// "base", "v1", "v2" or "ours" (the default, also for ""). It is the
	// only modelling option: the method fixes the state machine, the
	// sojourn family, the free-running events and whether UEs are
	// clustered, and it labels the model.
	Method string
	// Cluster configures the adaptive clustering scheme (§5.3). A method
	// that does not cluster (base) ignores it, and the fit zeroes it.
	Cluster cluster.Options
	// Workers bounds fitting concurrency; 0 means GOMAXPROCS. It never
	// affects the fitted model, only the wall clock: the independent
	// per-UE and per-(hour, cluster) fit units are distributed over the
	// pool deterministically and merged in serial order (DESIGN.md
	// decision 2, the same discipline as GenOptions.Workers).
	Workers int
	// SketchK, when positive, puts the fit in bounded-memory mode: every
	// sojourn/inter-arrival sample pool keeps at most SketchK
	// observations in a mergeable bottom-k sketch (stats.Sketch) instead
	// of an exact list, with quantile error bounded by
	// stats.SketchErrorBound(SketchK). Sketched fits remain
	// byte-deterministic — and byte-identical sharded vs unsharded — but
	// intentionally diverge from SketchK == 0 (exact) fits.
	SketchK int
}

// method is one row of Table 3: what a fitting method models.
type method struct {
	name    string
	machine *sm.Machine
	sojourn string // SojournTable or SojournExp
	// free marks the events modelled as free-running processes instead
	// of sub-machine transitions.
	free      [cp.NumEventTypes]bool
	noCluster bool // all UEs of a device type form one cluster
}

// table3 is the paper's Table 3, in its presentation order:
//
//	method | state machine | distribution  | UE clustering
//	-------+---------------+---------------+--------------
//	base   | EMM-ECM       | Poisson       | no
//	v1     | EMM-ECM       | Poisson       | yes
//	v2     | two-level     | Poisson       | yes
//	ours   | two-level     | empirical CDF | yes
//
// The EMM-ECM methods model HO and TAU as free-running fitted-Poisson
// processes, which is why they generate handovers while IDLE; the
// two-level methods bind them to the sub-machines of Fig. 5.
var table3 = [...]method{
	{name: "base", machine: sm.EMMECM(), sojourn: SojournExp, free: freeHOTAU, noCluster: true},
	{name: "v1", machine: sm.EMMECM(), sojourn: SojournExp, free: freeHOTAU},
	{name: "v2", machine: sm.LTE2Level(), sojourn: SojournExp},
	{name: "ours", machine: sm.LTE2Level(), sojourn: SojournTable},
}

var freeHOTAU = [cp.NumEventTypes]bool{cp.Handover: true, cp.TrackingAreaUpdate: true}

// Methods lists the fitting methods of Table 3 in presentation order.
func Methods() []string {
	names := make([]string, len(table3))
	for i, m := range table3 {
		names[i] = m.name
	}
	return names
}

// methodNamed returns the Table 3 row of the named method.
func methodNamed(name string) (*method, error) {
	for i := range table3 {
		if table3[i].name == name {
			return &table3[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown method %q (want one of %s)", name, strings.Join(Methods(), ", "))
}

// HoursPerDay is the number of hour-of-day buckets models are fitted for.
const HoursPerDay = 24

// Fit estimates a complete ModelSet from a control-plane trace: it
// replays every UE through the machine's hierarchy, clusters UEs per
// (hour-of-day, device type), and fits transition probabilities, sojourn
// distributions, free processes, and first-event models for every
// (cluster, hour, device type) combination.
//
// The source is scanned once and never materialized: per-UE state is a
// small walk (sm.Walk) and every sample flows straight into the PartialFit's
// tagged pools, so peak memory is O(UEs + retained samples) on top of
// whatever the source itself holds (nothing for a FileSource, the event
// slice for a *trace.Trace), and FitOptions.SketchK > 0 bounds the sample
// term too. The model bytes do not depend on the kind of source (pinned
// by test for a *trace.Trace and a FileSource over the same events).
//
// Fit is the thin driver over PartialFit — the one construction path all
// fits share: NewPartialFit, one AddSource, Build.
func Fit(src trace.EventSource, opt FitOptions) (*ModelSet, error) {
	pf, err := NewPartialFit(opt)
	if err != nil {
		return nil, err
	}
	if err := pf.AddSource(src); err != nil {
		return nil, err
	}
	return pf.Build()
}

// --- aggregation ---

// accCounts is an accumulator's tallies: what its tally rows took,
// summed per layout slot (addRow).
type accCounts struct {
	n      []int // by layout slot; the cntEvt slots feed no model
	Cells  int   // UE-day cells (PNone denominator)
	NumUEs int
}

// addRow folds one tally row into the counts.
func (ac *accCounts) addRow(row []tally) {
	for _, t := range row {
		ac.n[t.slot] += int(t.n)
	}
}

// acc is one model's tallies and sample lists. The lists share one
// block: pool key x's list (x a log record's key byte) is
// block[bound[x]:bound[x+1]], its samples in (UE, seq) order.
type acc[T sample] struct {
	accCounts
	block []T
	bound []int
}

// list returns pool key x's samples.
func (a *acc[T]) list(x int) []T { return a.block[a.bound[x]:a.bound[x+1]:a.bound[x+1]] }

// build converts an accumulator into a ClusterModel, walking its count
// slots and pool keys in layout order. It consumes the accumulator: the
// SojournTable fits sort its lists in place, through sc (the caller's to
// reuse across accumulators of one goroutine).
func (a *acc[T]) build(lay *layout, m *method, sc *fitScratch[T]) ClusterModel {
	cm := ClusterModel{
		Top:    make([]StateParam, cp.NumUEStates),
		NumUEs: a.NumUEs,
	}
	a.transitions(lay, cntTop, poolTop, cm.Top, m.sojourn, sc)
	// Bottom level, with competing-risks censoring. The state-level
	// delay marginal is estimated with Kaplan–Meier (SojournTable kind)
	// or the censored exponential MLE (SojournExp kind); the race
	// against the top level then re-applies the censoring naturally.
	// PExit is the KM tail mass: the probability the sub-machine never
	// fires within observable horizons.
	if m.machine.HasSubStructure() {
		cm.Bottom = make([]StateParam, m.machine.NumStates())
		a.transitions(lay, cntBot, poolBot, cm.Bottom, m.sojourn, sc)
		for s := range cm.Bottom {
			// The state's fired-delay lists lie side by side in the
			// block, in event order.
			lo := lay.poolIndex(poolKey{Kind: poolBot, A: uint8(s)})
			hi := lo + cp.NumEventTypes
			if a.bound[lo] == a.bound[hi] {
				continue
			}
			censored := a.list(lay.poolIndex(poolKey{Kind: poolCensor, A: uint8(s)}))
			switch m.sojourn {
			case SojournExp: // the fits above leave exponential lists in order
				if lambda, ok := censoredExp(a.block[a.bound[lo]:a.bound[hi]], censored, sc); ok {
					cm.Bottom[s].Sojourn = &SojournModel{Kind: SojournExp, Lambda: lambda}
				}
			default:
				// The table fits above sorted each list in place, so
				// the state's delays are a merge away from sorted.
				sc.lists = sc.lists[:0]
				for x := lo; x < hi; x++ {
					sc.lists = append(sc.lists, a.list(x))
				}
				fired := mergeMillis(sc.lists)
				sortMillis(censored, &sc.sort)
				if q, tail, ok := kaplanMeier(fired, censored); ok {
					cm.Bottom[s].Sojourn = &SojournModel{Kind: SojournTable, Q: q}
					cm.Bottom[s].PExit = tail
				}
			}
		}
	}
	// Free processes.
	for _, e := range cp.EventTypes {
		if !m.free[e] {
			continue
		}
		ia := a.list(lay.poolIndex(poolKey{Kind: poolFree, B: uint8(e)}))
		if len(ia) < 2 {
			continue
		}
		cm.Free = append(cm.Free, FreeProcess{
			Event: e,
			Inter: fitSojourn(ia, m.sojourn, sc),
		})
	}
	// First-event model: its categories in slot order, which is
	// (event, post-state) order, in a list of exactly their number.
	withEv := a.n[lay.slot(cntWithEv, 0, 0)]
	if a.Cells > 0 && withEv > 0 {
		cm.First.PNone = 1 - float64(withEv)/float64(a.Cells)
		first := a.n[lay.off[cntFirst]:lay.off[cntFirst+1]]
		n := 0
		for _, c := range first {
			if c > 0 {
				n++
			}
		}
		cm.First.Cats = make([]FirstCat, 0, n)
		for i, c := range first {
			if c > 0 {
				_, e, s := lay.key(lay.off[cntFirst] + i)
				cm.First.Cats = append(cm.First.Cats, FirstCat{Event: cp.EventType(e), State: sm.State(s), P: float64(c) / float64(withEv)})
			}
		}
		cm.First.Offset = fitSojourn(a.list(lay.poolIndex(poolKey{Kind: poolFirst})), SojournTable, sc)
	}
	return cm
}

// transitions fits one level's transitions: counts of count kind kind,
// sojourns of pool kind pool, each state's events ascending. So Out is
// in event order, and fitSojourn's float folds see each list at a fixed
// point of the build.
func (a *acc[T]) transitions(lay *layout, kind, pool uint8, level []StateParam, sojournKind string, sc *fitScratch[T]) {
	for s := range level {
		row := a.n[lay.slot(kind, uint8(s), 0):][:cp.NumEventTypes]
		total := 0
		for _, c := range row {
			total += c
		}
		for e, c := range row {
			if c == 0 {
				continue
			}
			level[s].Out = append(level[s].Out, TransitionParam{
				Event:   cp.EventType(e),
				P:       float64(c) / float64(total),
				Sojourn: fitSojourn(a.list(lay.poolIndex(poolKey{Kind: pool, A: uint8(s), B: uint8(e)})), sojournKind, sc),
			})
		}
	}
}

// sojourns calls fn on every sojourn model of cm: each transition's, each
// bottom state's Kaplan–Meier marginal, each free process's and the
// first-event offset.
func (cm *ClusterModel) sojourns(fn func(*SojournModel)) {
	for _, level := range [][]StateParam{cm.Top, cm.Bottom} {
		for i := range level {
			for j := range level[i].Out {
				fn(&level[i].Out[j].Sojourn)
			}
			if level[i].Sojourn != nil {
				fn(level[i].Sojourn)
			}
		}
	}
	for i := range cm.Free {
		fn(&cm.Free[i].Inter)
	}
	fn(&cm.First.Offset)
}

// packGrids moves the quantile grids of cms into one exact-size
// allocation: a model holds thousands of grids, and one allocation each
// rounds each up to its size class. Each Q becomes its own three-index
// slice of it, so an append to one cannot spill into a neighbour.
func packGrids(cms ...*ClusterModel) {
	n := 0
	for _, cm := range cms {
		cm.sojourns(func(s *SojournModel) { n += len(s.Q) })
	}
	packed := make([]float64, 0, n)
	for _, cm := range cms {
		cm.sojourns(func(s *SojournModel) {
			if len(s.Q) > 0 {
				at := len(packed)
				packed = append(packed, s.Q...)
				s.Q = packed[at:len(packed):len(packed)]
			}
		})
	}
}

// --- clustering ---

// clusterHours partitions a device type's UEs per hour-of-day, with
// featAt supplying the clustering features of UE index i at hour h;
// clusterOf[h][i] is UE index i's cluster at hour h. Hours are
// independent and every write is indexed by h; cluster.Partition itself
// is deterministic (it sorts its input by UE id), so the result is
// identical for any worker count.
func clusterHours(ues []cp.UEID, pf *PartialFit, featAt func(i, h int) cluster.Features) (clusterOf [][]int32, numClusters []int, weights [][]float64) {
	clusterOf = make([][]int32, HoursPerDay)
	numClusters = make([]int, HoursPerDay)
	weights = make([][]float64, HoursPerDay)
	par.For(HoursPerDay, pf.opt.Workers, func(h int) {
		clusterOf[h] = make([]int32, len(ues))
		if pf.m.noCluster {
			numClusters[h] = 1
			weights[h] = []float64{1}
			return
		}
		pts := make([]cluster.Point, len(ues))
		for i, ue := range ues {
			pts[i] = cluster.Point{UE: ue, F: featAt(i, h)}
		}
		cs := cluster.Partition(pts, pf.opt.Cluster)
		asg := cluster.Assignment(cs)
		for i, ue := range ues {
			clusterOf[h][i] = int32(asg[ue])
		}
		numClusters[h] = len(cs)
		weights[h] = cluster.Weights(cs)
	})
	return clusterOf, numClusters, weights
}

// buildPersonas deduplicates per-UE cluster-membership vectors into
// weighted personas.
func buildPersonas(clusterOf [][]int32) []Persona {
	type key [HoursPerDay]int
	counts := make(map[key]int)
	order := []key{}
	ues := len(clusterOf[0])
	for i := range ues {
		var k key
		for h := 0; h < HoursPerDay; h++ {
			k[h] = int(clusterOf[h][i])
		}
		if _, ok := counts[k]; !ok {
			order = append(order, k)
		}
		counts[k]++
	}
	// order holds each distinct membership vector once, so no two tie.
	slices.SortFunc(order, func(x, y key) int { return slices.Compare(x[:], y[:]) })
	out := make([]Persona, len(order))
	total := float64(ues)
	for i, k := range order {
		cl := make([]int, HoursPerDay)
		copy(cl, k[:])
		out[i] = Persona{Cluster: cl, Weight: float64(counts[k]) / total}
	}
	return out
}
