package core

import (
	"cmp"
	"slices"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/par"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// FitOptions configures the model-fitting pipeline.
type FitOptions struct {
	// Machine is the protocol state machine to fit against; nil means
	// the LTE two-level machine.
	Machine *sm.Machine
	// SojournKind selects the sojourn distribution family: SojournTable
	// (the paper's method, default) or SojournExp (the V2 ablation and
	// the Poisson baselines).
	SojournKind string
	// FreeEvents lists event types modeled as free-running processes
	// instead of sub-machine transitions; the Base and V1 methods use
	// {HO, TAU} with the flat EMM-ECM machine.
	FreeEvents []cp.EventType
	// NoClustering disables adaptive clustering (the Base method): all
	// UEs of a device type form a single cluster.
	NoClustering bool
	// Cluster configures the adaptive clustering scheme (§5.3).
	Cluster cluster.Options
	// Method is a label stored in the model ("ours", "base", "v1", "v2").
	Method string
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

func (o FitOptions) withDefaults() FitOptions {
	if o.Machine == nil {
		o.Machine = sm.LTE2Level()
	}
	if o.SojournKind == "" {
		o.SojournKind = SojournTable
	}
	if o.Method == "" {
		o.Method = "ours"
	}
	return o
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

type topKey struct {
	S cp.UEState
	E cp.EventType
}

type botKey struct {
	S sm.State
	E cp.EventType
}

// firstCatKey keys first-event categories by (event, post-state).
type firstCatKey struct {
	E cp.EventType
	S sm.State
}

type acc struct {
	TopCount  map[topKey]int
	TopSoj    map[topKey][]float64
	BotCount  map[botKey]int
	BotSoj    map[botKey][]float64
	BotCensor map[sm.State][]float64
	FreeIA    map[cp.EventType][]float64
	FirstCnt  map[firstCatKey]int
	FirstOff  []float64
	Cells     int // UE-day cells (PNone denominator)
	WithEv    int // cells that had at least one event
	NumUEs    int
}

func newAcc() *acc {
	return &acc{
		TopCount:  make(map[topKey]int),
		TopSoj:    make(map[topKey][]float64),
		BotCount:  make(map[botKey]int),
		BotSoj:    make(map[botKey][]float64),
		BotCensor: make(map[sm.State][]float64),
		FreeIA:    make(map[cp.EventType][]float64),
		FirstCnt:  make(map[firstCatKey]int),
	}
}

// build converts an accumulator into a ClusterModel. It consumes the
// accumulator: the sample lists are the accumulator's own (setPool), so
// the SojournTable fits sort them in place, through scratch
// (stats.SortFloats' buffer, the caller's to reuse across accumulators
// of one goroutine).
func (a *acc) build(m *sm.Machine, opt FitOptions, scratch *[]float64) ClusterModel {
	cm := ClusterModel{
		Top:    make([]StateParam, cp.NumUEStates),
		NumUEs: a.NumUEs,
	}
	if m.HasSubStructure() {
		cm.Bottom = make([]StateParam, m.NumStates())
	}
	// Top level: normalize counts per macro state.
	var topTotal [cp.NumUEStates]int
	for k, c := range a.TopCount {
		topTotal[k.S] += c
	}
	// Emit transitions in fixed (state, event) order, not map order:
	// fitSojourn's float folds must see each sample list at a
	// reproducible point in the build, and the output is then sorted by
	// construction rather than by the sortTransitions pass below.
	for s := 0; s < cp.NumUEStates; s++ {
		for _, e := range cp.EventTypes {
			k := topKey{S: cp.UEState(s), E: e}
			c, ok := a.TopCount[k]
			if !ok {
				continue
			}
			p := float64(c) / float64(topTotal[k.S])
			cm.Top[k.S].Out = append(cm.Top[k.S].Out, TransitionParam{
				Event:   k.E,
				P:       p,
				Sojourn: fitSojourn(a.TopSoj[k], opt.SojournKind, scratch),
			})
		}
	}
	// Bottom level, with competing-risks censoring. The state-level
	// delay marginal is estimated with Kaplan–Meier (SojournTable kind)
	// or the censored exponential MLE (SojournExp kind); the race
	// against the top level then re-applies the censoring naturally.
	// PExit is the KM tail mass: the probability the sub-machine never
	// fires within observable horizons.
	if cm.Bottom != nil {
		botTotal := make([]int, m.NumStates())
		for k, c := range a.BotCount {
			botTotal[k.S] += c
		}
		// Each state's fired-delay lists in fixed (state, event) order,
		// not map order: CensoredExpMLE sums their concatenation, and
		// float summation order must not depend on map iteration for the
		// model bytes to be reproducible.
		firedBy := make([][][]float64, m.NumStates())
		for s := 0; s < m.NumStates(); s++ {
			for _, e := range cp.EventTypes {
				if soj, ok := a.BotSoj[botKey{S: sm.State(s), E: e}]; ok {
					firedBy[s] = append(firedBy[s], soj)
				}
			}
		}
		for s := 0; s < m.NumStates(); s++ {
			for _, e := range cp.EventTypes {
				k := botKey{S: sm.State(s), E: e}
				c, ok := a.BotCount[k]
				if !ok {
					continue
				}
				p := float64(c) / float64(botTotal[k.S])
				cm.Bottom[k.S].Out = append(cm.Bottom[k.S].Out, TransitionParam{
					Event:   k.E,
					P:       p,
					Sojourn: fitSojourn(a.BotSoj[k], opt.SojournKind, scratch),
				})
			}
		}
		for s := 0; s < m.NumStates(); s++ {
			if len(firedBy[s]) == 0 {
				continue
			}
			censored := a.BotCensor[sm.State(s)]
			switch opt.SojournKind {
			case SojournExp: // the fits above leave exponential lists in order
				fired := slices.Concat(firedBy[s]...)
				if lambda, ok := stats.CensoredExpMLE(fired, censored); ok {
					cm.Bottom[s].Sojourn = &SojournModel{Kind: SojournExp, Lambda: lambda}
				}
			default:
				// The table fits above sorted each list in place, so
				// the state's delays are a merge away from sorted.
				fired := stats.MergeSortedFloats(firedBy[s], scratch)
				stats.SortFloats(censored, scratch)
				if q, tail, ok := stats.KaplanMeierSorted(fired, censored); ok {
					cm.Bottom[s].Sojourn = &SojournModel{Kind: SojournTable, Q: q.Q}
					cm.Bottom[s].PExit = tail
				}
			}
		}
	}
	// Deterministic transition order (by event) for reproducible output.
	for i := range cm.Top {
		sortTransitions(cm.Top[i].Out)
	}
	for i := range cm.Bottom {
		sortTransitions(cm.Bottom[i].Out)
	}
	// Free processes.
	for _, e := range opt.FreeEvents {
		ia := a.FreeIA[e]
		if len(ia) < 2 {
			continue
		}
		cm.Free = append(cm.Free, FreeProcess{
			Event: e,
			Inter: fitSojourn(ia, opt.SojournKind, scratch),
		})
	}
	// First-event model.
	if a.Cells > 0 && a.WithEv > 0 {
		cm.First.PNone = 1 - float64(a.WithEv)/float64(a.Cells)
		cats := make([]FirstCat, 0, len(a.FirstCnt))
		for k, c := range a.FirstCnt {
			cats = append(cats, FirstCat{
				Event: k.E,
				State: k.S,
				P:     float64(c) / float64(a.WithEv),
			})
		}
		// One category per FirstCnt map key, so (Event, State) never ties.
		slices.SortFunc(cats, func(x, y FirstCat) int {
			return cmp.Or(cmp.Compare(x.Event, y.Event), cmp.Compare(x.State, y.State))
		})
		cm.First.Cats = cats
		cm.First.Offset = fitSojourn(a.FirstOff, SojournTable, scratch)
	}
	return cm
}

// sortTransitions orders one state's outgoing transitions by event. A
// state has one transition per event (the count maps are keyed by
// (state, event)), so the comparator never ties.
func sortTransitions(out []TransitionParam) {
	slices.SortFunc(out, func(x, y TransitionParam) int { return cmp.Compare(x.Event, y.Event) })
}

// --- clustering ---

// clusterHours partitions a device type's UEs per hour-of-day, with
// featAt supplying the clustering features of UE index i at hour h. Hours
// are independent and every write is indexed by h; cluster.Partition
// itself is deterministic (it sorts its input by UE id), so the result is
// identical for any worker count. Both the in-memory and the streaming
// fit run exactly this code.
func clusterHours(ues []cp.UEID, opt FitOptions, featAt func(i, h int) cluster.Features) (assignments []map[cp.UEID]int, numClusters []int, weights [][]float64) {
	assignments = make([]map[cp.UEID]int, HoursPerDay)
	numClusters = make([]int, HoursPerDay)
	weights = make([][]float64, HoursPerDay)
	par.For(HoursPerDay, opt.Workers, func(h int) {
		if opt.NoClustering {
			asg := make(map[cp.UEID]int, len(ues))
			for _, ue := range ues {
				asg[ue] = 0
			}
			assignments[h] = asg
			numClusters[h] = 1
			weights[h] = []float64{1}
			return
		}
		pts := make([]cluster.Point, len(ues))
		for i, ue := range ues {
			pts[i] = cluster.Point{UE: ue, F: featAt(i, h)}
		}
		cs := cluster.Partition(pts, opt.Cluster)
		assignments[h] = cluster.Assignment(cs)
		numClusters[h] = len(cs)
		weights[h] = cluster.Weights(cs)
	})
	return assignments, numClusters, weights
}

// buildPersonas deduplicates per-UE cluster-membership vectors into
// weighted personas.
func buildPersonas(ues []cp.UEID, assignments []map[cp.UEID]int) []Persona {
	type key [HoursPerDay]int
	counts := make(map[key]int)
	order := []key{}
	for _, ue := range ues {
		var k key
		for h := 0; h < HoursPerDay; h++ {
			k[h] = assignments[h][ue]
		}
		if _, ok := counts[k]; !ok {
			order = append(order, k)
		}
		counts[k]++
	}
	// order holds each distinct membership vector once, so no two tie.
	slices.SortFunc(order, func(x, y key) int { return slices.Compare(x[:], y[:]) })
	out := make([]Persona, len(order))
	total := float64(len(ues))
	for i, k := range order {
		cl := make([]int, HoursPerDay)
		copy(cl, k[:])
		out[i] = Persona{Cluster: cl, Weight: float64(counts[k]) / total}
	}
	return out
}
