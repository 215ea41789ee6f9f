package core

import (
	"cmp"
	"slices"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/par"
	"cptraffic/internal/sm"
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

// accCounts is an accumulator's tallies, which a tally row fills
// (layout.applyRow).
type accCounts struct {
	TopCount map[topKey]int
	BotCount map[botKey]int
	FirstCnt map[firstCatKey]int
	Cells    int // UE-day cells (PNone denominator)
	WithEv   int // cells that had at least one event
	NumUEs   int
}

// acc is one model's tallies and sample lists, each list a pool's
// samples in (UE, seq) order.
type acc[T sample] struct {
	accCounts
	TopSoj    map[topKey][]T
	BotSoj    map[botKey][]T
	BotCensor map[sm.State][]T
	FreeIA    map[cp.EventType][]T
	FirstOff  []T
}

func newAcc[T sample]() *acc[T] {
	return &acc[T]{
		accCounts: accCounts{
			TopCount: make(map[topKey]int),
			BotCount: make(map[botKey]int),
			FirstCnt: make(map[firstCatKey]int),
		},
		TopSoj:    make(map[topKey][]T),
		BotSoj:    make(map[botKey][]T),
		BotCensor: make(map[sm.State][]T),
		FreeIA:    make(map[cp.EventType][]T),
	}
}

// build converts an accumulator into a ClusterModel. It consumes the
// accumulator: the sample lists are the accumulator's own (setPool), so
// the SojournTable fits sort them in place, through sc (the caller's to
// reuse across accumulators of one goroutine).
func (a *acc[T]) build(m *sm.Machine, opt FitOptions, sc *fitScratch[T]) ClusterModel {
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
				Sojourn: fitSojourn(a.TopSoj[k], opt.SojournKind, sc),
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
		firedBy := make([][][]T, m.NumStates())
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
					Sojourn: fitSojourn(a.BotSoj[k], opt.SojournKind, sc),
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
				if lambda, ok := censoredExp(firedBy[s], censored, sc); ok {
					cm.Bottom[s].Sojourn = &SojournModel{Kind: SojournExp, Lambda: lambda}
				}
			default:
				// The table fits above sorted each list in place, so
				// the state's delays are a merge away from sorted.
				fired := mergeMillis(firedBy[s])
				sortMillis(censored, &sc.sort)
				if q, tail, ok := kaplanMeier(fired, censored); ok {
					cm.Bottom[s].Sojourn = &SojournModel{Kind: SojournTable, Q: q}
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
			Inter: fitSojourn(ia, opt.SojournKind, sc),
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
		cm.First.Offset = fitSojourn(a.FirstOff, SojournTable, sc)
	}
	return cm
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

// sortTransitions orders one state's outgoing transitions by event. A
// state has one transition per event (the count maps are keyed by
// (state, event)), so the comparator never ties.
func sortTransitions(out []TransitionParam) {
	slices.SortFunc(out, func(x, y TransitionParam) int { return cmp.Compare(x.Event, y.Event) })
}

// --- clustering ---

// clusterHours partitions a device type's UEs per hour-of-day, with
// featAt supplying the clustering features of UE index i at hour h;
// clusterOf[h][i] is UE index i's cluster at hour h. Hours are
// independent and every write is indexed by h; cluster.Partition itself
// is deterministic (it sorts its input by UE id), so the result is
// identical for any worker count.
func clusterHours(ues []cp.UEID, opt FitOptions, featAt func(i, h int) cluster.Features) (clusterOf [][]int32, numClusters []int, weights [][]float64) {
	clusterOf = make([][]int32, HoursPerDay)
	numClusters = make([]int, HoursPerDay)
	weights = make([][]float64, HoursPerDay)
	par.For(HoursPerDay, opt.Workers, func(h int) {
		clusterOf[h] = make([]int32, len(ues))
		if opt.NoClustering {
			numClusters[h] = 1
			weights[h] = []float64{1}
			return
		}
		pts := make([]cluster.Point, len(ues))
		for i, ue := range ues {
			pts[i] = cluster.Point{UE: ue, F: featAt(i, h)}
		}
		cs := cluster.Partition(pts, opt.Cluster)
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
