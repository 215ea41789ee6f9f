package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamBytes drives the source through the incremental text writer —
// the CLI output path.
func streamBytes(t *testing.T, src trace.EventSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := trace.NewTextWriter(&buf)
	if err := trace.CopyBatches(tw, src); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompiledMatchesInterpreted is the tentpole invariant: production —
// the compiled engine under packed-key assembly (Generate) and under
// windowed assembly (Source) — produces
// byte-identical traces to the oracle, the interpreter under a comparison
// sort (interpTrace), for every seed and worker count: on the full
// two-level model, on a flat model whose free-running HO/TAU processes
// the two-level model never exercises, and on tickModel's event per UE
// per millisecond, which puts events on every window bound. The 336-h rows
// cross every hour boundary and midnight of two weeks, so the engine's
// cached cell must follow the hour; base-no-HO-h1 has a free clock fire
// in an hour whose cell lacks its process, which must disarm it.
func TestCompiledMatchesInterpreted(t *testing.T) {
	ours, base := fitToy(t, 50, 3*cp.Hour, 42, FitOptions{}), fitBase(t)
	cases := map[string]struct {
		ms       *ModelSet
		ues      int
		duration cp.Millis
	}{
		"ours":          {ours, 80, 3 * cp.Hour},
		"base":          {base, 80, 3 * cp.Hour},
		"tick":          {tickModel(t), 7, 3500},
		"ours-336h":     {ours, 6, 336 * cp.Hour},
		"base-336h":     {base, 6, 336 * cp.Hour},
		"base-no-HO-h1": {withoutFreeAt(t, fitBase(t), 1, cp.Handover), 80, 5 * cp.Hour},
	}
	for name, c := range cases {
		ms := c.ms
		for _, seed := range []uint64{1, 7, 99} {
			for _, workers := range []int{1, 8} {
				opt := GenOptions{NumUEs: c.ues, StartHour: 22, Duration: c.duration, Seed: seed, Workers: workers}
				want := interpTrace(t, ms, opt)
				if want.Len() == 0 {
					t.Fatalf("%s seed=%d: the oracle produced no events; test is vacuous", name, seed)
				}
				wb := traceBytes(t, want)

				got, err := Generate(ms, opt)
				if err != nil {
					t.Fatal(err)
				}
				if gb := traceBytes(t, got); !bytes.Equal(wb, gb) {
					t.Fatalf("%s seed=%d workers=%d: Generate differs from the interpreted oracle (%d vs %d bytes)",
						name, seed, workers, len(gb), len(wb))
				}

				csrc, err := NewSource(ms, opt)
				if err != nil {
					t.Fatal(err)
				}
				if sb := streamBytes(t, csrc); !bytes.Equal(wb, sb) {
					t.Fatalf("%s seed=%d workers=%d: Source.ScanBatches differs from the interpreted oracle", name, seed, workers)
				}
			}
		}
	}
}

// fitBase fits the Base method, whose free-running HO and TAU clocks race
// beside the machine.
func fitBase(t *testing.T) *ModelSet {
	t.Helper()
	ms, err := Fit(toyTrace(t, 60, 3*cp.Hour, 43), FitOptions{
		Machine:      sm.EMMECM(),
		SojournKind:  SojournExp,
		FreeEvents:   []cp.EventType{cp.Handover, cp.TrackingAreaUpdate},
		NoClustering: true,
		Method:       "base",
	})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// withoutFreeAt removes the free-running process of event type e from
// every cell of hour h, in place, and returns ms.
func withoutFreeAt(t *testing.T, ms *ModelSet, h int, e cp.EventType) *ModelSet {
	t.Helper()
	strip := func(fps []FreeProcess) []FreeProcess {
		var kept []FreeProcess
		for _, fp := range fps {
			if fp.Event != e {
				kept = append(kept, fp)
			}
		}
		return kept
	}
	stripped := 0
	for _, dm := range ms.Devices {
		if dm == nil || len(dm.Hours) <= h {
			continue
		}
		hm := &dm.Hours[h]
		for c := range hm.Clusters {
			hm.Clusters[c].Free = strip(hm.Clusters[c].Free)
			stripped++
		}
		if hm.Aggregate != nil {
			hm.Aggregate.Free = strip(hm.Aggregate.Free)
			stripped++
		}
	}
	if stripped == 0 {
		t.Fatalf("no hour-%d model to strip", h)
	}
	return ms
}

// TestUEGenSteadyStateAllocs is the allocation regression gate on the loop
// production runs: the compiled generator's drainUntil, called the way the
// streaming Source calls it — rising limits, a reused KeyRun already grown
// past anything one call appends — must not allocate at all. The
// interpreted oracle's Next must stay near zero (it reuses its queue
// backing array; the historical g.queue = g.queue[1:] re-slice leaked
// capacity and re-allocated on every flush). Skipped under the race
// detector, which changes allocation behavior.
func TestUEGenSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	ms := fitToy(t, 40, 3*cp.Hour, 44, FitOptions{})
	machine, err := ms.Machine()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compile(ms, machine)
	if err != nil {
		t.Fatal(err)
	}
	var dev cp.DeviceType = 255
	for d := 0; d < cp.NumDeviceTypes; d++ {
		if cm.dev(cp.DeviceType(d)) != nil {
			dev = cp.DeviceType(d)
			break
		}
	}
	if dev == 255 {
		t.Fatal("toy model has no device models")
	}
	const warmup, runs = 2000, 4000
	end := 365 * cp.Day

	t.Run("compiled", func(t *testing.T) {
		lay, fits := trace.NewKeyLayout(0, end+windowOvershoot-1, 1)
		if !fits {
			t.Fatal("layout does not fit")
		}
		g := newUEGen(cm, cm.dev(dev), 1, stats.NewRNGVal(1), 0, end)
		// Warm-up without Reset: the run grows to hold a month of keys,
		// far more than the hour one measured call appends.
		var run trace.KeyRun
		limit := 30 * cp.Day
		if g.drainUntil(limit, &lay, &run) == trace.NoPending || g.emitted < warmup {
			t.Fatalf("generator exhausted or nearly silent: %d warm-up events", g.emitted)
		}
		before, alive := g.emitted, true
		avg := testing.AllocsPerRun(runs, func() {
			run.Reset()
			limit += cp.Hour
			if g.drainUntil(limit, &lay, &run) == trace.NoPending {
				alive = false
			}
		})
		if !alive {
			t.Fatal("generator exhausted during measurement")
		}
		if n := g.emitted - before; n < runs {
			t.Fatalf("%d measured calls delivered %d events; test is close to vacuous", runs, n)
		}
		if avg > 0 {
			t.Errorf("steady-state drainUntil allocates %.4f allocs/call, want 0", avg)
		}
	})
	t.Run("interpreted", func(t *testing.T) {
		it := newUEInterp(machine, ms.Device(dev), 1, stats.NewRNG(1), 0, end)
		for i := 0; i < warmup; i++ {
			if _, ok := it.Next(); !ok {
				t.Fatalf("generator exhausted after %d warm-up events", i)
			}
		}
		alive := true
		avg := testing.AllocsPerRun(runs, func() {
			if _, ok := it.Next(); !ok {
				alive = false
			}
		})
		if !alive {
			t.Fatal("generator exhausted during measurement")
		}
		if avg > 0.05 {
			t.Errorf("steady-state Next allocates %.4f allocs/event, want <= 0.05", avg)
		}
	})
}

// resolvedCell is the cell oracle: the (hour, cluster) cell built through
// the interpreter's per-draw resolvers (interp_test.go), with tables of
// its own where compile shares the lowered levels'.
func resolvedCell(dm *DeviceModel, machine *sm.Machine, h, cl int) cCell {
	dist := func(s SojournModel) cDist {
		d, _ := compileDist(s)
		return d
	}
	var cell cCell
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
			ts[i] = cTopTrans{cum: acc, ev: tp.Event, ok: ok, to: to, soj: dist(tp.Sojourn)}
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
			bs.trans[i] = cBotTrans{cum: acc, ev: tp.Event, ok: ok, to: to, soj: dist(soj)}
		}
	}
	if fps := dm.freeParams(h, cl); len(fps) > 0 {
		cell.free = make([]cFree, len(fps))
		for i, fp := range fps {
			cell.free[i] = cFree{ev: fp.Event, inter: dist(fp.Inter)}
		}
	}
	if fe, ok := dm.firstEvent(h, cl); ok {
		cf := &cell.first
		cf.pnone = fe.PNone
		cf.offset = dist(fe.Offset)
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
	return cell
}

// CompiledCellsMatchResolvers compiles ms and holds every cell — each
// device, hour of the day and cluster −1…n−1 — to resolvedCell's, by
// reflect.DeepEqual. It is exported for the fiveg models' test, which
// lives in package core_test because fiveg imports core.
func CompiledCellsMatchResolvers(ms *ModelSet) error {
	machine, err := ms.Machine()
	if err != nil {
		return err
	}
	cm, err := compile(ms, machine)
	if err != nil {
		return err
	}
	cells := 0
	for d, dm := range ms.Devices {
		if dm == nil {
			continue
		}
		cd := cm.dev(cp.DeviceType(d))
		for h := range cd.cells {
			n := 0
			if h < len(dm.Hours) {
				n = len(dm.Hours[h].Clusters)
			}
			if len(cd.cells[h]) != n+1 {
				return fmt.Errorf("device %d hour %d: %d cells for %d clusters", d, h, len(cd.cells[h]), n)
			}
			for c := range cd.cells[h] {
				if !reflect.DeepEqual(cd.cells[h][c], resolvedCell(dm, machine, h, c-1)) {
					return fmt.Errorf("device %d hour %d cluster %d: compile's cell differs from the resolvers'", d, h, c-1)
				}
				cells++
			}
		}
	}
	if cells == 0 {
		return fmt.Errorf("%s model: no cells to compare", ms.Method)
	}
	return nil
}

// TestCompiledCellsMatchResolvers: compile builds each cell from levels
// lowered once and shared, the oracle through the per-draw resolvers; the
// two fallback implementations must agree on every cell of the four
// methods' fitted models and of the hand-built fallback models, one of
// which has global bottom states with a PExit and no transitions (taken
// as they are) and cluster states with none (which fall through).
// TestCompiledCellsMatchResolversFiveG covers both 5G adaptations.
func TestCompiledCellsMatchResolvers(t *testing.T) {
	models := map[string]*ModelSet{}
	tr := toyTrace(t, 60, 6*cp.Hour, 11)
	for _, method := range []string{"base", "v1", "v2", "ours"} {
		ms, err := Fit(tr, pinnedFitOptions(method))
		if err != nil {
			t.Fatal(err)
		}
		models[method] = ms
	}
	models["base-no-HO-h1"] = withoutFreeAt(t, fitBase(t), 1, cp.Handover)
	hand := func(edit func(dm *DeviceModel)) *ModelSet {
		ms := &ModelSet{MachineName: "LTE-2LEVEL", Method: "hand", Devices: make([]*DeviceModel, cp.NumDeviceTypes)}
		ms.Devices[cp.Phone] = mkDeviceModel()
		ms.Devices[cp.Phone].Share = 1
		edit(ms.Devices[cp.Phone])
		return ms
	}
	models["fallback"] = hand(func(*DeviceModel) {})
	models["fallback-global-bottom"] = hand(func(dm *DeviceModel) {
		dm.Global.Bottom = make([]StateParam, sm.LTE2Level().NumStates())
		dm.Global.Bottom[sm.LTETauSIdle].PExit = 0.25
		dm.Global.Bottom[sm.LTEHoS].PExit = 0.5
		dm.Global.Bottom[sm.LTESrvReqS].Out = []TransitionParam{{Event: cp.TrackingAreaUpdate, P: 1, Sojourn: SojournModel{Kind: SojournConst, Value: 4}}}
		dm.Hours[0].Clusters[0].Bottom[sm.LTEHoS].PExit = 0.75 // no transitions: falls through to the global
		dm.Hours[0].Aggregate.Free = []FreeProcess{{Event: cp.Handover, Inter: SojournModel{Kind: SojournExp, Lambda: 0.1}}}
	})
	for name, ms := range models {
		if err := CompiledCellsMatchResolvers(ms); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// refusalLevel is a valid ClusterModel of the LTE two-level machine with
// every part a check can fault: a top and a bottom state (the bottom one
// with a state-level sojourn), a free process and a first-event model.
func refusalLevel() ClusterModel {
	soj := SojournModel{Kind: SojournConst, Value: 1}
	cm := ClusterModel{Top: make([]StateParam, cp.NumUEStates), Bottom: make([]StateParam, sm.LTE2Level().NumStates())}
	cm.Top[cp.StateDeregistered].Out = []TransitionParam{{Event: cp.Attach, P: 1, Sojourn: soj}}
	cm.Top[cp.StateConnected].Out = []TransitionParam{{Event: cp.S1ConnRelease, P: 1, Sojourn: soj}}
	cm.Top[cp.StateIdle].Out = []TransitionParam{{Event: cp.ServiceRequest, P: 1, Sojourn: soj}}
	cm.Bottom[sm.LTESrvReqS] = StateParam{Out: []TransitionParam{{Event: cp.Handover, P: 1, Sojourn: soj}}, PExit: 0.5, Sojourn: &soj}
	cm.Free = []FreeProcess{{Event: cp.TrackingAreaUpdate, Inter: SojournModel{Kind: SojournExp, Lambda: 0.01}}}
	cm.First = FirstEventModel{PNone: 0.1, Cats: []FirstCat{{Event: cp.ServiceRequest, State: sm.LTESrvReqS, P: 1}}, Offset: SojournModel{Kind: SojournConst, Value: 10}}
	return cm
}

// refusalModel is a valid phone model with every level present: 24 hours
// of one cluster and an aggregate each, and a global, all refusalLevel.
func refusalModel() *ModelSet {
	dm := &DeviceModel{Personas: []Persona{{Cluster: make([]int, HoursPerDay), Weight: 1}}, Hours: make([]HourModel, HoursPerDay), Share: 1}
	for h := range dm.Hours {
		agg := refusalLevel()
		dm.Hours[h] = HourModel{Clusters: []ClusterModel{refusalLevel()}, Aggregate: &agg}
	}
	global := refusalLevel()
	dm.Global = &global
	return &ModelSet{MachineName: "LTE-2LEVEL", Method: "refusal", Devices: []*DeviceModel{dm}}
}

// TestCompileRefusals: one fault per check of compile, at each level the
// fallback chain has — a cluster, an hour aggregate, the device global —
// and per device-wide check, each with the exact error. Validate,
// Generate and NewSource each return it for a fresh copy of the model, and
// validateOracle's walk gives the same text. A bad global every aggregate
// shadows is refused too: no cell resolves to it, but compile lowers it.
func TestCompileRefusals(t *testing.T) {
	if err := refusalModel().Validate(); err != nil {
		t.Fatalf("the base model: %v", err)
	}
	idle, srv := int(cp.StateIdle), int(sm.LTESrvReqS)
	faults := []struct {
		name  string
		fault func(cm *ClusterModel)
		want  string
	}{
		{"top PExit", func(cm *ClusterModel) { cm.Top[idle].PExit = 1.5 }, fmt.Sprintf("top state %d: PExit 1.5 out of range", idle)},
		{"top state sojourn", func(cm *ClusterModel) { cm.Top[idle].Sojourn = &SojournModel{Kind: SojournExp} }, fmt.Sprintf("top state %d: invalid state-level sojourn", idle)},
		{"top event", func(cm *ClusterModel) { cm.Top[idle].Out[0].Event = 9 }, fmt.Sprintf("top state %d: transition on invalid event 9", idle)},
		{"top probability", func(cm *ClusterModel) { cm.Top[idle].Out[0].P = 5 }, fmt.Sprintf("top state %d: probability 5 out of range", idle)},
		{"top sojourn kind", func(cm *ClusterModel) { cm.Top[idle].Out[0].Sojourn = SojournModel{Kind: "bogus"} }, fmt.Sprintf("top state %d event %v: invalid sojourn", idle, cp.ServiceRequest)},
		{"top sum", func(cm *ClusterModel) { cm.Top[idle].Out[0].P = 0.5 }, fmt.Sprintf("top state %d: probabilities sum to 0.5", idle)},
		{"bottom PExit", func(cm *ClusterModel) { cm.Bottom[srv].PExit = -0.5 }, fmt.Sprintf("bottom state %d: PExit -0.5 out of range", srv)},
		{"bottom state sojourn", func(cm *ClusterModel) {
			cm.Bottom[srv].Sojourn = &SojournModel{Kind: SojournTable, Q: []float64{2, 1}}
		}, fmt.Sprintf("bottom state %d: invalid state-level sojourn", srv)},
		{"bottom event", func(cm *ClusterModel) { cm.Bottom[srv].Out[0].Event = 200 }, fmt.Sprintf("bottom state %d: transition on invalid event 200", srv)},
		{"bottom probability", func(cm *ClusterModel) { cm.Bottom[srv].Out[0].P = -1 }, fmt.Sprintf("bottom state %d: probability -1 out of range", srv)},
		{"bottom sojourn", func(cm *ClusterModel) {
			cm.Bottom[srv].Out[0].Sojourn = SojournModel{Kind: SojournExp, Lambda: -1}
		}, fmt.Sprintf("bottom state %d event %v: invalid sojourn", srv, cp.Handover)},
		{"bottom sum", func(cm *ClusterModel) {
			cm.Bottom[srv].Out = append(cm.Bottom[srv].Out, TransitionParam{Event: cp.TrackingAreaUpdate, P: 0.25, Sojourn: cm.Bottom[srv].Out[0].Sojourn})
		}, fmt.Sprintf("bottom state %d: probabilities sum to 1.25", srv)},
		{"free event", func(cm *ClusterModel) { cm.Free[0].Event = 8 }, "free process: invalid event 8"},
		{"free inter-arrival", func(cm *ClusterModel) { cm.Free[0].Inter = SojournModel{Kind: SojournConst, Value: -1} }, fmt.Sprintf("free %v process: invalid inter-arrival model", cp.TrackingAreaUpdate)},
		{"first offset", func(cm *ClusterModel) { cm.First.Offset = SojournModel{Kind: SojournTable} }, "first event: invalid offset model"},
		{"first event", func(cm *ClusterModel) { cm.First.Cats[0].Event = 77 }, "first event: invalid event 77"},
		{"first probability", func(cm *ClusterModel) { cm.First.Cats[0].P = -0.25 }, "first event: probability -0.25 out of range"},
		{"first sum", func(cm *ClusterModel) { cm.First.Cats[0].P = 0.75 }, "first event: probabilities sum to 0.75"},
	}
	levels := []struct {
		name, where string
		at          func(dm *DeviceModel) *ClusterModel
	}{
		{"cluster", "core: device 0 hour 5 cluster 0", func(dm *DeviceModel) *ClusterModel { return &dm.Hours[5].Clusters[0] }},
		{"aggregate", "core: device 0 hour 5 aggregate", func(dm *DeviceModel) *ClusterModel { return dm.Hours[5].Aggregate }},
		{"global", "core: device 0 global", func(dm *DeviceModel) *ClusterModel { return dm.Global }},
	}
	type row struct {
		name  string
		model func() *ModelSet
		want  string
	}
	var rows []row
	for _, lv := range levels {
		for _, f := range faults {
			rows = append(rows, row{lv.name + " " + f.name, func() *ModelSet {
				ms := refusalModel()
				f.fault(lv.at(ms.Devices[0]))
				return ms
			}, lv.where + " " + f.want})
		}
	}
	edit := func(fn func(ms *ModelSet)) func() *ModelSet {
		return func() *ModelSet {
			ms := refusalModel()
			fn(ms)
			return ms
		}
	}
	rows = append(rows,
		row{"persona hours", edit(func(ms *ModelSet) { ms.Devices[0].Personas[0].Cluster = make([]int, 3) }), "core: device 0 persona covers 3 hours, model has 24"},
		row{"persona weights", edit(func(ms *ModelSet) { ms.Devices[0].Personas[0].Weight = 0.5 }), "core: device 0 persona weights sum to 0.5"},
		row{"machine", edit(func(ms *ModelSet) { ms.MachineName = "LTE" }), `core: unknown machine "LTE"`},
		row{"global every aggregate shadows", edit(func(ms *ModelSet) {
			bad := ClusterModel{Top: make([]StateParam, cp.NumUEStates)}
			bad.Top[idle].Out = []TransitionParam{{Event: cp.ServiceRequest, P: 5, Sojourn: SojournModel{Kind: SojournConst, Value: 1}}}
			ms.Devices[0].Global = &bad
		}), fmt.Sprintf("core: device 0 global top state %d: probability 5 out of range", idle)},
	)
	opt := GenOptions{NumUEs: 5, StartHour: 4, Duration: 2 * cp.Hour, Seed: 1}
	entries := []struct {
		name string
		run  func(ms *ModelSet) error
	}{
		{"Validate", (*ModelSet).Validate},
		{"Generate", func(ms *ModelSet) error { _, err := Generate(ms, opt); return err }},
		{"NewSource", func(ms *ModelSet) error { _, err := NewSource(ms, opt); return err }},
		{"validateOracle", validateOracle},
	}
	for _, r := range rows {
		for _, e := range entries {
			if err := e.run(r.model()); err == nil || err.Error() != r.want {
				t.Errorf("%s: %s returned %v, want %s", r.name, e.name, err, r.want)
			}
		}
	}
	if tr, err := Generate(refusalModel(), opt); err != nil || tr.Len() == 0 {
		t.Fatalf("the base model generated %v events (error %v)", tr, err)
	}
}
