package eval

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

func worldTrace(t *testing.T, n int, dur cp.Millis, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := world.Generate(world.Options{NumUEs: n, Duration: dur, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// mustCollect collects a source, failing the test on an error.
func mustCollect(t testing.TB, src trace.EventSource) *Collection {
	t.Helper()
	col, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestComputeBreakdownSharesSumToOne(t *testing.T) {
	col := mustCollect(t, worldTrace(t, 200, 4*cp.Hour, 1))
	for _, d := range cp.DeviceTypes {
		b := ComputeBreakdown(col, d)
		if b.Total == 0 {
			t.Fatalf("%v: no events", d)
		}
		var sum float64
		for _, k := range BreakdownKeys {
			sum += b.Share[k]
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("%v shares sum to %v", d, sum)
		}
		if b.Share["HO (IDLE)"] != 0 {
			t.Fatalf("%v: world trace shows HO in IDLE", d)
		}
	}
}

func TestComputeBreakdownHandBuilt(t *testing.T) {
	tr := trace.New()
	tr.SetDevice(1, cp.Phone)
	add := func(sec float64, e cp.EventType) {
		tr.Append(trace.Event{T: cp.MillisFromSeconds(sec), UE: 1, Type: e})
	}
	add(0, cp.Attach)
	add(1, cp.Handover) // CONNECTED
	add(2, cp.S1ConnRelease)
	add(3, cp.TrackingAreaUpdate) // IDLE
	add(4, cp.S1ConnRelease)      // TAU release, IDLE
	b := ComputeBreakdown(mustCollect(t, tr), cp.Phone)
	if b.Total != 5 {
		t.Fatalf("total = %d", b.Total)
	}
	if b.Share["HO (CONN.)"] != 0.2 || b.Share["TAU (IDLE)"] != 0.2 || b.Share["S1_CONN_REL"] != 0.4 {
		t.Fatalf("shares = %v", b.Share)
	}
}

func TestBreakdownDiffAndMaxAbs(t *testing.T) {
	a := Breakdown{Share: map[string]float64{"ATCH": 0.1, "DTCH": 0.2}}
	b := Breakdown{Share: map[string]float64{"ATCH": 0.15, "DTCH": 0.1}}
	d := BreakdownDiff(a, b)
	if math.Abs(d["ATCH"]-0.05) > 1e-12 || math.Abs(d["DTCH"]+0.1) > 1e-12 {
		t.Fatalf("diff = %v", d)
	}
	if m := MaxAbsDiff(d); math.Abs(m-0.1) > 1e-12 {
		t.Fatalf("max = %v", m)
	}
}

func TestSimpleBreakdown(t *testing.T) {
	tr := worldTrace(t, 150, 2*cp.Hour, 2)
	shares, total := SimpleBreakdown(tr, cp.Phone)
	if total == 0 {
		t.Fatal("no events")
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
	if _, total := SimpleBreakdown(trace.New(), cp.Phone); total != 0 {
		t.Fatal("empty trace nonzero")
	}
}

func TestHourCountsAndBoxStats(t *testing.T) {
	tr := worldTrace(t, 200, 2*cp.Day, 3)
	col := mustCollect(t, tr)
	hc := HourCounts(col, cp.Phone, cp.ServiceRequest)
	// Each phone's count is its SRV_REQs in the hour of day, by the
	// trace's own events, over the trace's two days.
	want := map[cp.UEID]*[24]float64{}
	for _, ue := range tr.UEsOfType(cp.Phone) {
		want[ue] = new([24]float64)
	}
	for _, ev := range tr.Events {
		if w := want[ev.UE]; w != nil && ev.Type == cp.ServiceRequest {
			w[ev.T.HourOfDay()] += 0.5
		}
	}
	phones := col.UEs(cp.Phone)
	for h := range hc {
		if len(hc[h]) != len(want) {
			t.Fatalf("hour %d has %d UEs, want %d", h, len(hc[h]), len(want))
		}
		for i, ue := range phones {
			if hc[h][i] != want[ue][h] {
				t.Fatalf("UE %d, hour %d: %v SRV_REQ a day, the trace %v", ue, h, hc[h][i], want[ue][h])
			}
		}
	}
	// Daytime busier than pre-dawn.
	day := ComputeBoxStats(hc[18])
	night := ComputeBoxStats(hc[3])
	if day.Mean <= night.Mean {
		t.Fatalf("day mean %v <= night mean %v", day.Mean, night.Mean)
	}
	// Box stats sanity on a known sample.
	bs := ComputeBoxStats([]float64{1, 2, 3, 4, 5})
	if bs.Min != 1 || bs.Max != 5 || bs.Median != 3 || bs.Mean != 3 || bs.Q1 != 2 || bs.Q3 != 4 {
		t.Fatalf("box = %+v", bs)
	}
	if (ComputeBoxStats(nil) != BoxStats{}) {
		t.Fatal("empty box stats not zero")
	}
}

func TestEventsPerUEIncludesSilent(t *testing.T) {
	tr := trace.New()
	tr.SetDevice(1, cp.Phone)
	tr.SetDevice(2, cp.Phone)
	tr.Append(trace.Event{T: 1, UE: 1, Type: cp.ServiceRequest})
	counts := EventsPerUE(mustCollect(t, tr), cp.Phone, cp.ServiceRequest)
	if len(counts) != 2 {
		t.Fatalf("counts = %v", counts)
	}
	sum := counts[0] + counts[1]
	if sum != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestStateSojourns(t *testing.T) {
	tr := trace.New()
	tr.SetDevice(1, cp.Phone)
	add := func(sec float64, e cp.EventType) {
		tr.Append(trace.Event{T: cp.MillisFromSeconds(sec), UE: 1, Type: e})
	}
	add(0, cp.Attach)
	add(10, cp.S1ConnRelease)
	add(40, cp.ServiceRequest)
	col := mustCollect(t, tr)
	so := StateSojourns(col, cp.Phone, cp.StateConnected)
	if len(so) != 1 || so[0] != 10 {
		t.Fatalf("connected = %v", so)
	}
	so = StateSojourns(col, cp.Phone, cp.StateIdle)
	if len(so) != 1 || so[0] != 30 {
		t.Fatalf("idle = %v", so)
	}
}

func TestComputeMicroDistancesSelfIsSmall(t *testing.T) {
	col := mustCollect(t, worldTrace(t, 300, 3*cp.Hour, 4))
	d := ComputeMicroDistances(col, col, cp.Phone)
	if d.SrvReqPerUE != 0 || d.Connected != 0 {
		t.Fatalf("self-distance = %+v", d)
	}
	other := mustCollect(t, worldTrace(t, 300, 3*cp.Hour, 5))
	d2 := ComputeMicroDistances(col, other, cp.Phone)
	// Two draws from the same world should be close but nonzero.
	if d2.SrvReqPerUE <= 0 || d2.SrvReqPerUE > 0.2 {
		t.Fatalf("cross-seed SRV_REQ distance = %v", d2.SrvReqPerUE)
	}
}

func TestActivitySplit(t *testing.T) {
	col := mustCollect(t, worldTrace(t, 300, 2*cp.Hour, 6))
	in, act := ActivitySplit(col, col, cp.ConnectedCar, cp.ServiceRequest)
	if in != 0 || act != 0 {
		t.Fatalf("self split = %v, %v", in, act)
	}
}

func TestComputeCDF(t *testing.T) {
	c := ComputeCDF([]float64{1, 1, 2, 3})
	if len(c.X) != 3 || c.X[0] != 1 || c.F[0] != 0.5 || c.F[2] != 1 {
		t.Fatalf("cdf = %+v", c)
	}
	if got := ComputeCDF(nil); len(got.X) != 0 {
		t.Fatal("empty CDF not empty")
	}
}

func TestQuantityStrings(t *testing.T) {
	qs := append(Table8Quantities(), Table10Quantities()...)
	seen := map[string]bool{}
	for _, q := range qs {
		s := q.String()
		if s == "?" || s == "" {
			t.Fatalf("bad name for %+v", q)
		}
		if seen[s] {
			t.Fatalf("duplicate name %q", s)
		}
		seen[s] = true
	}
	if len(Table8Quantities()) != 10 {
		t.Fatalf("table 8 has %d quantities", len(Table8Quantities()))
	}
	if len(Table10Quantities()) != 9 {
		t.Fatalf("table 10 has %d quantities", len(Table10Quantities()))
	}
}

func TestCollectUEQuantities(t *testing.T) {
	evs := []trace.Event{
		{T: cp.MillisFromSeconds(0), UE: 1, Type: cp.Attach},
		{T: cp.MillisFromSeconds(5), UE: 1, Type: cp.Handover},
		{T: cp.MillisFromSeconds(8), UE: 1, Type: cp.Handover},
		{T: cp.MillisFromSeconds(20), UE: 1, Type: cp.S1ConnRelease},
		{T: cp.MillisFromSeconds(80), UE: 1, Type: cp.ServiceRequest},
		{T: cp.MillisFromSeconds(90), UE: 1, Type: cp.Detach},
	}
	tr := trace.New()
	if err := tr.SetDevice(1, cp.Phone); err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		tr.Append(ev)
	}
	u := mustCollect(t, tr).data[cp.Phone][0]
	// HO inter-arrival: 3 s.
	ho := u.at(0, Quantity{Kind: QInterArrival, Event: cp.Handover})
	if len(ho) != 1 || ho[0] != 3 {
		t.Fatalf("HO inter-arrival = %v", ho)
	}
	// CONNECTED sojourn 20 s; IDLE 60 s.
	conn := u.at(0, Quantity{Kind: QStateSojourn, State: cp.StateConnected})
	if len(conn) != 2 || conn[0] != 20 || conn[1] != 10 {
		t.Fatalf("connected = %v", conn)
	}
	idle := u.at(0, Quantity{Kind: QStateSojourn, State: cp.StateIdle})
	if len(idle) != 1 || idle[0] != 60 {
		t.Fatalf("idle = %v", idle)
	}
	// REGISTERED sojourn: 0 -> 90.
	reg := u.at(0, Quantity{Kind: QRegisteredSojourn})
	if len(reg) != 1 || reg[0] != 90 {
		t.Fatalf("registered = %v", reg)
	}
	// Bottom: SRV_REQ_S -HO (5 s), HO_S -HO (3 s).
	b1 := u.at(0, Quantity{Kind: QTransSojourn, From: sm.LTESrvReqS, Event: cp.Handover})
	if len(b1) != 1 || b1[0] != 5 {
		t.Fatalf("SRV_REQ_S-HO = %v", b1)
	}
	b2 := u.at(0, Quantity{Kind: QTransSojourn, From: sm.LTEHoS, Event: cp.Handover})
	if len(b2) != 1 || b2[0] != 3 {
		t.Fatalf("HO_S-HO = %v", b2)
	}
	// Features: one SRV_REQ in hour 0.
	f := u.features(0, 1)
	if f[cluster.FSrvReqCount] != 1 || f[cluster.FS1RelCount] != 1 {
		t.Fatalf("features = %v", f)
	}
}

func TestPassRatesRejectPoissonOnWorldTraffic(t *testing.T) {
	// The paper's core negative result: classic distributions fail.
	// A full day is needed so every device type has busy hours — K-S
	// has no power against near-empty night-time samples.
	col := mustCollect(t, worldTrace(t, 400, cp.Day, 7))
	rates := PassRates(col, Table8Quantities(), FitTestOptions{MinSamples: 30})
	srv := Quantity{Kind: QInterArrival, Event: cp.ServiceRequest}
	idle := Quantity{Kind: QStateSojourn, State: cp.StateIdle}
	for _, d := range []cp.DeviceType{cp.Phone, cp.ConnectedCar} {
		if r := rates[PoissonKS][d][srv]; !(math.IsNaN(r)) && r > 0.10 {
			t.Errorf("%v: Poisson K-S pass rate for SRV_REQ = %.2f, want near 0", d, r)
		}
		// IDLE sojourns get a looser bound: at test scale the quiet
		// night hours pool few visits and K-S loses power there.
		if r := rates[PoissonKS][d][idle]; !(math.IsNaN(r)) && r > 0.30 {
			t.Errorf("%v: Poisson K-S pass rate for IDLE = %.2f, want near 0", d, r)
		}
		if r := rates[TcplibKS][d][srv]; !(math.IsNaN(r)) && r > 0.10 {
			t.Errorf("%v: Tcplib pass rate = %.2f, want near 0", d, r)
		}
	}
}

func TestPassRatesClusteredRuns(t *testing.T) {
	col := mustCollect(t, worldTrace(t, 300, 3*cp.Hour, 8))
	rates := PassRates(col, []Quantity{{Kind: QInterArrival, Event: cp.ServiceRequest}},
		FitTestOptions{Clustered: true, Cluster: cluster.Options{ThetaN: 30}})
	r := rates[PoissonKS][cp.Phone][Quantity{Kind: QInterArrival, Event: cp.ServiceRequest}]
	if math.IsNaN(r) {
		t.Fatal("no tested units with clustering")
	}
	if r < 0 || r > 1 {
		t.Fatalf("rate = %v", r)
	}
}

// TestPassRatesDeterministicAcrossWorkers requires the sweep to report
// the same rates for any worker count — same rule as the fitting and
// generation pipelines.
func TestPassRatesDeterministicAcrossWorkers(t *testing.T) {
	col := mustCollect(t, worldTrace(t, 200, 3*cp.Hour, 11))
	qs := Table8Quantities()
	mk := func(w int) map[DistTest]map[cp.DeviceType]map[Quantity]float64 {
		return PassRates(col, qs, FitTestOptions{
			Clustered: true, Cluster: cluster.Options{ThetaN: 30},
			MinSamples: 8, Workers: w,
		})
	}
	a, b := mk(1), mk(8)
	for ti := 0; ti < NumDistTests; ti++ {
		for _, d := range cp.DeviceTypes {
			for _, q := range qs {
				va, vb := a[DistTest(ti)][d][q], b[DistTest(ti)][d][q]
				if va != vb && !(math.IsNaN(va) && math.IsNaN(vb)) {
					t.Fatalf("%v/%v/%v: rate %v with Workers=1 vs %v with Workers=8",
						DistTest(ti), d, q, va, vb)
				}
			}
		}
	}
}

func TestVarianceTimeForBurstierThanPoisson(t *testing.T) {
	tr := worldTrace(t, 400, 12*cp.Hour, 9)
	phones := UESet(tr.UEsOfType(cp.Phone))
	vt := VarianceTimeFor(tr, phones, Quantity{Kind: QStateSojourn, State: cp.StateIdle}, 0, 12*cp.Hour)
	if math.IsNaN(vt.LogGap) {
		t.Fatal("no variance-time data")
	}
	if vt.LogGap < 0.15 {
		t.Fatalf("IDLE completions log gap = %.3f, want clearly above Poisson", vt.LogGap)
	}
	if math.IsNaN(vt.Hurst) || vt.Hurst < 0.55 {
		t.Fatalf("IDLE completions Hurst = %.3f, want > 0.55 (long-range dependent)", vt.Hurst)
	}
}

// TestFigure3ShiftInvariant: Figure 3 over a trace's own window — from
// the hour of its first event to one past its last — reads the same on
// the trace shifted by whole hours, bit for bit. Binned from 0 instead,
// a shifted copy spreads the same events over more, mostly empty, bins
// and reads far burstier.
func TestFigure3ShiftInvariant(t *testing.T) {
	tr := worldTrace(t, 300, 6*cp.Hour, 12)
	window := func(tr *trace.Trace) (lo, hi cp.Millis) {
		lo, hi = tr.Span()
		return lo - lo%cp.Hour, hi
	}
	lo, hi := window(tr)
	if lo != 0 {
		t.Fatalf("the world trace starts in hour %d", lo/cp.Hour)
	}
	want := Figure3(tr, lo, hi)
	for _, shift := range []cp.Millis{cp.Hour, 18 * cp.Hour, 5*cp.Day + 7*cp.Hour} {
		moved := trace.New()
		if err := tr.Devices(moved.SetDevice); err != nil {
			t.Fatal(err)
		}
		for _, ev := range tr.Events {
			ev.T += shift
			moved.Append(ev)
		}
		lo, hi := window(moved)
		got := Figure3(moved, lo, hi)
		for i := range want {
			g, w := got[i], want[i]
			same := bits(g.LogGap) == bits(w.LogGap) && bits(g.Hurst) == bits(w.Hurst)
			for j := range w.Observed {
				same = same && bits(g.Observed[j].NormVar) == bits(w.Observed[j].NormVar) &&
					bits(g.Poisson[j].NormVar) == bits(w.Poisson[j].NormVar)
			}
			if !same {
				t.Fatalf("shift %v, %s: gap %v, Hurst %v; unshifted %v, %v", shift, w.Q, g.LogGap, g.Hurst, w.LogGap, w.Hurst)
			}
		}
	}
}

func bits(x float64) uint64 { return math.Float64bits(x) }

// macroExits is the walk pointProcess ran before it folded sm.Walk's
// ExitTop moves: the macro state inferred from the UE's whole sequence,
// advanced by its Category-1 events, with a time at each exit from s.
func macroExits(tr *trace.Trace, ues map[cp.UEID]bool, s cp.UEState) []cp.Millis {
	var times []cp.Millis
	per := tr.PerUE()
	for _, ue := range tr.UEs() {
		evs := per[ue]
		if (ues != nil && !ues[ue]) || len(evs) == 0 {
			continue
		}
		cur := sm.InferMacroInitial(evs)
		for _, ev := range evs {
			if !sm.Category1(ev.Type) {
				continue
			}
			if next := sm.MacroAfter(ev.Type); next != cur {
				if cur == s {
					times = append(times, ev.T)
				}
				cur = next
			}
		}
	}
	return times
}

// TestPointProcessMatchesMacroWalk holds Figure 3's sojourn point
// processes to macroExits on world traces, for every macro state, over
// all UEs and over the phones, and on UEs whose Category-2 prefix, or
// whole sequence, precedes any Category-1 event.
func TestPointProcessMatchesMacroWalk(t *testing.T) {
	E := func(t cp.Millis, ue cp.UEID, e cp.EventType) trace.Event { return trace.Event{T: t, UE: ue, Type: e} }
	hand := trace.New()
	for ue := cp.UEID(0); ue < 3; ue++ {
		if err := hand.SetDevice(ue, cp.Phone); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range []trace.Event{
		E(1000, 0, cp.Handover), E(2000, 0, cp.TrackingAreaUpdate), E(3000, 0, cp.S1ConnRelease),
		E(4000, 0, cp.ServiceRequest), E(5000, 0, cp.Detach), E(6000, 0, cp.Attach),
		E(1000, 1, cp.TrackingAreaUpdate), E(9000, 1, cp.ServiceRequest), E(9500, 1, cp.S1ConnRelease),
		E(1500, 2, cp.Handover), E(2500, 2, cp.Handover),
	} {
		hand.Append(ev)
	}
	hand.Sort()
	for name, tr := range map[string]*trace.Trace{
		"world-1": worldTrace(t, 200, 26*cp.Hour, 1),
		"world-2": worldTrace(t, 200, 6*cp.Hour, 2),
		"hand":    hand,
	} {
		for _, ues := range []map[cp.UEID]bool{nil, UESet(tr.UEsOfType(cp.Phone))} {
			n := 0
			for s := cp.UEState(0); int(s) < cp.NumUEStates; s++ {
				got := pointProcess(tr, ues, Quantity{Kind: QStateSojourn, State: s})
				want := macroExits(tr, ues, s)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s, %v: %d exit times, the macro walk %d", name, s, len(got), len(want))
				}
				n += len(got)
			}
			if n == 0 {
				t.Fatalf("%s: no exits at all; the comparison is vacuous", name)
			}
		}
	}
}

func TestCDFvsPoissonRanges(t *testing.T) {
	so := StateSojourns(mustCollect(t, worldTrace(t, 300, 6*cp.Hour, 10)), cp.Phone, cp.StateConnected)
	cmpResult, err := CDFvsPoisson(so)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 4 finding: the observed maximum far exceeds what
	// an exponential fit of the same sample size would produce.
	if cmpResult.MaxObs <= cmpResult.MaxFit {
		t.Fatalf("observed max %v should exceed fitted max %v", cmpResult.MaxObs, cmpResult.MaxFit)
	}
	if len(cmpResult.Sample.X) == 0 || len(cmpResult.Fitted.X) != len(cmpResult.Sample.X) {
		t.Fatal("series malformed")
	}
	if _, err := CDFvsPoisson(nil); err == nil {
		t.Fatal("empty sample accepted")
	}
}

// countingSource counts the passes a consumer makes over a source.
type countingSource struct {
	trace.EventSource
	devices, scans int
}

func (c *countingSource) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	c.devices++
	return c.EventSource.Devices(fn)
}

func (c *countingSource) ScanBatches(fn func(*trace.Batch) error) error {
	c.scans++
	return c.EventSource.ScanBatches(fn)
}

// TestSourceCollectionMatchesInMemory: Collect makes one Devices and one
// ScanBatches call, and gathers the same collection — hence the same
// pooled samples and pass-rate tables — whether the source is the trace
// itself or a binary or text file of it; and a joint QuantitySamples call
// equals its single-quantity calls.
func TestSourceCollectionMatchesInMemory(t *testing.T) {
	tr := worldTrace(t, 120, 6*cp.Hour, 17)
	sources := map[string]trace.EventSource{"trace": tr}
	for _, binary := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "trace")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := trace.WriteSource(f, tr, binary); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		fileSrc, err := trace.NewFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		sources[map[bool]string{true: "binary", false: "text"}[binary]] = fileSrc
	}

	want := mustCollect(t, tr)
	for name, src := range sources {
		counted := &countingSource{EventSource: src}
		got := mustCollect(t, counted)
		if counted.devices != 1 || counted.scans != 1 {
			t.Errorf("%s: Collect took %d Devices and %d ScanBatches calls, want 1 and 1",
				name, counted.devices, counted.scans)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the collection differs from the trace's", name)
		}
	}

	qs := []Quantity{
		{Kind: QInterArrival, Event: cp.ServiceRequest},
		{Kind: QStateSojourn, State: cp.StateIdle},
		{Kind: QRegisteredSojourn},
		{Kind: QTransSojourn, From: sm.LTESrvReqS, Event: cp.Handover},
	}
	all := QuantitySamples(want, cp.Phone, qs)
	if len(all[0]) == 0 || len(all[1]) == 0 || len(all[2]) == 0 {
		t.Fatal("the world produced no samples; the comparison is vacuous")
	}
	for i, q := range qs {
		if one := QuantitySamples(want, cp.Phone, []Quantity{q}); !reflect.DeepEqual(all[i], one[0]) {
			t.Fatalf("QuantitySamples: %v differs between the joint and the single-quantity call", q)
		}
	}
}

// TestCollectorIncrementalMatchesBatch pushes interleaved multi-UE
// events through Collect exactly as a scan delivers them and holds the
// result to the oracle's walk of each UE's own list, on the corner cases
// the world never hits (no Category-1 event at all, HO-only UEs, empty
// UEs).
func TestCollectorIncrementalMatchesBatch(t *testing.T) {
	tr := trace.New()
	for ue := cp.UEID(0); ue < 3; ue++ {
		if err := tr.SetDevice(ue, cp.Phone); err != nil {
			t.Fatal(err)
		}
	}
	// UE 0: normal session. UE 1: HO-only (fallback initial CONNECTED).
	// UE 2: zero events.
	evs := []trace.Event{
		{T: 1 * cp.Minute, UE: 0, Type: cp.Attach},
		{T: 2 * cp.Minute, UE: 1, Type: cp.Handover},
		{T: 3 * cp.Minute, UE: 0, Type: cp.Handover},
		{T: 4 * cp.Minute, UE: 1, Type: cp.Handover},
		{T: 5 * cp.Minute, UE: 0, Type: cp.S1ConnRelease},
		{T: 90 * cp.Minute, UE: 0, Type: cp.ServiceRequest},
	}
	for _, ev := range evs {
		tr.Append(ev)
	}
	tr.Sort()
	checkAgainstOracle(t, "interleaved", tr)
}
