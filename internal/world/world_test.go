package world

import (
	"math"
	"reflect"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

func genWorld(t *testing.T, n int, dur cp.Millis, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := Generate(Options{NumUEs: n, Duration: dur, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateBasics(t *testing.T) {
	tr := genWorld(t, 200, 6*cp.Hour, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !tr.Sorted() {
		t.Fatal("world trace not sorted")
	}
	if tr.NumUEs() != 200 {
		t.Fatalf("NumUEs = %d", tr.NumUEs())
	}
	if tr.Len() == 0 {
		t.Fatal("empty world")
	}
	lo, hi := tr.Span()
	if lo < 0 || hi > 6*cp.Hour {
		t.Fatalf("span [%d,%d)", lo, hi)
	}
}

func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	a, err := Generate(Options{NumUEs: 100, Duration: 2 * cp.Hour, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Options{NumUEs: 100, Duration: 2 * cp.Hour, Seed: 3, Workers: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) || !reflect.DeepEqual(a.Device, b.Device) {
		t.Fatal("world depends on worker count")
	}
}

func TestWorldIsProtocolConformant(t *testing.T) {
	tr := genWorld(t, 300, 12*cp.Hour, 4)
	m := sm.LTE2Level()
	violations := 0
	for _, evs := range tr.PerUE() {
		if len(evs) == 0 {
			continue
		}
		res := sm.Replay(m, sm.InferInitial(m, evs), evs)
		violations += res.Violations
	}
	if violations != 0 {
		t.Fatalf("world trace has %d protocol violations", violations)
	}
}

func TestWorldHasNoHOInIdle(t *testing.T) {
	tr := genWorld(t, 300, 12*cp.Hour, 5)
	for _, evs := range tr.PerUE() {
		if len(evs) == 0 {
			continue
		}
		b := sm.MacroBreakdown(evs, sm.InferMacroInitial(evs))
		if b[cp.Handover][cp.StateIdle] != 0 {
			t.Fatal("world produced HO in IDLE")
		}
	}
}

func TestDeviceMixApproximatesDefault(t *testing.T) {
	tr := genWorld(t, 5000, cp.Hour, 6)
	var counts [cp.NumDeviceTypes]int
	for _, d := range tr.Device {
		counts[d]++
	}
	for _, d := range cp.DeviceTypes {
		share := float64(counts[d]) / 5000
		if math.Abs(share-DefaultMix[d]) > 0.03 {
			t.Errorf("%v share = %.3f, want ~%.3f", d, share, DefaultMix[d])
		}
	}
}

// TestBreakdownMatchesTable1Shape is the calibration gate: the world's
// event-share breakdown per device type must land near the paper's
// Table 1. Tolerances are loose (the goal is shape, not digits) but tight
// enough that SRV_REQ/S1_CONN_REL dominate, cars out-handover phones,
// etc.
func TestBreakdownMatchesTable1Shape(t *testing.T) {
	tr := genWorld(t, 1500, cp.Day, 7)
	targets := map[cp.DeviceType][cp.NumEventTypes]float64{
		cp.Phone:        {0.001, 0.002, 0.455, 0.475, 0.038, 0.029},
		cp.ConnectedCar: {0.009, 0.009, 0.389, 0.452, 0.066, 0.074},
		cp.Tablet:       {0.012, 0.011, 0.439, 0.477, 0.021, 0.040},
	}
	for _, d := range cp.DeviceTypes {
		sub := tr.FilterDevice(d)
		c := sub.CountByType()
		total := sub.Len()
		if total == 0 {
			t.Fatalf("%v: no events", d)
		}
		for _, e := range cp.EventTypes {
			share := float64(c[e]) / float64(total)
			want := targets[d][e]
			// Relative tolerance 60% plus 1.5pp absolute slack.
			if math.Abs(share-want) > 0.6*want+0.015 {
				t.Errorf("%v %v share = %.4f, want ~%.4f", d, e, share, want)
			}
		}
		// Structural relations the evaluation relies on.
		if c[cp.S1ConnRelease] <= c[cp.ServiceRequest] {
			t.Errorf("%v: S1_CONN_REL (%d) should exceed SRV_REQ (%d) via idle TAU releases",
				d, c[cp.S1ConnRelease], c[cp.ServiceRequest])
		}
	}
	// Cross-device relations: cars have the largest HO and TAU shares.
	share := func(d cp.DeviceType, e cp.EventType) float64 {
		sub := tr.FilterDevice(d)
		return float64(sub.CountByType()[e]) / float64(sub.Len())
	}
	if !(share(cp.ConnectedCar, cp.Handover) > share(cp.Phone, cp.Handover) &&
		share(cp.Phone, cp.Handover) > share(cp.Tablet, cp.Handover)) {
		t.Errorf("HO ordering wrong: car %.4f phone %.4f tablet %.4f",
			share(cp.ConnectedCar, cp.Handover), share(cp.Phone, cp.Handover), share(cp.Tablet, cp.Handover))
	}
	if share(cp.ConnectedCar, cp.TrackingAreaUpdate) <= share(cp.Phone, cp.TrackingAreaUpdate) {
		t.Errorf("TAU ordering wrong: car %.4f <= phone %.4f",
			share(cp.ConnectedCar, cp.TrackingAreaUpdate), share(cp.Phone, cp.TrackingAreaUpdate))
	}
}

func TestDiurnalPattern(t *testing.T) {
	tr := genWorld(t, 800, cp.Day, 8)
	// Peak-hour volume must exceed trough-hour volume by a large factor
	// for every device type (Fig. 2: 2.3x - 1300x).
	for _, d := range cp.DeviceTypes {
		sub := tr.FilterDevice(d)
		var perHour [24]int
		for _, e := range sub.Events {
			perHour[e.T.HourOfDay()]++
		}
		peak, trough := 0, 1<<60
		for _, c := range perHour {
			if c > peak {
				peak = c
			}
			if c < trough {
				trough = c
			}
		}
		if trough == 0 {
			trough = 1
		}
		if ratio := float64(peak) / float64(trough); ratio < 2.2 {
			t.Errorf("%v peak/trough = %.2f, want > 2.2", d, ratio)
		}
	}
}

func TestPerUEDiversity(t *testing.T) {
	tr := genWorld(t, 800, cp.Day, 9)
	// Event counts per UE must be highly skewed (heavy-tailed activity).
	per := tr.PerUE()
	var counts []float64
	for _, evs := range per {
		counts = append(counts, float64(len(evs)))
	}
	var max, sum float64
	for _, c := range counts {
		if c > max {
			max = c
		}
		sum += c
	}
	mean := sum / float64(len(counts))
	// Heavy-tailed activity, tempered by connection-time saturation.
	if max < 3*mean {
		t.Errorf("per-UE counts not skewed: max %.0f vs mean %.1f", max, mean)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Generate(Options{NumUEs: 0, Duration: cp.Hour}); err == nil {
		t.Fatal("NumUEs=0 accepted")
	}
	if _, err := Generate(Options{NumUEs: 1, Duration: 0}); err == nil {
		t.Fatal("Duration=0 accepted")
	}
	if _, err := Generate(Options{NumUEs: 1, Duration: 1, Mix: []float64{1}}); err == nil {
		t.Fatal("short mix accepted")
	}
	if _, err := Generate(Options{NumUEs: 1, Duration: 1, Mix: []float64{0, 0, 0}}); err == nil {
		t.Fatal("zero mix accepted")
	}
	if _, err := Generate(Options{NumUEs: 1, Duration: 1, Mix: []float64{-1, 2, 0}}); err == nil {
		t.Fatal("negative mix accepted")
	}
	// Entries that are not finite numbers, or that sum past the largest
	// float: each used to give a one-device population.
	for _, mix := range [][]float64{
		{math.NaN(), 1, 0},
		{0, 1, math.Inf(1)},
		{1, math.Inf(-1), 0},
		{math.MaxFloat64, math.MaxFloat64, 0},
	} {
		if _, err := Generate(Options{NumUEs: 200, Duration: cp.Hour, Mix: mix}); err == nil {
			t.Fatalf("mix %v accepted", mix)
		}
		if _, err := NewSource(Options{NumUEs: 200, Duration: cp.Hour, Mix: mix}); err == nil {
			t.Fatalf("mix %v accepted by NewSource", mix)
		}
	}
	// An end past the largest time used to give an empty trace.
	if _, err := Generate(Options{NumUEs: 5, Offset: cp.Hour, Duration: math.MaxInt64 - 1000}); err == nil {
		t.Fatal("an end past the largest time accepted")
	}
}

func TestWeekendSeasonality(t *testing.T) {
	// Compare a weekday (day 2, Wednesday) with a weekend day (day 5,
	// Saturday) at the same hour for connected cars, whose weekend
	// factor is strongest.
	weekday, err := Generate(Options{
		NumUEs: 400, Duration: 3 * cp.Hour, Offset: 2*cp.Day + 8*cp.Hour,
		Seed: 13, Mix: []float64{0, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	weekend, err := Generate(Options{
		NumUEs: 400, Duration: 3 * cp.Hour, Offset: 5*cp.Day + 8*cp.Hour,
		Seed: 13, Mix: []float64{0, 1, 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if weekend.Len() >= weekday.Len() {
		t.Fatalf("car weekend volume (%d) should be below weekday (%d)",
			weekend.Len(), weekday.Len())
	}
}

func TestOffsetWarmStart(t *testing.T) {
	tr, err := Generate(Options{NumUEs: 300, Duration: cp.Hour, Offset: 18 * cp.Hour, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tr.Span()
	if lo < 18*cp.Hour || hi > 19*cp.Hour {
		t.Fatalf("span [%d,%d) outside the warm-started hour", lo, hi)
	}
	if tr.Len() == 0 {
		t.Fatal("no events in warm-started hour")
	}
	// The warm-started busy hour must be far busier than the same
	// population's midnight-started hour 0 (diurnal phase respected).
	night, err := Generate(Options{NumUEs: 300, Duration: cp.Hour, Offset: 3 * cp.Hour, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() < 2*night.Len() {
		t.Fatalf("busy hour (%d) not busier than 3am (%d)", tr.Len(), night.Len())
	}
	if _, err := Generate(Options{NumUEs: 1, Duration: 1, Offset: -1}); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestCustomMix(t *testing.T) {
	tr, err := Generate(Options{NumUEs: 100, Duration: cp.Hour, Seed: 1, Mix: []float64{0, 1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tr.Device {
		if d != cp.ConnectedCar {
			t.Fatal("mix override ignored")
		}
	}
}

// TestSourceMatchesGenerate: the streaming source must reproduce
// Generate exactly — same registrations, same events, same order — and
// be re-iterable.
func TestSourceMatchesGenerate(t *testing.T) {
	opt := Options{NumUEs: 150, Duration: 5 * cp.Hour, Seed: 21}
	batch, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(opt)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := trace.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Device, batch.Device) {
			t.Fatalf("pass %d: device registrations differ", pass)
		}
		if !reflect.DeepEqual(got.Events, batch.Events) {
			t.Fatalf("pass %d: collected %d events, batch %d; contents differ",
				pass, len(got.Events), len(batch.Events))
		}
	}
}

// TestGenerateSortsTimeBitsOnly holds the simulator to the order the
// assembly's time-bits sort relies on: each UE's events in canonical
// order, UE after UE. The population's Generate at workers {1, 3, 8} and
// its scan sort no bucket and no window a second time
// (trace.Population.Resorted); a second sort gives the same bytes, so only
// this count shows that the order was lost.
func TestGenerateSortsTimeBitsOnly(t *testing.T) {
	opt := Options{NumUEs: 2000, Duration: 4 * cp.Hour, Offset: 8 * cp.Hour, Seed: 23}
	pop, err := population(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		tr, err := pop.Generate(workers)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() < 20*opt.NumUEs {
			t.Fatalf("workers=%d: %d events for %d UEs; the case is vacuous", workers, tr.Len(), opt.NumUEs)
		}
	}
	if err := pop.ScanBatches(func(*trace.Batch) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b, w := pop.Resorted(); b != 0 || w != 0 {
		t.Fatalf("%d buckets and %d windows sorted again on the whole key", b, w)
	}
}

func TestSourceWithOffsetAndMix(t *testing.T) {
	opt := Options{NumUEs: 60, Duration: 2 * cp.Hour, Offset: 30 * cp.Hour,
		Seed: 22, Mix: []float64{1, 0, 0}}
	batch, err := Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Device, batch.Device) {
		t.Fatal("device registrations differ")
	}
	if !reflect.DeepEqual(got.Events, batch.Events) {
		t.Fatal("events differ")
	}
	for _, d := range got.Device {
		if d != cp.Phone {
			t.Fatalf("mix override ignored: got %v", d)
		}
	}
}

func TestNewSourceValidates(t *testing.T) {
	if _, err := NewSource(Options{NumUEs: 0, Duration: cp.Hour}); err == nil {
		t.Fatal("NumUEs=0 accepted")
	}
	if _, err := NewSource(Options{NumUEs: 5, Duration: 0}); err == nil {
		t.Fatal("Duration=0 accepted")
	}
	if _, err := NewSource(Options{NumUEs: 5, Duration: cp.Hour, Offset: -1}); err == nil {
		t.Fatal("negative Offset accepted")
	}
	if _, err := NewSource(Options{NumUEs: 5, Duration: cp.Hour, Mix: []float64{1}}); err == nil {
		t.Fatal("short Mix accepted")
	}
}

func TestScaleOneIsIdentity(t *testing.T) {
	// An explicit scale of exactly 1.0 multiplies every rate by an IEEE
	// no-op, so the trace must be byte-identical to the unscaled default.
	base := genWorld(t, 150, 4*cp.Hour, 11)
	scaled, err := Generate(Options{
		NumUEs: 150, Duration: 4 * cp.Hour, Seed: 11,
		MobilityScale: 1.0, ActivityScale: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Events, scaled.Events) {
		t.Fatal("scale 1.0 changed the trace")
	}
}

func TestScalesMoveTheRates(t *testing.T) {
	base := genWorld(t, 300, 6*cp.Hour, 12)
	mobile, err := Generate(Options{
		NumUEs: 300, Duration: 6 * cp.Hour, Seed: 12, MobilityScale: 4.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bh, mh := base.CountByType()[cp.Handover], mobile.CountByType()[cp.Handover]; mh <= bh {
		t.Errorf("MobilityScale=4 did not raise handovers: %d -> %d", bh, mh)
	}
	busy, err := Generate(Options{
		NumUEs: 300, Duration: 6 * cp.Hour, Seed: 12, ActivityScale: 3.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs, as := base.CountByType()[cp.ServiceRequest], busy.CountByType()[cp.ServiceRequest]; as <= bs {
		t.Errorf("ActivityScale=3 did not raise service requests: %d -> %d", bs, as)
	}
	if _, err := Generate(Options{NumUEs: 10, Duration: cp.Hour, MobilityScale: -1}); err == nil {
		t.Error("negative MobilityScale accepted")
	}
	if _, err := Generate(Options{NumUEs: 10, Duration: cp.Hour, ActivityScale: -1}); err == nil {
		t.Error("negative ActivityScale accepted")
	}
}
