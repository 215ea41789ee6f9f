package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/iotest"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
)

// fitToy fits a model on a toy world trace.
func fitToy(t testing.TB, nUEs int, dur cp.Millis, seed uint64, opt FitOptions) *ModelSet {
	t.Helper()
	if opt.Cluster.ThetaN == 0 {
		opt.Cluster = clusterOptSmall()
	}
	tr := toyTrace(t, nUEs, dur, seed)
	ms, err := Fit(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestGenerateBasics(t *testing.T) {
	ms := fitToy(t, 60, 3*cp.Hour, 10, FitOptions{})
	gen, err := Generate(ms, GenOptions{NumUEs: 100, StartHour: 0, Duration: cp.Hour, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Validate(); err != nil {
		t.Fatal(err)
	}
	if !gen.Sorted() {
		t.Fatal("generated trace not sorted")
	}
	if gen.NumUEs() != 100 {
		t.Fatalf("NumUEs = %d", gen.NumUEs())
	}
	if gen.Len() == 0 {
		t.Fatal("no events generated")
	}
	lo, hi := gen.Span()
	if lo < 0 || hi > cp.Hour+1 {
		t.Fatalf("span = [%d,%d)", lo, hi)
	}
}

func TestGenerateStartHourWindow(t *testing.T) {
	ms := fitToy(t, 60, 6*cp.Hour, 11, FitOptions{})
	gen, err := Generate(ms, GenOptions{NumUEs: 50, StartHour: 2, Duration: 2 * cp.Hour, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := gen.Span()
	if lo < 2*cp.Hour || hi > 4*cp.Hour+1 {
		t.Fatalf("span = [%d,%d), want within [2h,4h)", lo, hi)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ms := fitToy(t, 40, 2*cp.Hour, 12, FitOptions{})
	a, err := Generate(ms, GenOptions{NumUEs: 60, Duration: cp.Hour, Seed: 99, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(ms, GenOptions{NumUEs: 60, Duration: cp.Hour, Seed: 99, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("generation depends on worker count")
	}
	if !reflect.DeepEqual(a.Device, b.Device) {
		t.Fatal("device assignment depends on worker count")
	}
	c, err := Generate(ms, GenOptions{NumUEs: 60, Duration: cp.Hour, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGeneratedTraceIsProtocolConformant(t *testing.T) {
	// The defining claim of the two-level model: generated traces follow
	// the two-level machine (per UE), so e.g. HO never fires in IDLE.
	ms := fitToy(t, 60, 4*cp.Hour, 13, FitOptions{})
	gen, err := Generate(ms, GenOptions{NumUEs: 200, Duration: 2 * cp.Hour, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := sm.LTE2Level()
	totalViolations := 0
	for _, evs := range gen.PerUE() {
		if len(evs) == 0 {
			continue
		}
		res := sm.Replay(m, sm.InferInitial(m, evs), evs)
		totalViolations += res.Violations
	}
	if totalViolations != 0 {
		t.Fatalf("generated trace has %d protocol violations", totalViolations)
	}
}

func TestGeneratedBreakdownTracksSource(t *testing.T) {
	// Macroscopic fidelity at toy scale: per-event-type shares of the
	// generated trace within 10 percentage points of the source.
	src := toyTrace(t, 90, 4*cp.Hour, 14)
	ms, err := Fit(src, FitOptions{Cluster: clusterOptSmall()})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(ms, GenOptions{NumUEs: 300, Duration: 4 * cp.Hour, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	srcC, genC := src.CountByType(), gen.CountByType()
	srcN, genN := src.Len(), gen.Len()
	if genN == 0 {
		t.Fatal("no events")
	}
	for _, e := range cp.EventTypes {
		s := float64(srcC[e]) / float64(srcN)
		g := float64(genC[e]) / float64(genN)
		if math.Abs(s-g) > 0.10 {
			t.Errorf("%v share: source %.3f vs generated %.3f", e, s, g)
		}
	}
}

func TestGenerateScalesPopulation(t *testing.T) {
	// 10x the training population, per-UE volume should stay comparable.
	ms := fitToy(t, 30, 2*cp.Hour, 15, FitOptions{})
	small, err := Generate(ms, GenOptions{NumUEs: 30, Duration: cp.Hour, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Generate(ms, GenOptions{NumUEs: 300, Duration: cp.Hour, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	perSmall := float64(small.Len()) / 30
	perBig := float64(big.Len()) / 300
	if perSmall == 0 || perBig == 0 {
		t.Fatal("no events")
	}
	ratio := perBig / perSmall
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("per-UE volume changed with population: %.1f vs %.1f", perSmall, perBig)
	}
}

func TestGenerateBaseEmitsHOInIdle(t *testing.T) {
	// The Base method must exhibit the paper's failure mode: HO events
	// while IDLE, which the two-level model never produces.
	src := toyTrace(t, 90, 3*cp.Hour, 16)
	base, err := Fit(src, fitOptions("base"))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(base, GenOptions{NumUEs: 200, Duration: 2 * cp.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	hoIdle := 0
	for _, evs := range gen.PerUE() {
		if len(evs) == 0 {
			continue
		}
		b := sm.MacroBreakdown(evs, sm.InferMacroInitial(evs))
		hoIdle += b[cp.Handover][cp.StateIdle]
	}
	if hoIdle == 0 {
		t.Fatal("base method produced no HO in IDLE — free processes not running")
	}
}

func TestGenerateOptionValidation(t *testing.T) {
	ms := fitToy(t, 20, cp.Hour, 17, FitOptions{})
	if _, err := Generate(ms, GenOptions{NumUEs: 0, Duration: cp.Hour}); err == nil {
		t.Fatal("NumUEs=0 accepted")
	}
	if _, err := Generate(ms, GenOptions{NumUEs: 1, StartHour: 24, Duration: cp.Hour}); err == nil {
		t.Fatal("StartHour=24 accepted")
	}
	if _, err := Generate(ms, GenOptions{NumUEs: 1, Duration: 0}); err == nil {
		t.Fatal("Duration=0 accepted")
	}
	if _, err := Generate(ms, GenOptions{NumUEs: 1, Duration: cp.Hour, DeviceMix: []float64{1}}); err == nil {
		t.Fatal("short DeviceMix accepted")
	}
	if _, err := Generate(ms, GenOptions{NumUEs: 1, Duration: cp.Hour, DeviceMix: []float64{0, 0, 0}}); err == nil {
		t.Fatal("zero DeviceMix accepted")
	}
	// Negative entries, entries that are not finite numbers, and shares
	// summing past the largest float: each used to give a one-device
	// population, of a device the model may not even have.
	for _, mix := range [][]float64{
		{-1, 2, 0},
		{0, 1, math.Inf(1)},
		{math.NaN(), 1, 0},
		{1, math.Inf(-1), 0},
		{math.MaxFloat64, math.MaxFloat64, 0},
	} {
		if _, err := Generate(ms, GenOptions{NumUEs: 300, Duration: cp.Hour, DeviceMix: mix}); err == nil {
			t.Fatalf("DeviceMix %v accepted", mix)
		}
		if _, err := NewSource(ms, GenOptions{NumUEs: 300, Duration: cp.Hour, DeviceMix: mix}); err == nil {
			t.Fatalf("DeviceMix %v accepted by NewSource", mix)
		}
	}
	// An end past the largest time (with the overshoot) used to give an
	// empty trace.
	if _, err := Generate(ms, GenOptions{NumUEs: 1, StartHour: 2, Duration: math.MaxInt64 - cp.Hour}); err == nil {
		t.Fatal("an end past the largest time accepted")
	}
	// A model's device list may be shorter or longer than the device
	// types: a mix asking past its end is refused, a device past the
	// types never generates.
	if _, err := Generate(refusalModel(), GenOptions{NumUEs: 1, Duration: cp.Hour, DeviceMix: []float64{0, 0, 1}}); err == nil {
		t.Fatal("DeviceMix for a device past the model's list accepted")
	}
	long := refusalModel()
	long.Devices = append(long.Devices, make([]*DeviceModel, cp.NumDeviceTypes)...)
	long.Devices[cp.NumDeviceTypes] = refusalModel().Devices[0]
	if _, err := Generate(long, GenOptions{NumUEs: 3, Duration: cp.Hour}); err != nil {
		t.Fatalf("a device past the device types: %v", err)
	}
}

func TestGenerateDeviceMixOverride(t *testing.T) {
	ms := fitToy(t, 60, 2*cp.Hour, 18, FitOptions{})
	gen, err := Generate(ms, GenOptions{
		NumUEs:    300,
		Duration:  cp.Hour,
		Seed:      4,
		DeviceMix: []float64{1, 0, 0}, // phones only
	})
	if err != nil {
		t.Fatal(err)
	}
	for ue, d := range gen.Device {
		if d != cp.Phone {
			t.Fatalf("UE %d is %v, want phone", ue, d)
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	ms := fitToy(t, 30, 2*cp.Hour, 19, FitOptions{})
	var buf bytes.Buffer
	if err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Generation from the loaded model must match exactly.
	a, err := Generate(ms, GenOptions{NumUEs: 40, Duration: cp.Hour, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(got, GenOptions{NumUEs: 40, Duration: cp.Hour, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("loaded model generates differently")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"machine":"NOPE","devices":[]}`))); err == nil {
		t.Fatal("unknown machine accepted")
	}
	// The file is one model and nothing else: a torn append or two files
	// concatenated must not load as the first of them.
	saved := modelBytes(t, fitToy(t, 12, cp.Hour, 3, FitOptions{}))
	for _, tail := range []string{"garbage", "]", "{}", string(saved)} {
		_, err := Load(bytes.NewReader(append(bytes.Clone(saved), tail...)))
		if err == nil || err.Error() != "core: decoding model set: trailing data" {
			t.Errorf("a model followed by %.10q: Load returned %v, want trailing data", tail, err)
		}
	}
	for _, tail := range []string{"", "\n\n", " \t\r\n"} {
		if _, err := Load(bytes.NewReader(append(bytes.Clone(saved), tail...))); err != nil {
			t.Errorf("a model followed by %q: %v", tail, err)
		}
	}
	if _, err := Load(io.MultiReader(bytes.NewReader(saved), iotest.ErrReader(io.ErrClosedPipe))); !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("a read error after the model: Load returned %v", err)
	}
}

func TestNumModels(t *testing.T) {
	ms := fitToy(t, 45, 2*cp.Hour, 21, FitOptions{})
	n := ms.NumModels()
	// 3 device types x 24 hours x >=1 cluster.
	if n < 3*24 {
		t.Fatalf("NumModels = %d", n)
	}
}
