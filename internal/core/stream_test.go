package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// The TestStream* tests predate Source: they drove core.Stream, which was
// NewSource + Devices + a per-event scan behind one call, and drive exactly
// that now, through trace.Unbatch.

func TestStreamMatchesGenerate(t *testing.T) {
	ms := fitToy(t, 40, 2*cp.Hour, 90, FitOptions{})
	opt := GenOptions{NumUEs: 80, Duration: cp.Hour, Seed: 5}
	batch, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	streamed := trace.New()
	if err := src.Devices(streamed.SetDevice); err != nil {
		t.Fatal(err)
	}
	err = src.ScanBatches(trace.Unbatch(func(ev trace.Event) error {
		streamed.Events = append(streamed.Events, ev)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed.Device, batch.Device) {
		t.Fatal("device registrations differ")
	}
	if !reflect.DeepEqual(streamed.Events, batch.Events) {
		t.Fatalf("streamed %d events, batch %d; contents differ",
			len(streamed.Events), len(batch.Events))
	}
}

func TestStreamDeliversInOrder(t *testing.T) {
	ms := fitToy(t, 30, 2*cp.Hour, 91, FitOptions{})
	src, err := NewSource(ms, GenOptions{NumUEs: 60, Duration: cp.Hour, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var prev trace.Event
	first := true
	err = src.ScanBatches(trace.Unbatch(func(ev trace.Event) error {
		if !first && ev.Before(prev) {
			t.Fatalf("out of order: %v after %v", ev, prev)
		}
		prev, first = ev, false
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if first {
		t.Fatal("stream delivered nothing")
	}
}

func TestStreamAbortsOnError(t *testing.T) {
	ms := fitToy(t, 20, cp.Hour, 92, FitOptions{})
	src, err := NewSource(ms, GenOptions{NumUEs: 30, Duration: cp.Hour, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	count := 0
	err = src.ScanBatches(trace.Unbatch(func(trace.Event) error {
		count++
		if count == 5 {
			return boom
		}
		return nil
	}))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if count != 5 {
		t.Fatalf("delivered %d events after abort", count)
	}
	// Registration errors abort too.
	regs := 0
	err = src.Devices(func(cp.UEID, cp.DeviceType) error { regs++; return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("registration err = %v", err)
	}
	if regs != 1 {
		t.Fatalf("delivered %d registrations after abort", regs)
	}
}

func TestStreamValidatesOptions(t *testing.T) {
	ms := fitToy(t, 10, cp.Hour, 93, FitOptions{})
	if _, err := NewSource(ms, GenOptions{NumUEs: 0, Duration: cp.Hour}); err == nil {
		t.Fatal("NumUEs=0 accepted")
	}
}

func TestSourceMatchesGenerate(t *testing.T) {
	ms := fitToy(t, 40, 2*cp.Hour, 95, FitOptions{})
	opt := GenOptions{NumUEs: 80, Duration: cp.Hour, Seed: 5}
	batch, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Two passes: the source must be re-iterable with identical output.
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
	if _, err := NewSource(ms, GenOptions{NumUEs: 0, Duration: cp.Hour}); err == nil {
		t.Fatal("NewSource accepted NumUEs=0")
	}
}

// TestFitFromGeneratedSource closes the loop: a model refitted directly
// from a generator-backed source — no intermediate trace anywhere —
// matches refitting from the materialized generated trace.
func TestFitFromGeneratedSource(t *testing.T) {
	ms := fitToy(t, 30, 2*cp.Hour, 96, FitOptions{})
	opt := GenOptions{NumUEs: 50, Duration: 2 * cp.Hour, Seed: 9}
	batch, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	refitOpt := FitOptions{Cluster: clusterOptSmall()}
	want, err := Fit(batch, refitOpt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fit(src, refitOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytesEqualModels(t, want, got) {
		t.Fatal("Fit(Source) differs from Fit(Generate)")
	}
}

func bytesEqualModels(t *testing.T, a, b *ModelSet) bool {
	t.Helper()
	return bytes.Equal(modelBytes(t, a), modelBytes(t, b))
}

func TestUEGenIteratorResumable(t *testing.T) {
	// Both engines can be asked for more after exhaustion without
	// panicking, and deliver nothing.
	ms := fitToy(t, 10, cp.Hour, 94, FitOptions{})
	dm := ms.Device(cp.Phone)
	if dm == nil {
		t.Skip("no phone model")
	}
	m, err := ms.Machine()
	if err != nil {
		t.Fatal(err)
	}
	cm, err := compile(ms, m)
	if err != nil {
		t.Fatal(err)
	}
	cd := cm.dev(cp.Phone)
	if cd == nil {
		t.Fatal("compiled model lost the phone device")
	}
	lay, _ := trace.NewKeyLayout(0, cp.Hour+windowOvershoot-1, 1)
	g := newUEGen(cm, cd, 1, stats.NewRNGVal(1), 0, cp.Hour)
	if _, pending := drained(t, g, trace.NoPending, &lay); pending != trace.NoPending {
		t.Fatalf("compiled: unlimited drain reports pending %d", pending)
	}
	for i := 0; i < 3; i++ {
		if evs, pending := drained(t, g, trace.NoPending, &lay); len(evs) != 0 || pending != trace.NoPending {
			t.Fatalf("compiled: exhausted generator delivered %v, pending %d", evs, pending)
		}
	}
	it := newUEInterp(m, dm, 1, stats.NewRNG(1), 0, cp.Hour)
	for _, ok := it.Next(); ok; _, ok = it.Next() {
	}
	for i := 0; i < 3; i++ {
		if _, ok := it.Next(); ok {
			t.Fatal("interpreted: exhausted iterator produced an event")
		}
	}
}
