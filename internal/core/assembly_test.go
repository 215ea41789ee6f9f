package core

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// flushModel is a hand-built model (in the manner of mkDeviceModel) whose
// every UE emits exactly three events and falls silent: a first-event TAU
// at 10 s landing in TAU_S_IDLE with no bottom parameters, then — 2 s
// later — a top-level SRV_REQ that is illegal from TAU_S_IDLE, so step's
// case 1 flushes the sub-machine first: S1_CONN_REL at the firing time,
// SRV_REQ one millisecond after it. CONNECTED has no parameters, so
// nothing is pending afterwards.
func flushModel(t *testing.T) *ModelSet {
	t.Helper()
	global := ClusterModel{Top: make([]StateParam, cp.NumUEStates)}
	global.Top[cp.StateIdle].Out = []TransitionParam{{
		Event: cp.ServiceRequest, P: 1, Sojourn: SojournModel{Kind: SojournConst, Value: 2},
	}}
	global.First = FirstEventModel{
		Cats:   []FirstCat{{Event: cp.TrackingAreaUpdate, State: sm.LTETauSIdle, P: 1}},
		Offset: SojournModel{Kind: SojournConst, Value: 10},
	}
	ms := &ModelSet{
		MachineName: "LTE-2LEVEL",
		Method:      "hand",
		Devices:     make([]*DeviceModel, cp.NumDeviceTypes),
	}
	ms.Devices[cp.Phone] = &DeviceModel{Hours: make([]HourModel, HoursPerDay), Global: &global, Share: 1}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// tickModel is a hand-built flat model that puts an event of every UE on
// every millisecond: a first SRV_REQ at 1 s, and from then on two
// free-running clocks, a handover every millisecond and a TAU every third
// (so a UE also has two events on one millisecond, ordered by type alone).
// Wherever the streaming source ends a time window, events sit on the
// window's last millisecond, on its end and just past it — the cases an
// off-by-one in a window bound gets wrong, and which the fitted models'
// sparse events (one per UE in minutes) would only meet by luck.
func tickModel(t *testing.T) *ModelSet {
	t.Helper()
	global := ClusterModel{
		Free: []FreeProcess{
			{Event: cp.Handover, Inter: SojournModel{Kind: SojournConst, Value: 0.001}},
			{Event: cp.TrackingAreaUpdate, Inter: SojournModel{Kind: SojournConst, Value: 0.003}},
		},
		First: FirstEventModel{
			Cats:   []FirstCat{{Event: cp.ServiceRequest, State: sm.EEConnected, P: 1}},
			Offset: SojournModel{Kind: SojournConst, Value: 1},
		},
	}
	ms := &ModelSet{
		MachineName: "EMM-ECM",
		Method:      "hand",
		Devices:     make([]*DeviceModel, cp.NumDeviceTypes),
	}
	ms.Devices[cp.Phone] = &DeviceModel{Hours: make([]HourModel, HoursPerDay), Global: &global, Share: 1}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	return ms
}

// collected materializes the streaming Source for opt.
func collected(t *testing.T, ms *ModelSet, opt GenOptions) *trace.Trace {
	t.Helper()
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestGenerateWindowEdgeOvershoot pins the window contract Generate's key
// layout depends on: a firing one millisecond inside the window whose
// case-1 flush steps `at` past end still emits its top event, stamped at
// end itself — outside [t0, end) but inside the declared overshoot — and
// the packed assembly, the streaming source and the interpreted oracle
// agree on it event for event.
func TestGenerateWindowEdgeOvershoot(t *testing.T) {
	ms := flushModel(t)
	const start = 7
	t0 := start * cp.Hour
	end := t0 + 12*cp.Second + 1 // the SRV_REQ fires at end-1
	opt := GenOptions{NumUEs: 5, StartHour: start, Duration: end - t0, Seed: 3}
	gen, err := Generate(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := collected(t, ms, opt); !slices.Equal(gen.Events, want.Events) {
		t.Fatalf("Generate and Collect(Source) differ:\n%v\n%v", gen.Events, want.Events)
	}
	if want := interpTrace(t, ms, opt); !slices.Equal(gen.Events, want.Events) {
		t.Fatalf("Generate and the interpreted oracle differ:\n%v\n%v", gen.Events, want.Events)
	}
	var want []trace.Event
	for _, step := range []struct {
		at cp.Millis
		ev cp.EventType
	}{
		{t0 + 10*cp.Second, cp.TrackingAreaUpdate},
		{end - 1, cp.S1ConnRelease},
		{end, cp.ServiceRequest}, // the overshoot: T == end
	} {
		for ue := 0; ue < opt.NumUEs; ue++ {
			want = append(want, trace.Event{T: step.at, UE: cp.UEID(ue), Type: step.ev})
		}
	}
	if !slices.Equal(gen.Events, want) {
		t.Fatalf("events\n%v\nwant\n%v", gen.Events, want)
	}
	if last := gen.Events[len(gen.Events)-1].T; last < end || last >= end+windowOvershoot {
		t.Fatalf("last event at %d, want inside the overshoot [%d, %d)", last, end, end+windowOvershoot)
	}
}

// TestGenerateUnpackableSpan drives Generate's other assembly: a span too
// long for a 64-bit key (2^60 ms of T, plus UE and type bits) must take
// Collect(Source) and still return the same events as the packed path
// does for a window that merely contains them, and so must the Source
// streamed directly and the interpreted oracle over the long span.
func TestGenerateUnpackableSpan(t *testing.T) {
	ms := flushModel(t)
	short := GenOptions{NumUEs: 3, Duration: cp.Minute, Seed: 3}
	long := short
	long.Duration = 1 << 60
	if _, fits := trace.NewKeyLayout(0, long.Duration+windowOvershoot-1, cp.UEID(long.NumUEs-1)); fits {
		t.Fatal("test is vacuous: the long span packs into 64 bits")
	}
	want, err := Generate(ms, short)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Events) != 3*short.NumUEs {
		t.Fatalf("short window produced %d events, want %d", len(want.Events), 3*short.NumUEs)
	}
	got, err := Generate(ms, long)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Events, want.Events) {
		t.Fatalf("unpackable span produced\n%v\nwant\n%v", got.Events, want.Events)
	}
	if len(got.Device) != long.NumUEs {
		t.Fatalf("%d device registrations, want %d", len(got.Device), long.NumUEs)
	}
	// And the source itself, without Generate in front: its windows'
	// keys are relative to each window, so no span is too long for it.
	if streamed := collected(t, ms, long); !slices.Equal(streamed.Events, want.Events) {
		t.Fatalf("Source over the unpackable span produced\n%v\nwant\n%v", streamed.Events, want.Events)
	}
	if oracle := interpTrace(t, ms, long); !slices.Equal(oracle.Events, want.Events) {
		t.Fatalf("the interpreted oracle over the unpackable span produced\n%v\nwant\n%v", oracle.Events, want.Events)
	}
}

// TestGenerateBytesPerEvent gates assembly's memory traffic beside
// TestGenerateAllocsPerEvent's allocation count: bytes allocated per
// emitted event, on a population large enough to amortize the fixed
// histograms and the registry. With one worker the budget is the key run
// reserved at twice its keys (16 B, an eighth of forecast slack on both
// halves, and the sixteenth of it that grew geometrically before
// KeyRun.Forecast), which becomes the event slice — measured 21.2, held
// to 24 for a forecast that misses the density by a few percent. With
// several, the runs (8 B and slack), the partitioned keys (8 B) and the
// events (16 B) — measured 36.0, held to 48; it was 118 B when assembly
// concatenated and sorted 16-byte events, and 68 B with packed keys but
// no forecast. TotalAlloc counts bytes, not time, so the figures repeat
// (to within a few KB of the runtime's own allocations).
func TestGenerateBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	ms := fitToy(t, 60, 3*cp.Hour, 10, FitOptions{})
	for _, tc := range []struct {
		workers int
		budget  float64
	}{{1, 24}, {2, 48}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			opt := GenOptions{NumUEs: 20000, StartHour: 0, Duration: 2 * cp.Hour, Seed: 3, Workers: tc.workers}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr, err := Generate(ms, opt)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(tr.Events))
			t.Logf("%d B / %d events = %.2f B/event", after.TotalAlloc-before.TotalAlloc, len(tr.Events), perEvent)
			if perEvent > tc.budget {
				t.Fatalf("allocated %.2f B/event, want <= %g", perEvent, tc.budget)
			}
		})
	}
}

// TestSourceScanBytesPerUE gates the streaming source's footprint: what one
// ScanBatches allocates, per UE of a population large enough to amortize
// the window buffers. The budget is the ueGen (384 B, TestUEGenSize keeps
// it at most 400) and the pending time (8 B) per UE, plus the window's
// keys, scratch and columns (29 B a key, grown geometrically, at most one
// key per UE or 16 Ki). Jobs are derived, not held (they were 40 B more),
// and there is no per-UE run buffer; the loser tree's k × 64-event slab
// made it 1.5 KiB per UE. The steady state allocates nothing, so allocations per
// event are gated too. TotalAlloc counts bytes, not time, so the figures
// repeat.
func TestSourceScanBytesPerUE(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	ms := fitToy(t, 60, 3*cp.Hour, 10, FitOptions{})
	opt := GenOptions{NumUEs: 20000, StartHour: 0, Duration: cp.Hour, Seed: 3}
	src, err := NewSource(ms, opt)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = src.ScanBatches(func(b *trace.Batch) error {
		events += b.Len()
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("generated no events; test is vacuous")
	}
	perUE := float64(after.TotalAlloc-before.TotalAlloc) / float64(opt.NumUEs)
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d B / %d UEs = %.1f B/UE; %d allocs / %d events = %.5f allocs/event",
		after.TotalAlloc-before.TotalAlloc, opt.NumUEs, perUE, after.Mallocs-before.Mallocs, events, perEvent)
	if perUE > 640 {
		t.Fatalf("allocated %.1f B/UE, want <= 640", perUE)
	}
	if perEvent > 0.02 {
		t.Fatalf("allocs/event = %.5f, want <= 0.02", perEvent)
	}
}
