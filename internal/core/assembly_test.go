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
// (to within a few KB of the runtime's own allocations). Each budget
// holds on an ours model and on a Base one (20.98 and 35.93 B/event),
// whose free-event clocks draw the exponentials no ours cell samples.
func TestGenerateBytesPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	models := map[string]*ModelSet{
		"ours": fitToy(t, 60, 3*cp.Hour, 10, pinnedFitOptions("ours")),
		"base": fitToy(t, 60, 3*cp.Hour, 10, pinnedFitOptions("base")),
	}
	for _, tc := range []struct {
		workers int
		budget  float64
	}{{1, 24}, {2, 48}} {
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			for _, method := range []string{"ours", "base"} {
				t.Run(method, func(t *testing.T) {
					opt := GenOptions{NumUEs: 20000, StartHour: 0, Duration: 2 * cp.Hour, Seed: 3, Workers: tc.workers}
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					tr, err := Generate(models[method], opt)
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
		})
	}
}

// TestSourceScanBytesPerUE gates the streaming source's footprint: what one
// ScanBatches allocates, per UE of a population large enough to amortize
// the window buffers. Per UE that is the ueGen (168 B, TestUEGenSize keeps
// it at most 192), on a Base model its 48 B array of free-event clocks,
// and the pending time (8 B): 176 B, 224 on Base. The window's keys,
// scratch and columns take 29 B a key, at most 1.25 keys a UE here (the
// target is one key per stream, and TestWindowKeysBounded holds a window
// to 1.25 targets), and more as they grow: 105.6 B a UE on ours and 80.4
// on Base, for 281.6 and 304.4 B in all. The budget, 360 B, is the Base
// row's figure and a sixth. At a 384 B ueGen and windows up to 2.4
// targets the figures were 558.7 (ours) and 528.2 B, against a budget of
// 640. Jobs are derived, not held (they were 40 B more), and there is no
// per-UE run buffer; the loser tree's k × 64-event slab made it 1.5 KiB
// per UE. The steady state allocates nothing, so allocations per event are
// gated too, at 0.001: the Base row's clock arrays come 256 to a chunk
// (clockSlab), 0.00014 allocs a event on this hour, where one array a UE
// read 0.019. TotalAlloc counts bytes, not time, so the figures repeat.
// Both budgets hold on an ours model and on a Base one, whose free-event
// clocks draw the exponentials no ours cell samples.
func TestSourceScanBytesPerUE(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unstable under the race detector")
	}
	for _, method := range []string{"ours", "base"} {
		t.Run(method, func(t *testing.T) {
			ms := fitToy(t, 60, 3*cp.Hour, 10, pinnedFitOptions(method))
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
			if perUE > 360 {
				t.Fatalf("allocated %.1f B/UE, want <= 360", perUE)
			}
			if perEvent > 0.001 {
				t.Fatalf("allocs/event = %.5f, want <= 0.001", perEvent)
			}
		})
	}
}

// TestGenerateSortsTimeBitsOnly holds the generator to the order the
// assembly's time-bits sort relies on: each UE's events in canonical
// order, UE after UE. On fitted Ours and Base models, and on tickModel,
// whose UEs each have two events on one millisecond, the population's
// Generate at workers {1, 3, 8} and its scan sort no bucket and no window
// a second time (trace.Population.Resorted). A second sort gives the same
// bytes, so only this count shows that the producers lost the order.
func TestGenerateSortsTimeBitsOnly(t *testing.T) {
	for _, c := range []struct {
		name string
		ms   *ModelSet
		ues  int
		dur  cp.Millis
	}{
		{"ours", fitToy(t, 60, 3*cp.Hour, 10, pinnedFitOptions("ours")), 10000, cp.Hour}, // several buckets
		{"base", fitToy(t, 60, 3*cp.Hour, 10, pinnedFitOptions("base")), 10000, cp.Hour},
		{"tick", tickModel(t), 40, 3500},
	} {
		t.Run(c.name, func(t *testing.T) {
			p, err := planGeneration(c.ms, GenOptions{NumUEs: c.ues, StartHour: 22, Duration: c.dur, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			pop := p.population()
			for _, workers := range []int{1, 3, 8} {
				tr, err := pop.Generate(workers)
				if err != nil {
					t.Fatal(err)
				}
				if tr.Len() < 5*c.ues {
					t.Fatalf("workers=%d: %d events for %d UEs; the case is vacuous", workers, tr.Len(), c.ues)
				}
			}
			if err := pop.ScanBatches(func(*trace.Batch) error { return nil }); err != nil {
				t.Fatal(err)
			}
			if b, w := pop.Resorted(); b != 0 || w != 0 {
				t.Fatalf("%d buckets and %d windows sorted again on the whole key", b, w)
			}
		})
	}
}
