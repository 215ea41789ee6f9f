package eval

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// The oracle: a map-keyed per-UE collector. It walks one UE's whole event
// list and files every sample under a struct key, so it shares neither
// the dense quantity index, the sample log nor the counting sort with
// Collect.

// mapQuantities holds every fitted quantity's samples for one UE, bucketed
// by hour-of-day.
type mapQuantities struct {
	samples map[hourQuantity][]float64
	counts  [24][cp.NumEventTypes]int
}

type hourQuantity struct {
	h int8
	q Quantity
}

func (u *mapQuantities) add(h int, q Quantity, v float64) {
	u.samples[hourQuantity{int8(h), q}] = append(u.samples[hourQuantity{int8(h), q}], v)
}

// at returns the samples of quantity q in hour-of-day h.
func (u *mapQuantities) at(h int, q Quantity) []float64 {
	if u == nil {
		return nil
	}
	return u.samples[hourQuantity{int8(h), q}]
}

// mapCollector gathers one UE's fitted quantities incrementally: push one
// event at a time (in the UE's time order), then finish.
type mapCollector struct {
	u *mapQuantities
	m *sm.Machine

	decided bool
	buf     []trace.Event

	lastOfType     [cp.NumEventTypes]cp.Millis
	lastCellOfType [cp.NumEventTypes]int
	seen           [cp.NumEventTypes]bool

	macro            cp.UEState
	registered       bool
	macroAt, regAt   cp.Millis
	macroHas, regHas bool

	botMacro cp.UEState
	bottom   sm.State
	botAt    cp.Millis
	botHas   bool
}

func newMapCollector() *mapCollector {
	return &mapCollector{
		u: &mapQuantities{samples: make(map[hourQuantity][]float64)},
		m: sm.LTE2Level(),
	}
}

func (c *mapCollector) push(ev trace.Event) {
	if !c.decided {
		c.buf = append(c.buf, ev)
		if sm.Category1(ev.Type) {
			c.start()
		}
		return
	}
	c.step(ev)
}

// start fixes the initial macro state from the buffered prefix and
// replays it.
func (c *mapCollector) start() {
	c.decided = true
	macro := sm.InferMacroInitial(c.buf)
	c.macro = macro
	c.registered = macro.Registered()
	c.botMacro = macro
	c.bottom = c.m.SubEntry(macro)
	for _, ev := range c.buf {
		c.step(ev)
	}
	c.buf = nil
}

// finish completes the collection and returns the gathered quantities.
func (c *mapCollector) finish() *mapQuantities {
	if !c.decided && len(c.buf) > 0 {
		c.start()
	}
	return c.u
}

func (c *mapCollector) step(ev trace.Event) {
	h := ev.T.HourOfDay()
	cell := ev.T.HourIndex()

	// Inter-arrivals and counts. Following the paper's preprocessing,
	// the trace is divided into non-overlapping 1-hour intervals first:
	// an inter-arrival sample exists only when both endpoints fall in
	// the same interval.
	if ev.Type.Valid() {
		c.u.counts[h][ev.Type]++
		if c.seen[ev.Type] && c.lastCellOfType[ev.Type] == cell {
			c.u.add(h, Quantity{Kind: QInterArrival, Event: ev.Type},
				(ev.T - c.lastOfType[ev.Type]).Seconds())
		}
		c.lastOfType[ev.Type] = ev.T
		c.lastCellOfType[ev.Type] = cell
		c.seen[ev.Type] = true
	}

	if sm.Category1(ev.Type) {
		var next cp.UEState
		//cplint:partial-ok guarded by sm.Category1: only the four Category-1 events reach this switch
		switch ev.Type {
		case cp.Attach, cp.ServiceRequest:
			next = cp.StateConnected
		case cp.Detach:
			next = cp.StateDeregistered
		case cp.S1ConnRelease:
			next = cp.StateIdle
		}

		// Macro-state and REGISTERED sojourns.
		if next != c.macro {
			if c.macroHas {
				c.u.add(h, Quantity{Kind: QStateSojourn, State: c.macro}, (ev.T - c.macroAt).Seconds())
			}
			c.macro = next
			c.macroAt, c.macroHas = ev.T, true
		}
		if next.Registered() != c.registered {
			if c.regHas && c.registered {
				c.u.add(h, Quantity{Kind: QRegisteredSojourn}, (ev.T - c.regAt).Seconds())
			}
			c.registered = next.Registered()
			c.regAt, c.regHas = ev.T, true
		}

		// A macro change re-enters the sub-machine; the event is not a
		// bottom-level transition then.
		if next != c.botMacro {
			c.botMacro = next
			c.bottom = c.m.SubEntry(next)
			c.botAt, c.botHas = ev.T, true
			return
		}
	}

	// Bottom-level transition sojourns on the two-level machine.
	if to, ok := c.m.Next(c.bottom, ev.Type); ok && c.m.Top(to) == c.botMacro {
		if c.botHas {
			c.u.add(h, Quantity{Kind: QTransSojourn, From: c.bottom, Event: ev.Type},
				(ev.T - c.botAt).Seconds())
		}
		c.bottom = to
		c.botAt, c.botHas = ev.T, true
	}
}

// collectUE walks one UE's time-ordered events and gathers every fitted
// quantity: per-type inter-arrivals, macro-state sojourns (including the
// REGISTERED macro state), and the two-level machine's bottom-transition
// sojourns.
func collectUE(evs []trace.Event) *mapQuantities {
	if len(evs) == 0 {
		return &mapQuantities{samples: make(map[hourQuantity][]float64)}
	}
	c := newMapCollector()
	for _, ev := range evs {
		c.push(ev)
	}
	return c.finish()
}

// allQuantities lists every quantity the collector can record, each
// quantity slot once.
func allQuantities() []Quantity {
	var qs []Quantity
	for _, e := range cp.EventTypes {
		qs = append(qs, Quantity{Kind: QInterArrival, Event: e})
	}
	for s := 0; s < cp.NumUEStates; s++ {
		qs = append(qs, Quantity{Kind: QStateSojourn, State: cp.UEState(s)})
	}
	qs = append(qs, Quantity{Kind: QRegisteredSojourn})
	for from := 0; from < sm.LTE2Level().NumStates(); from++ {
		for _, e := range cp.EventTypes {
			qs = append(qs, Quantity{Kind: QTransSojourn, From: sm.State(from), Event: e})
		}
	}
	return qs
}

// checkAgainstOracle collects tr and holds every (device, UE, hour,
// quantity) sample slice and every count to the oracle, the breakdown
// strand to sm.MacroBreakdown, and the pooled state sojourns to
// sm.MacroSojourns as multisets.
func checkAgainstOracle(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	col := mustCollect(t, tr)
	qs := allQuantities()
	if len(qs) != nQ {
		t.Fatalf("%d quantities for %d slots", len(qs), nQ)
	}
	perUE := tr.PerUE()
	samples := 0
	for _, d := range cp.DeviceTypes {
		ues := tr.UEsOfType(d)
		if !slices.Equal(col.UEs(d), ues) || len(col.data[d]) != len(ues) {
			t.Fatalf("%s: %v: collected UEs %v, want %v", name, d, col.UEs(d), ues)
		}
		var pooled [cp.NumUEStates][]float64
		for i, ue := range ues {
			evs := perUE[ue]
			want, got := collectUE(evs), col.data[d][i]
			for h := 0; h < 24; h++ {
				for _, q := range qs {
					if w, g := want.at(h, q), got.at(h, q); !reflect.DeepEqual(w, g) {
						t.Fatalf("%s: UE %d hour %d %v: samples %v, oracle %v", name, ue, h, q, g, w)
					}
				}
				for e := range want.counts[h] {
					if int(got.counts[h][e]) != want.counts[h][e] {
						t.Fatalf("%s: UE %d hour %d %v: count %d, oracle %d",
							name, ue, h, cp.EventType(e), got.counts[h][e], want.counts[h][e])
					}
				}
			}
			n := 0
			for _, xs := range want.samples {
				n += len(xs)
			}
			if len(got.vals) != n {
				t.Fatalf("%s: UE %d: %d samples, oracle %d", name, ue, len(got.vals), n)
			}
			samples += n

			var b map[cp.EventType]map[cp.UEState]int
			if len(evs) > 0 {
				b = sm.MacroBreakdown(evs, sm.InferMacroInitial(evs))
				so := sm.MacroSojourns(evs, sm.InferMacroInitial(evs))
				for s := range pooled {
					pooled[s] = append(pooled[s], so[cp.UEState(s)]...)
				}
			}
			for _, e := range cp.EventTypes {
				for s := 0; s < cp.NumUEStates; s++ {
					if g, w := int(got.macro[e][s]), b[e][cp.UEState(s)]; g != w {
						t.Fatalf("%s: UE %d: %v in %v counted %d, sm.MacroBreakdown %d",
							name, ue, e, cp.UEState(s), g, w)
					}
				}
			}
		}
		for s := range pooled {
			got := StateSojourns(col, d, cp.UEState(s))
			slices.Sort(got)
			slices.Sort(pooled[s])
			if !slices.Equal(got, pooled[s]) {
				t.Fatalf("%s: %v %v sojourns: %d pooled, sm.MacroSojourns %d (or values differ)",
					name, d, cp.UEState(s), len(got), len(pooled[s]))
			}
		}
	}
	if _, hi := tr.Span(); col.days != spanDays(hi) {
		t.Fatalf("%s: %d days, the trace spans %d", name, col.days, spanDays(hi))
	}
	if samples == 0 && len(tr.Events) > 2 {
		t.Fatalf("%s: no samples at all; the comparison is vacuous", name)
	}
}

// TestCollectMatchesMapOracle holds Collect to the map-keyed oracle on
// world populations (26 h, so every hour of day and a midnight) and on
// hand-built corner cases the world rarely or never produces.
func TestCollectMatchesMapOracle(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		checkAgainstOracle(t, "world", worldTrace(t, 150, 26*cp.Hour, seed))
	}

	at := func(h, m, s, ms int) cp.Millis {
		return cp.Millis(h)*cp.Hour + cp.Millis(m)*cp.Minute + cp.MillisFromSeconds(float64(s)) + cp.Millis(ms)
	}
	E := func(t cp.Millis, ue cp.UEID, e cp.EventType) trace.Event { return trace.Event{T: t, UE: ue, Type: e} }
	cases := map[string][]trace.Event{
		// HO and TAU before the first Category-1 event: the CONNECTED
		// prefix buffers until the S1 release decides it.
		"HO-TAU-before-first-category1": {
			E(at(1, 0, 0, 0), 0, cp.Handover), E(at(1, 0, 5, 0), 0, cp.TrackingAreaUpdate),
			E(at(1, 0, 9, 0), 0, cp.Handover), E(at(1, 1, 0, 0), 0, cp.S1ConnRelease),
			E(at(1, 5, 0, 0), 0, cp.TrackingAreaUpdate), E(at(1, 6, 0, 0), 0, cp.S1ConnRelease),
			E(at(1, 9, 0, 0), 0, cp.ServiceRequest), E(at(1, 9, 1, 0), 0, cp.Handover),
			// An IDLE prefix: TAUs, then the SRV_REQ that decides IDLE.
			E(at(2, 0, 0, 0), 1, cp.TrackingAreaUpdate), E(at(2, 0, 1, 0), 1, cp.S1ConnRelease),
			E(at(2, 3, 0, 0), 1, cp.ServiceRequest), E(at(2, 4, 0, 0), 1, cp.Detach),
			E(at(2, 8, 0, 0), 1, cp.Attach),
		},
		// No Category-1 event at all: HO-only (initially CONNECTED) and
		// TAU-only (initially IDLE) UEs, decided at finish.
		"no-category1": {
			E(at(3, 0, 0, 0), 0, cp.Handover), E(at(3, 0, 2, 0), 1, cp.TrackingAreaUpdate),
			E(at(3, 0, 4, 0), 0, cp.Handover), E(at(3, 0, 30, 0), 1, cp.TrackingAreaUpdate),
			E(at(3, 1, 0, 0), 0, cp.TrackingAreaUpdate), E(at(3, 2, 0, 0), 0, cp.Handover),
		},
		// Same-millisecond events within a UE and across UEs.
		"same-millisecond": {
			E(at(5, 0, 0, 0), 0, cp.Attach), E(at(5, 0, 0, 0), 0, cp.Handover),
			E(at(5, 0, 0, 0), 1, cp.ServiceRequest), E(at(5, 0, 0, 0), 1, cp.Handover),
			E(at(5, 0, 0, 7), 0, cp.Handover), E(at(5, 0, 0, 7), 0, cp.S1ConnRelease),
			E(at(5, 0, 0, 7), 1, cp.Handover), E(at(5, 0, 0, 7), 1, cp.S1ConnRelease),
			E(at(5, 0, 0, 7), 1, cp.TrackingAreaUpdate), E(at(5, 0, 9, 0), 0, cp.ServiceRequest),
			E(at(5, 0, 9, 0), 0, cp.Detach), E(at(5, 0, 9, 0), 1, cp.ServiceRequest),
		},
		// A midnight wrap: a session across 00:00, inter-arrivals that
		// straddle it (none recorded) and that follow it (hour 0).
		"midnight-wrap": {
			E(at(23, 58, 0, 0), 0, cp.Attach), E(at(23, 59, 0, 0), 0, cp.Handover),
			E(at(23, 59, 59, 999), 0, cp.Handover), E(at(24, 0, 0, 0), 0, cp.Handover),
			E(at(24, 0, 1, 0), 0, cp.Handover), E(at(24, 2, 0, 0), 0, cp.S1ConnRelease),
			E(at(47, 59, 0, 0), 0, cp.ServiceRequest), E(at(48, 0, 30, 0), 0, cp.S1ConnRelease),
			E(at(23, 59, 30, 0), 1, cp.ServiceRequest), E(at(24, 0, 30, 0), 1, cp.S1ConnRelease),
		},
	}
	for name, evs := range cases {
		tr := trace.New()
		// UE 0 and 1 carry the events; UE 2, registered, stays silent.
		for ue, d := range []cp.DeviceType{cp.Phone, cp.ConnectedCar, cp.Phone} {
			if err := tr.SetDevice(cp.UEID(ue), d); err != nil {
				t.Fatal(err)
			}
		}
		for _, ev := range evs {
			tr.Append(ev)
		}
		tr.Sort()
		checkAgainstOracle(t, name, tr)
	}
}

// refusingSource is a source whose registry or events are malformed.
type refusingSource struct {
	devices []cp.DeviceType // by UE id
	dup     bool            // register the last UE twice
	events  []trace.Event
}

func (s refusingSource) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	for ue, d := range s.devices {
		if err := fn(cp.UEID(ue), d); err != nil {
			return err
		}
	}
	if s.dup {
		return fn(cp.UEID(len(s.devices)-1), s.devices[len(s.devices)-1])
	}
	return nil
}

func (s refusingSource) ScanBatches(fn func(*trace.Batch) error) error {
	b := trace.NewBatch(0)
	for _, ev := range s.events {
		b.Append(ev)
	}
	return fn(b)
}

func TestCollectRefusesMalformedSources(t *testing.T) {
	ok := []cp.DeviceType{cp.Phone, cp.Tablet}
	for name, c := range map[string]struct {
		src  refusingSource
		want string
	}{
		"duplicate registration": {refusingSource{devices: ok, dup: true}, "duplicate registration for UE 1"},
		"invalid device":         {refusingSource{devices: []cp.DeviceType{cp.Phone, cp.DeviceType(cp.NumDeviceTypes)}}, "UE 1 has invalid device"},
		"unregistered UE": {refusingSource{devices: ok, events: []trace.Event{
			{T: 1, UE: 0, Type: cp.Attach}, {T: 2, UE: 7, Type: cp.Attach}}}, "event for unregistered UE 7"},
	} {
		if _, err := Collect(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Collect error %v, want one containing %q", name, err, c.want)
		}
	}
}

// TestCollectRefusesInvalidEventType: an in-memory trace can hold an
// event type no trace decoder admits; Collect refuses it, naming the UE
// and the type, instead of skipping it.
func TestCollectRefusesInvalidEventType(t *testing.T) {
	tr := trace.New()
	if err := tr.SetDevice(3, cp.Phone); err != nil {
		t.Fatal(err)
	}
	tr.Append(trace.Event{T: 10, UE: 3, Type: cp.Handover})
	tr.Append(trace.Event{T: 20, UE: 3, Type: cp.EventType(99)})
	if _, err := Collect(tr); err == nil || !strings.Contains(err.Error(), "invalid type 99 for UE 3") {
		t.Fatalf("Collect error %v, want one naming type 99 and UE 3", err)
	}
}

// TestCollectPathResortsNonCanonicalFile: over a canonical file
// CollectPath collects what Collect collects and says nothing; over the
// same events written in reverse it says once that it is collecting from
// the sorted trace, and collects the same.
func TestCollectPathResortsNonCanonicalFile(t *testing.T) {
	tr := worldTrace(t, 40, 6*cp.Hour, 1)
	want := mustCollect(t, tr)
	rev := &trace.Trace{Device: tr.Device, Events: slices.Clone(tr.Events)}
	slices.Reverse(rev.Events)
	for i, src := range []*trace.Trace{tr, rev} {
		var buf bytes.Buffer
		if err := trace.WriteTrace(&buf, src); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "t.trace")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var notes []string
		got, err := CollectPath(path, func(format string, args ...any) {
			notes = append(notes, format)
		})
		if err != nil {
			t.Fatalf("file %d: %v", i, err)
		}
		if len(notes) != i || i == 1 && !strings.Contains(notes[0], "sorted in memory") {
			t.Errorf("file %d: notes %q, want %d", i, notes, i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("file %d: CollectPath differs from Collect of the trace", i)
		}
	}
}

// BenchmarkCollect times one Collect of a 2 000-UE, 24 h world
// population, materialized once beforehand so the simulator's own time
// is not counted, and reports ns and allocated bytes per event.
func BenchmarkCollect(b *testing.B) {
	src, err := world.NewSource(world.Options{NumUEs: 2000, Duration: cp.Day, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Collect(src)
	if err != nil {
		b.Fatal(err)
	}
	events := float64(len(tr.Events))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCollect(b, tr)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := events * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
}
