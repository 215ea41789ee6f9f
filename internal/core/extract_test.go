package core

import (
	"fmt"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// The per-UE fit oracle: §5's extraction written out once more with
// plain maps and slices, one UE's whole sequence at a time. It shares
// with production only the machine tables and the initial-state rule;
// not the streaming walk, the prefix buffer, the tally layout or the
// sample logs.

// xKey names one (hour, key) cell of a UE's extraction. kind is a
// count ("top", "bot", "first", "withEv", "evt") or a sample pool
// ("top", "bot", "censor", "free", "first"); a and b are its state and
// event, as the kind needs them.
type xKey struct {
	kind string
	hour int
	a, b int
}

// extraction is one UE's counts and sample lists, in emission order, per
// (hour, key) and per key over all hours.
type extraction struct {
	counts  map[xKey]int
	samples map[xKey][]float64
}

func newExtraction() *extraction {
	return &extraction{counts: map[xKey]int{}, samples: map[xKey][]float64{}}
}

// sample appends v to k's list and to the list of k's pool over all
// hours (hour -1), the order the global fallback reads: the per-hour
// lists do not show how the UE's hours interleave, the hour-agnostic one
// does.
func (x *extraction) sample(k xKey, v float64) {
	x.samples[k] = append(x.samples[k], v)
	all := xKey{k.kind, -1, k.a, k.b}
	x.samples[all] = append(x.samples[all], v)
}

// oracleMacro is the macro state each Category-1 event establishes; an
// event missing from it is Category-2.
var oracleMacro = map[cp.EventType]cp.UEState{
	cp.Attach:         cp.StateConnected,
	cp.ServiceRequest: cp.StateConnected,
	cp.Detach:         cp.StateDeregistered,
	cp.S1ConnRelease:  cp.StateIdle,
}

// oracleExtract extracts one UE's time-ordered events against m,
// retaining free inter-arrivals of the events in free only. It returns
// the extraction and the number of protocol violations.
func oracleExtract(m *sm.Machine, free map[cp.EventType]bool, evs []trace.Event) (*extraction, int) {
	x := newExtraction()
	sub := false
	for s, edges := range m.Edges {
		for _, e := range edges {
			sub = sub || m.Top(e.To) == m.Top(sm.State(s))
		}
	}
	macro := sm.InferMacroInitial(evs)
	bottom := m.SubEntry(macro)
	var macroAt, botAt cp.Millis
	macroKnown, botKnown := false, false
	lastOf := map[cp.EventType]trace.Event{}
	lastCell, violations := -1, 0
	for i, ev := range evs {
		h, cell := ev.T.HourOfDay(), ev.T.HourIndex()
		if ev.Type == cp.ServiceRequest || ev.Type == cp.S1ConnRelease {
			x.counts[xKey{"evt", h, 0, int(ev.Type)}]++
		}
		if prev, ok := lastOf[ev.Type]; ok && free[ev.Type] && prev.T.HourIndex() == cell {
			k := xKey{"free", h, 0, int(ev.Type)}
			x.sample(k, (ev.T - prev.T).Seconds())
		}
		lastOf[ev.Type] = ev
		// A sojourn is filed under the hour its state was entered in, or
		// the event's own hour when the entry precedes the sequence.
		entryHour := func(known bool, at cp.Millis) int {
			if known {
				return at.HourOfDay()
			}
			return h
		}
		next, cat1 := oracleMacro[ev.Type]
		to, edge := m.Next(bottom, ev.Type)
		switch {
		case cat1 && next != macro:
			k := xKey{"top", entryHour(macroKnown, macroAt), int(macro), int(ev.Type)}
			x.counts[k]++
			if macroKnown {
				x.sample(k, (ev.T - macroAt).Seconds())
			}
			if botKnown {
				c := xKey{"censor", botAt.HourOfDay(), int(bottom), 0}
				x.sample(c, (ev.T - botAt).Seconds())
			}
			macro, bottom = next, m.SubEntry(next)
			macroAt, botAt, macroKnown, botKnown = ev.T, ev.T, true, true
		case edge && m.Top(to) == macro:
			k := xKey{"bot", entryHour(botKnown, botAt), int(bottom), int(ev.Type)}
			x.counts[k]++
			if botKnown {
				x.sample(k, (ev.T - botAt).Seconds())
			}
			bottom, botAt, botKnown = to, ev.T, true
		case sub && !cat1:
			violations++
		}
		if i == 0 || cell != lastCell {
			x.counts[xKey{"first", h, int(ev.Type), int(bottom)}]++
			x.counts[xKey{"withEv", h, 0, 0}]++
			k := xKey{"first", h, 0, 0}
			x.sample(k, (ev.T - cp.Millis(cell)*cp.Hour).Seconds())
		}
		lastCell = cell
	}
	return x, violations
}

var cntKindNames = [numCntKinds]string{cntTop: "top", cntBot: "bot", cntFirst: "first", cntWithEv: "withEv", cntEvt: "evt"}

// productionExtraction reads the UE's tallies and logged samples back out
// of an ingested partial whose walks are finished, the samples in the
// order the UE's hour bytes interleave its logs.
func productionExtraction(pf *PartialFit, ue cp.UEID) *extraction {
	x := newExtraction()
	s := fitSink(pf, ue)
	if s == nil {
		return x
	}
	for h, row := range s.rows {
		for _, t := range row {
			kind, a, b := pf.lay.key(int(t.slot))
			x.counts[xKey{cntKindNames[kind], h, int(a), int(b)}] += int(t.n)
		}
	}
	s.eachSample(func(_ int, h, key byte, ms uint64) {
		pk := pf.lay.poolKeyAt(int(key))
		k := xKey{poolKindNames[pk.Kind], int(h), int(pk.A), int(pk.B)}
		x.sample(k, seconds(ms))
	})
	return x
}

// diffExtractions describes the first (hour, key) where got and want
// differ — counts, or sample lists in order — or returns "".
func diffExtractions(got, want *extraction) string {
	for _, xs := range []*extraction{got, want} {
		for k := range xs.counts {
			if g, w := got.counts[k], want.counts[k]; g != w {
				return fmt.Sprintf("count %+v: %d, oracle %d", k, g, w)
			}
		}
		for k := range xs.samples {
			if g, w := got.samples[k], want.samples[k]; !slices.Equal(g, w) {
				i := 0
				for i < min(len(g), len(w)) && g[i] == w[i] {
					i++
				}
				return fmt.Sprintf("samples %+v: %d and %d long, first differing at %d: %v, oracle %v",
					k, len(g), len(w), i, g[i:min(i+3, len(g))], w[i:min(i+3, len(w))])
			}
		}
	}
	return ""
}

// oracleCases are the traces the per-UE oracle judges production on:
// toy worlds over a midnight, the same worlds cut at 02:30 so UEs start
// mid-session with Category-2 prefixes, and hand-built corners.
func oracleCases(t *testing.T) map[string]*trace.Trace {
	cases := map[string]*trace.Trace{}
	for _, seed := range []uint64{1, 2} {
		tr := toyTrace(t, 45, 26*cp.Hour, seed)
		cases[fmt.Sprintf("toy-%d", seed)] = tr
		cut := trace.New()
		for ue, d := range tr.Device {
			if err := cut.SetDevice(ue, d); err != nil {
				t.Fatal(err)
			}
		}
		for _, ev := range tr.Events {
			if ev.T >= 2*cp.Hour+30*cp.Minute {
				cut.Append(ev)
			}
		}
		cases[fmt.Sprintf("toy-%d-cut", seed)] = cut
	}
	at := func(h, m, s int) cp.Millis {
		return cp.Millis(h)*cp.Hour + cp.Millis(m)*cp.Minute + cp.Millis(s)*cp.Second
	}
	E := func(t cp.Millis, ue cp.UEID, e cp.EventType) trace.Event { return trace.Event{T: t, UE: ue, Type: e} }
	corners := trace.New()
	for ue := cp.UEID(0); ue < 5; ue++ {
		if err := corners.SetDevice(ue, cp.DeviceTypes[int(ue)%cp.NumDeviceTypes]); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range []trace.Event{
		// A CONNECTED prefix decided by its S1 release, over an hour edge.
		E(at(0, 59, 50), 0, cp.Handover), E(at(0, 59, 55), 0, cp.TrackingAreaUpdate),
		E(at(1, 0, 5), 0, cp.Handover), E(at(1, 2, 0), 0, cp.S1ConnRelease),
		E(at(1, 5, 0), 0, cp.TrackingAreaUpdate), E(at(1, 5, 1), 0, cp.S1ConnRelease),
		E(at(2, 0, 0), 0, cp.ServiceRequest), E(at(2, 0, 0), 0, cp.Handover),
		// No Category-1 event: HO-only and TAU-only UEs.
		E(at(3, 0, 0), 1, cp.Handover), E(at(3, 10, 0), 1, cp.Handover), E(at(4, 0, 0), 1, cp.Handover),
		E(at(3, 0, 0), 2, cp.TrackingAreaUpdate), E(at(3, 30, 0), 2, cp.TrackingAreaUpdate),
		// Violations: HO while IDLE, SRV_REQ while CONNECTED, TAU after
		// a detach; then a session across midnight.
		E(at(22, 0, 0), 3, cp.S1ConnRelease), E(at(22, 1, 0), 3, cp.Handover),
		E(at(22, 2, 0), 3, cp.ServiceRequest), E(at(22, 3, 0), 3, cp.ServiceRequest),
		E(at(22, 4, 0), 3, cp.Detach), E(at(22, 5, 0), 3, cp.TrackingAreaUpdate),
		E(at(23, 59, 0), 3, cp.Attach), E(at(24, 0, 30), 3, cp.Handover), E(at(24, 1, 0), 3, cp.S1ConnRelease),
	} {
		corners.Append(ev)
	}
	cases["corners"] = corners
	for _, tr := range cases {
		tr.Sort()
	}
	return cases
}

// TestExtractionMatchesPerUEOracle holds every UE's production
// extraction — tallies, and retained samples per (hour, key) as lists in
// emission order — and the fit's violation count to the per-UE oracle,
// for the two-level machine (Ours, V2) and the flat one (Base, V1). The
// lists are ordered, so a sample logged under the wrong hour byte, or a
// log read out of order, fails it as surely as a wrong value.
func TestExtractionMatchesPerUEOracle(t *testing.T) {
	free := []cp.EventType{cp.Handover, cp.TrackingAreaUpdate}
	methods := map[string]FitOptions{
		"ours": {Machine: sm.LTE2Level(), SojournKind: SojournTable},
		"v2":   {Machine: sm.LTE2Level(), SojournKind: SojournExp},
		"v1":   {Machine: sm.EMMECM(), SojournKind: SojournExp, FreeEvents: free},
		"base": {Machine: sm.EMMECM(), SojournKind: SojournExp, FreeEvents: free, NoClustering: true},
	}
	for name, tr := range oracleCases(t) {
		perUE := tr.PerUE()
		for method, opt := range methods {
			pf, err := NewPartialFit(opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := pf.AddSource(tr); err != nil {
				t.Fatal(err)
			}
			finishWalks(pf)
			freeSet := map[cp.EventType]bool{}
			for _, e := range opt.FreeEvents {
				freeSet[e] = true
			}
			violations, samples := 0, 0
			for _, ue := range tr.UEs() {
				want, v := oracleExtract(opt.Machine, freeSet, perUE[ue])
				violations += v
				for _, xs := range want.samples {
					samples += len(xs)
				}
				if d := diffExtractions(productionExtraction(pf, ue), want); d != "" {
					t.Fatalf("%s/%s: UE %d: %s", name, method, ue, d)
				}
			}
			if int64(violations) != pf.violations {
				t.Fatalf("%s/%s: %d violations, oracle %d", name, method, pf.violations, violations)
			}
			if samples == 0 {
				t.Fatalf("%s/%s: no samples at all; the comparison is vacuous", name, method)
			}
		}
	}
}

// finishWalks finishes every UE's walk, as Build does first.
func finishWalks(pf *PartialFit) {
	for _, s := range pf.exts {
		s.finish()
	}
}

// fitSink returns the UE's sink, nil for a UE with no events.
func fitSink(pf *PartialFit, ue cp.UEID) *partialSink { return pf.exts[ue] }
