package sm

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// walkAll runs one UE's sequence through a fresh walk and returns the
// events in the order Push and Finish made them ready, with their moves.
func walkAll(t *testing.T, m *Machine, seq []trace.Event) ([]trace.Event, []Move) {
	t.Helper()
	w := NewWalk(m)
	var got []trace.Event
	var moves []Move
	step := func(ready []trace.Event) {
		for _, ev := range ready {
			got = append(got, ev)
			moves = append(moves, w.Step(ev))
		}
	}
	for _, ev := range seq {
		ready, ok := w.Push(ev)
		if !ok {
			t.Fatalf("Push refused %v", ev)
		}
		step(ready)
	}
	step(w.Finish())
	return got, moves
}

// randomSeq draws one UE's time-ordered sequence: any event type after
// any other (so violations and no-op Category-1 events occur), gaps from
// zero to two hours, and every fifth sequence Category-2 only.
func randomSeq(r *rand.Rand) []trace.Event {
	types := cp.EventTypes[:]
	if r.IntN(5) == 0 {
		types = []cp.EventType{cp.Handover, cp.TrackingAreaUpdate}
	}
	seq := make([]trace.Event, r.IntN(40))
	t := cp.Millis(r.Int64N(int64(cp.Day)))
	for i := range seq {
		if r.IntN(4) > 0 {
			t += cp.Millis(r.Int64N(int64(2 * cp.Hour)))
		}
		seq[i] = trace.Event{T: t, UE: 1, Type: types[r.IntN(len(types))]}
	}
	return seq
}

// TestWalkMatchesMacroOracles holds the walk's macro trail and top-exit
// sojourns to MacroBreakdown and MacroSojourns, over random sequences on
// every machine, and checks the bottom level never leaves the macro
// state it belongs to.
func TestWalkMatchesMacroOracles(t *testing.T) {
	r := rand.New(rand.NewPCG(1, 2))
	for _, m := range []*Machine{LTE2Level(), EMMECM(), FiveGSA()} {
		for i := 0; i < 400; i++ {
			seq := randomSeq(r)
			got, moves := walkAll(t, m, seq)
			if !slices.Equal(got, seq) {
				t.Fatalf("%s: walk made %v ready, want %v", m.Name, got, seq)
			}
			initial := InferMacroInitial(seq)
			wantTrail := MacroBreakdown(seq, initial)
			wantSoj := MacroSojourns(seq, initial)
			trail := map[cp.EventType]map[cp.UEState]int{}
			soj := map[cp.UEState][]float64{}
			for j, mv := range moves {
				ev := got[j]
				if trail[ev.Type] == nil {
					trail[ev.Type] = map[cp.UEState]int{}
				}
				trail[ev.Type][mv.Macro]++
				if mv.Exit == ExitTop && mv.TopHas {
					soj[mv.Top] = append(soj[mv.Top], (ev.T - mv.TopAt).Seconds())
				}
				if m.Top(mv.State) != mv.Macro {
					t.Fatalf("%s: %v left the bottom in %s, outside %v", m.Name, ev, m.StateName(mv.State), mv.Macro)
				}
				if mv.Violation && (Category1(ev.Type) || !m.HasSubStructure() || mv.Exit != Stay) {
					t.Fatalf("%s: %v flagged a violation with move %+v", m.Name, ev, mv)
				}
			}
			for _, e := range cp.EventTypes {
				for s := 0; s < cp.NumUEStates; s++ {
					if g, w := trail[e][cp.UEState(s)], wantTrail[e][cp.UEState(s)]; g != w {
						t.Fatalf("%s: %v: %v in %v counted %d, MacroBreakdown %d", m.Name, seq, e, cp.UEState(s), g, w)
					}
				}
			}
			for s := 0; s < cp.NumUEStates; s++ {
				if g, w := soj[cp.UEState(s)], wantSoj[cp.UEState(s)]; !slices.Equal(g, w) {
					t.Fatalf("%s: %v: %v sojourns %v, MacroSojourns %v", m.Name, seq, cp.UEState(s), g, w)
				}
			}
		}
	}
}

// TestWalkPrefix checks what Push hands back: nothing while the initial
// state is undecided, the whole prefix at the deciding event, then one
// event at a time; and that an invalid type is refused without a trace.
func TestWalkPrefix(t *testing.T) {
	w := NewWalk(LTE2Level())
	seq := evs(1.0, cp.Handover, 2.0, cp.TrackingAreaUpdate, 3.0, cp.S1ConnRelease, 4.0, cp.TrackingAreaUpdate)
	for i, want := range [][]trace.Event{nil, nil, seq[:3], seq[3:]} {
		ready, ok := w.Push(seq[i])
		if !ok || !slices.Equal(ready, want) {
			t.Fatalf("Push %d: %v, %v; want %v", i, ready, ok, want)
		}
	}
	before := w
	if ready, ok := w.Push(trace.Event{T: 5000, UE: 1, Type: cp.EventType(99)}); ok || ready != nil {
		t.Fatalf("invalid type: %v, %v", ready, ok)
	}
	if !reflect.DeepEqual(w, before) {
		t.Fatal("a refused event changed the walk")
	}
	if w.Finish() != nil {
		t.Fatal("Finish of a decided walk returned events")
	}
}

// TestWalkSteadyStateAllocs: once the initial state is decided, Push and
// Step allocate nothing per event.
func TestWalkSteadyStateAllocs(t *testing.T) {
	w := NewWalk(LTE2Level())
	w.Push(trace.Event{T: 0, UE: 1, Type: cp.Attach})
	seq := evs(1.0, cp.Handover, 2.0, cp.TrackingAreaUpdate, 3.0, cp.S1ConnRelease,
		4.0, cp.TrackingAreaUpdate, 5.0, cp.S1ConnRelease, 6.0, cp.ServiceRequest)
	i := 0
	var sink Move
	allocs := testing.AllocsPerRun(1000, func() {
		ev := seq[i%len(seq)]
		ev.T += cp.Millis(i/len(seq)) * cp.Minute
		i++
		ready, _ := w.Push(ev)
		for _, r := range ready {
			sink = w.Step(r)
		}
	})
	if allocs != 0 {
		t.Fatalf("decided walk: %v allocations per event, want 0", allocs)
	}
	_ = sink
}
