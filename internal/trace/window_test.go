package trace

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// fakeStream is one pre-built stream as per-UE state: its events and a
// cursor. With lazy set, it answers like the world simulator: its pending
// time is only a lower bound (up to half a second early), so windows can
// come up empty.
type fakeStream struct {
	evs  []Event
	pos  int
	lazy bool
}

func (s *fakeStream) drain(limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis {
	for s.pos < len(s.evs) && s.evs[s.pos].T < limit {
		run.Append(l, s.evs[s.pos])
		s.pos++
	}
	switch {
	case s.pos == len(s.evs):
		return NoPending
	case s.lazy:
		return max(limit, s.evs[s.pos].T-500)
	}
	return s.evs[s.pos].T
}

// fakeStreams is a population of pre-built streams. Its drain records
// every limit it was drained to, so a test can tell where the window
// boundaries fell.
type fakeStreams struct {
	evs    [][]Event
	lazy   bool
	limits []cp.Millis
}

func newFakeStreams(evs [][]Event) *fakeStreams {
	return &fakeStreams{evs: evs}
}

// init starts stream i afresh.
func (f *fakeStreams) init(s *fakeStream, i int) {
	*s = fakeStream{evs: f.evs[i], lazy: f.lazy}
}

// streams returns every stream, started.
func (f *fakeStreams) streams() []fakeStream {
	s := make([]fakeStream, len(f.evs))
	for i := range s {
		f.init(&s[i], i)
	}
	return s
}

func (f *fakeStreams) drain(s *fakeStream, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis {
	if n := len(f.limits); n == 0 || f.limits[n-1] != limit {
		f.limits = append(f.limits, limit)
	}
	return s.drain(limit, l, run)
}

// ueMaxOf returns the largest UE id in the streams.
func ueMaxOf(evs [][]Event) cp.UEID {
	var m cp.UEID
	for _, s := range evs {
		for _, e := range s {
			m = max(m, e.UE)
		}
	}
	return m
}

// mergeOracle orders the streams with the loser tree.
func mergeOracle(t *testing.T, evs [][]Event) []Event {
	t.Helper()
	its := make([]BatchIterator, len(evs))
	for i := range evs {
		its[i] = &SliceIterator{Events: evs[i]}
	}
	var want []Event
	if err := MergeBatches(func(b *Batch) error {
		want = b.AppendTo(want)
		return nil
	}, its); err != nil {
		t.Fatal(err)
	}
	return want
}

// assembleAll runs assembleWindows over the streams and checks it against
// the merge, event for event, and that every batch but the last is full.
func assembleAll(t *testing.T, name string, f *fakeStreams) {
	t.Helper()
	want := mergeOracle(t, f.evs)
	var got []Event
	var sizes []int
	err := assembleWindows(func(b *Batch) error {
		got = b.AppendTo(got)
		sizes = append(sizes, b.Len())
		return nil
	}, f.streams(), ueMaxOf(f.evs), f.drain)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: assembleWindows differs from MergeBatches (%d vs %d events)", name, len(got), len(want))
	}
	for i, n := range sizes {
		if last := i == len(sizes)-1; (!last && n != DefaultBatchSize) || n == 0 || n > DefaultBatchSize {
			t.Fatalf("%s: batch %d of %d holds %d events", name, i, len(sizes), n)
		}
	}
}

// randomStreams builds k individually ordered streams of up to maxLen
// events with times below tMax (offset by t0); stream i is UE i.
func randomStreams(r *stats.RNG, k, maxLen int, t0, tMax cp.Millis) [][]Event {
	evs := make([][]Event, k)
	for i := range evs {
		s := make([]Event, r.Intn(maxLen+1))
		for j := range s {
			s[j] = Event{
				T:    t0 + cp.Millis(r.Intn(int(tMax))),
				UE:   cp.UEID(i),
				Type: cp.EventType(r.Intn(cp.NumEventTypes)),
			}
		}
		tmp := Trace{Events: s}
		tmp.Sort()
		evs[i] = tmp.Events
	}
	return evs
}

// TestAssembleWindowsMatchesMerge holds the windowed assembly to the loser
// tree over the same streams: random populations, exact and lower-bound
// pending times, and the shapes where a window boundary could lose,
// duplicate or reorder an event.
func TestAssembleWindowsMatchesMerge(t *testing.T) {
	r := stats.NewRNG(42)
	for round := 0; round < 30; round++ {
		evs := randomStreams(r, r.Intn(40), 150, cp.Millis(r.Intn(3))*cp.Day-cp.Hour, 5000)
		for _, lazy := range []bool{false, true} {
			f := newFakeStreams(evs)
			f.lazy = lazy
			assembleAll(t, "random", f)
		}
	}

	t.Run("boundaries", func(t *testing.T) {
		// Eight streams with an event every millisecond: whatever the
		// window ends are, there is an event at w1-1 and one at w1.
		evs := make([][]Event, 8)
		for i := range evs {
			for ms := 0; ms < 6000; ms++ {
				evs[i] = append(evs[i], Event{T: cp.Millis(ms), UE: cp.UEID(i), Type: cp.EventType(ms % cp.NumEventTypes)})
			}
		}
		f := newFakeStreams(evs)
		assembleAll(t, "boundaries", f)
		inside := 0
		for _, w1 := range f.limits {
			if w1 > 0 && w1 < 6000 {
				inside++
			}
		}
		if inside < 5 {
			t.Fatalf("only %d window ends fell inside the events (%v); the case is vacuous", inside, f.limits)
		}
	})

	t.Run("silent days", func(t *testing.T) {
		// Two bursts ten days apart: the second window must start at the
		// second burst, not crawl to it.
		evs := randomStreams(r, 20, 100, 0, 2000)
		late := randomStreams(r, 20, 100, 10*cp.Day, 2000)
		for i := range evs {
			evs[i] = append(evs[i], late[i]...)
		}
		f := newFakeStreams(evs)
		assembleAll(t, "silent days", f)
		if len(f.limits) > 64 {
			t.Fatalf("%d windows for two short bursts: the silent stretch was not skipped", len(f.limits))
		}
	})

	t.Run("one stream", func(t *testing.T) {
		assembleAll(t, "one stream", newFakeStreams(randomStreams(r, 1, 3000, 0, 100000)[:1]))
		assembleAll(t, "no streams", newFakeStreams(nil))
		assembleAll(t, "empty streams", newFakeStreams(make([][]Event, 5)))
	})

	t.Run("k beyond the window target", func(t *testing.T) {
		k := 3*bucketTarget + 17
		evs := make([][]Event, k)
		for i := range evs {
			for j, n := 0, 1+r.Intn(3); j < n; j++ {
				evs[i] = append(evs[i], Event{T: cp.Millis(j*40000 + r.Intn(40000)), UE: cp.UEID(i), Type: cp.EventType(r.Intn(cp.NumEventTypes))})
			}
		}
		assembleAll(t, "wide", newFakeStreams(evs))
	})

	t.Run("same event in two streams", func(t *testing.T) {
		evs := randomStreams(r, 6, 200, 0, 1000)
		evs[4] = slices.Clone(evs[1]) // every event of UE 1, twice
		assembleAll(t, "duplicates", newFakeStreams(evs))
	})

	t.Run("span past 64 bits", func(t *testing.T) {
		// T up to 2^60 with 21-bit UE ids: 60 + 21 + 3 bits, so the global
		// layout Generate uses refuses; window-relative keys do not care.
		const far = cp.Millis(1) << 60
		evs := randomStreams(r, 10, 50, 0, 5000)
		for i := range evs {
			for j := range evs[i] {
				evs[i][j].UE += 1 << 20
			}
			evs[i] = append(evs[i], Event{T: far - cp.Millis(i), UE: cp.UEID(i) + 1<<20, Type: cp.Handover})
		}
		if _, fits := NewKeyLayout(0, far, ueMaxOf(evs)); fits {
			t.Fatal("test is vacuous: the global key fits 64 bits")
		}
		assembleAll(t, "far", newFakeStreams(evs))
	})
}

// TestAssembleWindowsStopsOnError pins the two ways an assembly ends
// early: fn's error is returned as is and fn is not called again, and a
// stream that goes back in time is reported — not emitted out of order —
// with nothing delivered once it is seen.
func TestAssembleWindowsStopsOnError(t *testing.T) {
	r := stats.NewRNG(7)
	evs := randomStreams(r, 10, 400, 0, 3000)
	boom := errors.New("boom")
	calls := 0
	err := assembleWindows(func(*Batch) error {
		if calls++; calls == 3 {
			return boom
		}
		return nil
	}, newFakeStreams(evs).streams(), ueMaxOf(evs), (*fakeStream).drain)
	if !errors.Is(err, boom) || calls != 3 {
		t.Fatalf("err = %v after %d calls, want boom after 3", err, calls)
	}

	// Stream 0 is well behaved: an event every millisecond. Stream 1 holds
	// an event at 6000 and behind it one stamped 10.
	good := make([]Event, 9000)
	for ms := range good {
		good[ms] = Event{T: cp.Millis(ms), UE: 0, Type: cp.Handover}
	}
	back := []Event{{T: 6000, UE: 1, Type: cp.Attach}, {T: 10, UE: 1, Type: cp.Detach}}
	var got []Event
	err = assembleWindows(func(b *Batch) error {
		got = b.AppendTo(got)
		return nil
	}, newFakeStreams([][]Event{good, back}).streams(), 1, (*fakeStream).drain)
	if err == nil || !strings.Contains(err.Error(), "time-ordered") {
		t.Fatalf("err = %v, want the stream-order error", err)
	}
	if len(got) == 0 || len(got) > 6000 || !slices.Equal(got, good[:len(got)]) {
		t.Fatalf("%d events delivered before the error; want a prefix of stream 0 short of T=6000", len(got))
	}

	// A stream that answers the opening round with an event has no window
	// to put it in.
	err = assembleWindows(func(*Batch) error { return nil }, make([]int, 1), 0,
		func(_ *int, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis {
			run.Append(l, Event{})
			return NoPending
		})
	if err == nil {
		t.Fatal("an event delivered before any window was accepted")
	}
}
