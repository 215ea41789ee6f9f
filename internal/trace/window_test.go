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
// Where the streams hold UEs in ascending order, as every production
// population's do, it checks that no window was sorted twice: the time-bits
// sort alone ordered every window, the cut and carried ones included. It
// returns the assembler, whose window counts a test may read.
func assembleAll(t *testing.T, name string, f *fakeStreams) *windowAssembler[fakeStream] {
	t.Helper()
	want := mergeOracle(t, f.evs)
	var got []Event
	var sizes []int
	a := newWindowAssembler(func(b *Batch) error {
		got = b.AppendTo(got)
		sizes = append(sizes, b.Len())
		return nil
	}, f.streams(), f.drain)
	err := a.assemble(ueMaxOf(f.evs))
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
	if ueOrdered(f.evs) && a.resorted != 0 {
		t.Fatalf("%s: %d of %d windows sorted again on the whole key, from streams in UE order", name, a.resorted, a.windows)
	}
	return a
}

// ueOrdered reports whether no stream holds a UE below one an earlier
// stream holds: the order in which a window's keys need only their time
// bits sorted.
func ueOrdered(evs [][]Event) bool {
	var top cp.UEID // the largest UE of the streams so far
	for _, s := range evs {
		for _, e := range s {
			if e.UE < top {
				return false
			}
		}
		for _, e := range s {
			top = max(top, e.UE)
		}
	}
	return true
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

	t.Run("burst in one millisecond", func(t *testing.T) {
		// A quiet minute, then more than a window's keys stamped in one
		// millisecond, then the quiet again: a cut cannot split the
		// millisecond, so it is a window of its own.
		evs := steppedStreams(r, 40, 1, 3000, 20*3000, 0)
		for i := range evs {
			at := slices.IndexFunc(evs[i], func(e Event) bool { return e.T >= 30000 })
			if at < 0 {
				at = len(evs[i])
			}
			burst := make([]Event, bucketTarget/16)
			for j := range burst {
				burst[j] = Event{T: 30000, UE: cp.UEID(i), Type: cp.EventType(j * cp.NumEventTypes / len(burst))} // in canonical order
			}
			evs[i] = slices.Concat(evs[i][:at], burst, evs[i][at:])
		}
		a := assembleAll(t, "burst", newFakeStreams(evs))
		if a.largest < 40*bucketTarget/16 {
			t.Fatalf("largest window %d keys: the burst was split", a.largest)
		}
	})

	t.Run("same event in two streams", func(t *testing.T) {
		evs := randomStreams(r, 6, 200, 0, 1000)
		evs[4] = slices.Clone(evs[1]) // every event of UE 1, twice
		assembleAll(t, "duplicates", newFakeStreams(evs))
	})

	t.Run("streams out of UE order", func(t *testing.T) {
		// Stream i is UE k-1-i: a millisecond's keys come in descending
		// UE order, so the time-bits sort leaves windows out of order and
		// they must be sorted again. The rate steps up fourfold, as in
		// TestWindowKeysBounded, so cut and carried windows are among them.
		const k = 100
		evs := steppedStreams(r, k, 1, 2000, 750*2000, 250*2000)
		for i := range evs {
			for j := range evs[i] {
				evs[i][j].UE = k - 1 - cp.UEID(i)
			}
		}
		for _, lazy := range []bool{false, true} {
			f := newFakeStreams(evs)
			f.lazy = lazy
			if a := assembleAll(t, "descending UEs", f); a.resorted == 0 {
				t.Fatalf("lazy=%v: none of %d windows was sorted again; the case is vacuous", lazy, a.windows)
			}
		}
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

// steppedStreams builds k streams whose events come at a gap of about
// quiet/2 to 3·quiet/2 ms for quietFor ms, then four times as fast for
// busyFor ms, cycles times over; stream i is UE i and starts at a random
// phase.
func steppedStreams(r *stats.RNG, k, cycles int, quiet, quietFor, busyFor cp.Millis) [][]Event {
	evs := make([][]Event, k)
	period := quietFor + busyFor
	for i := range evs {
		for t := cp.Millis(r.Intn(int(quiet))); t < cp.Millis(cycles)*period; {
			evs[i] = append(evs[i], Event{T: t, UE: cp.UEID(i), Type: cp.EventType(r.Intn(cp.NumEventTypes))})
			gap := quiet
			if t%period >= quietFor {
				gap /= 4
			}
			t += max(gap/2+cp.Millis(r.Intn(int(gap))), 1)
		}
	}
	return evs
}

// windowBound is the most keys, in targets, a window may hold where the
// sample's share of the keys holds from one window to the next.
const windowBound = 1.25

// TestWindowKeysBounded holds every window to windowBound targets of keys
// where the rate steps up fourfold after a quiet stretch. A window's span
// is the one that held a target of keys at the rate before, so the window
// the step falls in would hold up to four targets: its buffers, and every
// buffer after it, would be sized by that one window. The population
// sizes cover both targets, bucketTarget and one key per stream, and the
// lazy streams give pending times that are only lower bounds. The output
// is held to the merge throughout, and the window count to the events
// over the target, plus the doubling from a 1 ms span that the first
// windows take.
func TestWindowKeysBounded(t *testing.T) {
	r := stats.NewRNG(11)
	for _, tc := range []struct {
		name          string
		streams       int
		cycles        int
		quiet         cp.Millis // mean gap between a stream's events before the step
		quietN, busyN cp.Millis // the stretches, in quiet gaps
	}{
		{"deep", 100, 3, 2000, 750, 250},  // 164 events a stream a window
		{"wide", 20000, 2, 100_000, 6, 2}, // one
	} {
		evs := steppedStreams(r, tc.streams, tc.cycles, tc.quiet, tc.quietN*tc.quiet, tc.busyN*tc.quiet)
		events := 0
		for _, s := range evs {
			events += len(s)
		}
		target := max(bucketTarget, tc.streams)
		for _, lazy := range []bool{false, true} {
			f := newFakeStreams(evs)
			f.lazy = lazy
			a := assembleAll(t, tc.name, f)
			t.Logf("%s lazy=%v: %d events in %d windows, the largest %d keys (%.2f targets)",
				tc.name, lazy, events, a.windows, a.largest, float64(a.largest)/float64(target))
			if bound := int(windowBound * float64(target)); a.largest > bound {
				t.Errorf("%s lazy=%v: a window held %d keys, want <= %d (%g targets of %d)", tc.name, lazy, a.largest, bound, windowBound, target)
			}
			if most := events/target*5/4 + 32; a.windows > most {
				t.Errorf("%s lazy=%v: %d windows for %d events, want <= %d", tc.name, lazy, a.windows, events, most)
			}
		}
	}
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
	_, err := assembleWindows(func(*Batch) error {
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
	_, err = assembleWindows(func(b *Batch) error {
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
	_, err = assembleWindows(func(*Batch) error { return nil }, make([]int, 1), 0,
		func(_ *int, limit cp.Millis, l *KeyLayout, run *KeyRun) cp.Millis {
			run.Append(l, Event{})
			return NoPending
		})
	if err == nil {
		t.Fatal("an event delivered before any window was accepted")
	}
}
