package trace

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// TestEventIs16Bytes pins the size the assembler's memory arithmetic
// (8 B of key against 16 B of event), MergeBatches' run slab and
// DESIGN.md all compute with.
func TestEventIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 16 {
		t.Fatalf("unsafe.Sizeof(Event{}) = %d, want 16", got)
	}
}

// TestEventLayout pins what eventView's conversion of a []uint64 into a
// []Event rests on besides the size: an Event is aligned like a uint64,
// so every even word offset starts an event, and holds no pointer, so
// memory the collector allocated pointer-free may hold events.
func TestEventLayout(t *testing.T) {
	if a, w := unsafe.Alignof(Event{}), unsafe.Alignof(uint64(0)); a != w {
		t.Fatalf("unsafe.Alignof(Event{}) = %d, want %d (a uint64's)", a, w)
	}
	typ := reflect.TypeOf(Event{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Fatalf("Event.%s is a %s: only integer fields may share memory with packed keys", f.Name, f.Type)
		}
	}
}

// packRuns packs evs under l, dealing them into runs of the given
// lengths (a last run takes the remainder).
func packRuns(l *KeyLayout, evs []Event, lens []int) []KeyRun {
	var runs []KeyRun
	for _, n := range append(lens, len(evs)) {
		n = min(n, len(evs))
		var run KeyRun
		run.Append(l, evs[:n]...)
		runs = append(runs, run)
		evs = evs[n:]
	}
	return runs
}

// loneRun packs evs under l into one run of capacity c.
func loneRun(l *KeyLayout, evs []Event, c int) []KeyRun {
	run := KeyRun{keys: make([]uint64, 0, c)}
	run.Append(l, evs...)
	return []KeyRun{run}
}

// TestAssembleKeysMatchesSort is the kernel's oracle: assembleKeys over
// packed runs must return exactly what Trace.Sort makes of the same
// events, whatever the key width, the duplication, the skew across
// top-digit buckets, the input size relative to the kernel's two size
// thresholds, and the way the keys are dealt into runs. Every case runs
// under each provisioning: several runs, a lone run one key short of
// room for its partition, and a lone run with exactly that room, which
// must be decoded over in place — the overlap of events and keys is
// tightest there.
func TestAssembleKeysMatchesSort(t *testing.T) {
	const t0 = 36 * cp.Hour
	cases := []struct {
		name   string
		n      int
		tOff   int // events draw T from [t0+tOff, t0+tOff+tRange)
		tRange int
		tMax   cp.Millis
		ueMax  cp.UEID
		lens   []int // how the several runs are dealt (nil: thirds)
	}{
		{"empty", 0, 0, 1, t0, 0, nil},
		{"no-runs", 0, 0, 1, t0, 0, nil},
		{"single", 1, 0, 64, t0 + 63, 3, nil},
		{"two", 2, 0, 64, t0 + 63, 3, []int{1}},
		{"one-digit", 5000, 0, 64, t0 + 63, 3, []int{100, 0, 2000}},                       // 6+2+3 = 11-bit key
		{"two-digits", 5000, 0, 1 << 9, t0 + 1<<9 - 1, 255, []int{1, 1, 1}},               // 9+8+3 = 20 bits
		{"four-digits", 50000, 0, 1 << 30, t0 + 1<<30 - 1, 1<<17 - 1, []int{7, 30000}},    // 30+17+3 = 50 bits
		{"full-width", 20000, 0, 1 << 29, t0 + 1<<29 - 1, math.MaxUint32, []int{19999}},   // 29+32+3 = 64 bits
		{"dupes", 40000, 0, 50, t0 + 49, 2, []int{0, 0, 13}},                              // few distinct keys, many copies
		{"one-bucket", 40000, 0, 1000, t0 + 1<<30 - 1, 1<<17 - 1, []int{20000}},           // every key in top-digit bucket 0
		{"last-bucket", 40000, 1<<30 - 1000, 1000, t0 + 1<<30 - 1, 1<<17 - 1, []int{777}}, // every key in the last bucket
		{"narrower-than-top-digit", 70000, 0, 1, t0, 0, nil},                              // 3-bit key, 2-bit top digit
		{"single-bucket", 9000, 0, 1 << 30, t0 + 1<<30 - 1, 1<<17 - 1, []int{3000}},       // no top digit, five odd-width passes
		{"below-small-sort", smallSort - 1, 0, 1 << 20, t0 + 1<<20 - 1, 999, []int{100}},
		{"at-small-sort", smallSort, 0, 1 << 20, t0 + 1<<20 - 1, 999, []int{100}},
		{"above-small-sort", smallSort + 1, 0, 1 << 20, t0 + 1<<20 - 1, 999, []int{100}},
		{"below-bucket-target", bucketTarget - 1, 0, 1 << 20, t0 + 1<<20 - 1, 999, nil},
		{"at-bucket-target", bucketTarget, 0, 1 << 20, t0 + 1<<20 - 1, 999, nil},
	}
	provisions := []struct {
		name string
		runs func(l *KeyLayout, evs []Event, lens []int) []KeyRun
	}{
		{"several", func(l *KeyLayout, evs []Event, lens []int) []KeyRun {
			if lens == nil {
				lens = []int{len(evs) / 3, len(evs) / 3}
			}
			return packRuns(l, evs, lens)
		}},
		{"lone-short", func(l *KeyLayout, evs []Event, _ []int) []KeyRun {
			return loneRun(l, evs, max(2*len(evs)-1, 0))
		}},
		{"lone-room", func(l *KeyLayout, evs []Event, _ []int) []KeyRun {
			return loneRun(l, evs, 2*len(evs))
		}},
	}
	r := stats.NewRNG(7)
	for _, tc := range cases {
		l, ok := NewKeyLayout(t0, tc.tMax, tc.ueMax)
		if !ok {
			t.Fatalf("%s: layout refused a key of at most 64 bits", tc.name)
		}
		evs := make([]Event, tc.n)
		for i := range evs {
			evs[i] = Event{
				T:    t0 + cp.Millis(tc.tOff+r.Intn(tc.tRange)),
				UE:   cp.UEID(r.Uint64() % (uint64(tc.ueMax) + 1)),
				Type: cp.EventType(r.Intn(cp.NumEventTypes)),
			}
		}
		want := Trace{Events: slices.Clone(evs)}
		want.Sort()
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "no-runs" {
				if got, ok := assembleKeys(&l, nil); !ok || len(got) != 0 {
					t.Fatalf("no runs assembled to %d events, ok=%v", len(got), ok)
				}
				return
			}
			for _, pv := range provisions {
				t.Run(pv.name, func(t *testing.T) {
					runs := pv.runs(&l, evs, tc.lens)
					base := unsafe.Pointer(unsafe.SliceData(runs[0].keys))
					got, ok := assembleKeys(&l, runs)
					if !ok {
						t.Fatal("assembleKeys refused in-layout events")
					}
					if !slices.Equal(got, want.Events) {
						t.Fatalf("assembleKeys differs from Trace.Sort (%d vs %d events)", len(got), len(want.Events))
					}
					over, inPlace := unsafe.Pointer(unsafe.SliceData(got)) == base, pv.name == "lone-room"
					if tc.n > 0 && over != inPlace {
						t.Fatalf("events decoded over the run's buffer: %v, want %v", over, inPlace)
					}
					for i := range runs {
						if runs[i].keys != nil {
							t.Fatalf("run %d still referenced after assembly", i)
						}
					}
				})
			}
		})
	}
}

// TestKeyRoundTrip packs and unpacks the corner of every field, on the
// widest layout that fits and on a narrow one with a negative t0.
func TestKeyRoundTrip(t *testing.T) {
	layouts := []struct {
		t0, tMax cp.Millis
		ueMax    cp.UEID
	}{
		{18 * cp.Hour, 18*cp.Hour + 1<<29 - 1, math.MaxUint32}, // exactly 64 bits
		{-5, 5, 6},
		{7, 7, 0}, // zero-width T and UE fields
	}
	for _, lc := range layouts {
		l, ok := NewKeyLayout(lc.t0, lc.tMax, lc.ueMax)
		if !ok {
			t.Fatalf("layout %+v refused", lc)
		}
		var prev uint64
		first := true
		for _, tt := range slices.Compact([]cp.Millis{lc.t0, lc.tMax}) {
			for _, ue := range slices.Compact([]cp.UEID{0, lc.ueMax}) {
				for _, typ := range cp.EventTypes {
					e := Event{T: tt, UE: ue, Type: typ}
					k, ok := l.Pack(e)
					if !ok {
						t.Fatalf("layout %+v: Pack refused %v", lc, e)
					}
					if got := l.Unpack(k); got != e {
						t.Fatalf("layout %+v: %v packed to %#x unpacked to %v", lc, e, k, got)
					}
					if k > l.maxKey() {
						t.Fatalf("layout %+v: key %#x of %v above maxKey %#x", lc, k, e, l.maxKey())
					}
					// The loops ascend in (T, UE, Type): so must the keys.
					if !first && k <= prev {
						t.Fatalf("layout %+v: key order breaks canonical order at %v", lc, e)
					}
					prev, first = k, false
				}
			}
		}
	}
}

// TestKeyLayoutRefusals covers both checks: the fit check up front and
// the range guard at pack time.
func TestKeyLayoutRefusals(t *testing.T) {
	if _, ok := NewKeyLayout(0, 1<<29, math.MaxUint32); ok {
		t.Fatal("accepted a 65-bit key (30 + 32 + 3)")
	}
	if _, ok := NewKeyLayout(0, 1<<62, 1<<32-1); ok {
		t.Fatal("accepted a 98-bit key")
	}
	if _, ok := NewKeyLayout(10, 9, 0); ok {
		t.Fatal("accepted tMax below t0")
	}
	if _, ok := NewKeyLayout(math.MinInt64, math.MaxInt64, 0); ok {
		t.Fatal("accepted a span of the whole int64 range")
	}
	l, ok := NewKeyLayout(1000, 1999, 9)
	if !ok {
		t.Fatal("refused a 17-bit key")
	}
	in := Event{T: 1500, UE: 9, Type: cp.Handover}
	if _, ok := l.Pack(in); !ok {
		t.Fatalf("Pack refused %v", in)
	}
	for _, e := range []Event{
		{T: 999, UE: 9, Type: cp.Handover},           // below t0
		{T: math.MinInt64, UE: 9, Type: cp.Handover}, // far below t0
		{T: 2000, UE: 9, Type: cp.Handover},          // past the declared span
		{T: math.MaxInt64, UE: 9, Type: cp.Handover},
		{T: 1500, UE: 10, Type: cp.Handover},    // UE out of range
		{T: 1500, UE: 9, Type: cp.EventType(8)}, // type beyond the type field
		{T: 1500, UE: 9, Type: cp.EventType(math.MaxUint8)},
	} {
		if _, ok := l.Pack(e); ok {
			t.Errorf("Pack accepted %v outside layout [1000,1999] x [0,9]", e)
		}
		// One such event anywhere poisons its run, and the run the assembly.
		runs := packRuns(&l, []Event{in, e, in}, []int{1})
		if evs, ok := assembleKeys(&l, runs); ok || evs != nil {
			t.Errorf("assembleKeys assembled a run holding %v", e)
		}
		if len(runs[1].keys) != 2 {
			t.Errorf("refused assembly consumed its runs")
		}
	}
}

// TestRadixSortRefusesWideType: a type that would spill into the key's UE
// field must make the wrapper refuse rather than mis-sort.
func TestRadixSortRefusesWideType(t *testing.T) {
	evs := []Event{{T: 2, UE: 1, Type: cp.EventType(9)}, {T: 1, UE: 0, Type: cp.Attach}}
	orig := slices.Clone(evs)
	if RadixSortEvents(evs, 0) {
		t.Fatal("accepted a type wider than the key's type field")
	}
	if !slices.Equal(evs, orig) {
		t.Fatal("refused sort mutated the slice")
	}
}

func ExampleKeyLayout() {
	l, _ := NewKeyLayout(18*cp.Hour, 19*cp.Hour+7, 399999)
	k, ok := l.Pack(Event{T: 18*cp.Hour + 5, UE: 3, Type: cp.Handover})
	fmt.Printf("%#x %v %v\n", k, ok, l.Unpack(k))
	// Output: 0x140001c true T=64800005 UE=3 HO
}

// TestKeyRunForecast: one reservation, a sixteenth of the way through
// and no sooner than 64 UEs, sized from the density so far — doubled for
// a lone run, which assembleKeys then decodes over in place; after it a
// population that keeps that density never reallocates, and one that
// does not still appends correctly.
func TestKeyRunForecast(t *testing.T) {
	l, _ := NewKeyLayout(0, 1<<20, 1<<20)
	const total, perUE = 4096, 20
	for _, runs := range []int{2, 1} {
		var run KeyRun
		var reservedAt, reserved int
		for ue := 0; ue < total; ue++ {
			for i := 0; i < perUE; i++ {
				run.Append(&l, Event{T: cp.Millis(i), UE: cp.UEID(ue)})
			}
			before := cap(run.keys)
			run.forecast(ue+1, total, runs)
			if cap(run.keys) != before {
				if reservedAt != 0 {
					t.Fatalf("runs=%d: second reservation after UE %d (first after %d)", runs, ue+1, reservedAt)
				}
				reservedAt, reserved = ue+1, cap(run.keys)
			}
		}
		if reservedAt != total/16 {
			t.Fatalf("runs=%d: reserved after %d UEs, want %d", runs, reservedAt, total/16)
		}
		room := total * perUE // keys, and for a lone run its partition too
		if runs == 1 {
			room *= 2
		}
		if reserved < room || reserved > room*5/4 {
			t.Fatalf("runs=%d: reserved %d keys for %d", runs, reserved, room)
		}
		if cap(run.keys) != reserved || len(run.keys) != total*perUE {
			t.Fatalf("runs=%d: run of %d keys ended with capacity %d, reserved %d", runs, len(run.keys), cap(run.keys), reserved)
		}
	}

	var small KeyRun // under 64 UEs: no reservation at all
	for ue := 0; ue < 63; ue++ {
		small.Append(&l, Event{UE: cp.UEID(ue)})
		before := cap(small.keys)
		small.forecast(ue+1, 63, 1)
		if cap(small.keys) != before {
			t.Fatalf("reserved for a 63-UE stripe after UE %d", ue+1)
		}
	}

	var late KeyRun // all the events come after the forecast: plain growth
	for ue := 0; ue < 2048; ue++ {
		if ue >= 1024 {
			late.Append(&l, Event{UE: cp.UEID(ue)})
		}
		late.forecast(ue+1, 2048, 1)
	}
	if evs, ok := assembleKeys(&l, []KeyRun{late}); !ok || len(evs) != 1024 {
		t.Fatalf("assembled %d events, ok=%v, want 1024", len(evs), ok)
	}
}
