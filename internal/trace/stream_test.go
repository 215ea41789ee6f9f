package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cptraffic/internal/cp"
)

// streamTrace builds a sorted, registered trace with n pseudo-random
// events over k UEs.
func streamTrace(t *testing.T, k, n int, seed int64) *Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := New()
	for i := 0; i < k; i++ {
		ue := cp.UEID(i * 3) // sparse ids
		if err := tr.SetDevice(ue, cp.DeviceType(rng.Intn(int(cp.NumDeviceTypes)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		tr.Append(Event{
			T:    cp.Millis(rng.Int63n(48 * 3600 * 1000)),
			UE:   cp.UEID(rng.Intn(k) * 3),
			Type: cp.EventType(rng.Intn(int(cp.NumEventTypes))),
		})
	}
	tr.Sort()
	return tr
}

func writeStream(t testing.TB, src EventSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := CopyBatches(sw, src); err != nil {
		t.Fatalf("CopyBatches into StreamWriter: %v", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func scanAll(t *testing.T, b []byte) *Trace {
	t.Helper()
	sc, err := NewScanner(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	tr, err := collectScanner(sc)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return tr
}

// TestScannerRoundTrip: Scanner ∘ StreamWriter is the identity on
// canonical traces, including the empty and single-UE edge cases and a
// fuzz-sized trace spanning several chunks.
func TestScannerRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		tr   *Trace
	}{
		{"empty", New()},
		{"registry-only", func() *Trace {
			tr := New()
			tr.SetDevice(7, cp.Phone)
			return tr
		}()},
		{"single-UE", func() *Trace {
			tr := New()
			tr.SetDevice(42, cp.Tablet)
			tr.Append(Event{T: 0, UE: 42, Type: cp.Attach})
			tr.Append(Event{T: 1000, UE: 42, Type: cp.ServiceRequest})
			tr.Append(Event{T: 1000, UE: 42, Type: cp.S1ConnRelease})
			return tr
		}()},
		{"multi-chunk", streamTrace(t, 20, 3*streamChunkSize+17, 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := scanAll(t, writeStream(t, tc.tr))
			if !reflect.DeepEqual(got.Device, tc.tr.Device) {
				t.Fatalf("device registry mismatch: got %v want %v", got.Device, tc.tr.Device)
			}
			want := tc.tr.Events
			if len(want) == 0 {
				want = nil
			}
			gotEvs := got.Events
			if len(gotEvs) == 0 {
				gotEvs = nil
			}
			if !reflect.DeepEqual(gotEvs, want) {
				t.Fatalf("events mismatch: got %d events, want %d", len(got.Events), len(tc.tr.Events))
			}
		})
	}

	// Whatever either writer accepts, through either face, ReadAuto reads
	// back equal: streams that are mostly canonical but may start below
	// zero, break the order or name an unregistered UE, cut into random
	// batches. A writer may refuse one; it may not write what the reader
	// then refuses or reads differently.
	t.Run("accepted-reads-back", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		accepted := 0
		for iter := 0; iter < 400; iter++ {
			want := New()
			for ue, k := 0, 1+rng.Intn(4); ue < k; ue++ {
				want.SetDevice(cp.UEID(ue*5), cp.DeviceTypes[rng.Intn(cp.NumDeviceTypes)])
			}
			lo := []int64{0, 0, -4}[rng.Intn(3)]
			for i := rng.Intn(12); i > 0; i-- {
				want.Events = append(want.Events, Event{
					T:    cp.Millis(lo + rng.Int63n(40)),
					UE:   cp.UEID(rng.Intn(want.NumUEs()) * 5),
					Type: cp.EventTypes[rng.Intn(cp.NumEventTypes)],
				})
			}
			if rng.Intn(8) > 0 {
				want.Sort()
			}
			if len(want.Events) > 0 && rng.Intn(10) == 0 {
				want.Events[rng.Intn(len(want.Events))].UE = 3
			}
			for _, wr := range incrementalWriters {
				var buf bytes.Buffer
				w := wr.new(&buf)
				if err := want.Devices(w.SetDevice); err != nil {
					t.Fatal(err)
				}
				var err error
				for rest := want.Events; len(rest) > 0 && err == nil; {
					n := 1 + rng.Intn(len(rest))
					err = writeFaces[rng.Intn(len(writeFaces))].put(w, rest[:n])
					rest = rest[n:]
				}
				if err == nil {
					err = w.Close()
				}
				if err != nil {
					continue
				}
				accepted++
				got, err := ReadAuto(&buf)
				if err != nil {
					t.Fatalf("%s accepted %v, ReadAuto refuses it: %v", wr.name, want.Events, err)
				}
				if !reflect.DeepEqual(got.Device, want.Device) || !slices.Equal(got.Events, want.Events) {
					t.Fatalf("%s wrote %v, ReadAuto read %v", wr.name, want.Events, got.Events)
				}
			}
		}
		if accepted < 200 {
			t.Fatalf("only %d streams accepted: the property is close to vacuous", accepted)
		}
	})
}

// incrementalWriter is what StreamWriter and TextWriter have in common.
type incrementalWriter interface {
	EventSink
	BatchSink
	Close() error
}

var incrementalWriters = []struct {
	name string
	new  func(io.Writer) incrementalWriter
}{
	{"StreamWriter", func(w io.Writer) incrementalWriter { return NewStreamWriter(w) }},
	{"TextWriter", func(w io.Writer) incrementalWriter { return NewTextWriter(w) }},
}

// writeFaces are the two ways events enter a writer: one Write per event,
// or one WriteBatch for the whole group.
var writeFaces = []struct {
	name string
	put  func(incrementalWriter, []Event) error
}{
	{"Write", func(w incrementalWriter, evs []Event) error {
		for _, e := range evs {
			if err := w.Write(e); err != nil {
				return err
			}
		}
		return nil
	}},
	{"WriteBatch", func(w incrementalWriter, evs []Event) error {
		b := NewBatch(len(evs))
		for _, e := range evs {
			b.Append(e)
		}
		return w.WriteBatch(b)
	}},
}

// The StreamWriter output must be byte-identical to WriteBinaryTrace for
// the same trace — they are one code path now, but the equality is the
// contract that lets producers switch freely.
func TestStreamWriterMatchesWriteBinaryTrace(t *testing.T) {
	tr := streamTrace(t, 13, 2500, 2)
	var monolithic bytes.Buffer
	if err := WriteBinaryTrace(&monolithic, tr); err != nil {
		t.Fatal(err)
	}
	streamed := writeStream(t, tr)
	if !bytes.Equal(monolithic.Bytes(), streamed) {
		t.Fatalf("WriteBinaryTrace and StreamWriter output differ: %d vs %d bytes",
			monolithic.Len(), len(streamed))
	}
}

// Version-1 files (count-prefixed, unchunked), which no writer produces,
// are refused by name at the header: by the Scanner, whichever face would
// have drained it, by ReadAuto and by FileSource.
func TestScannerRejectsV1(t *testing.T) {
	// Hand-encode a v1 file: 2 UEs, 3 events.
	v1 := []byte{'C', 'P', 'T', 'B', 1,
		2,                                           // numUEs
		5, byte(cp.Phone), 3, byte(cp.ConnectedCar), // UEs 5, 8
		3,                       // numEvents
		100, 5, byte(cp.Attach), // t=100
		50, 8, byte(cp.TrackingAreaUpdate), // t=150
		0, 5, byte(cp.ServiceRequest), // t=150
	}
	path := filepath.Join(t.TempDir(), "v1.trace")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, scanErr := drainScanner(v1, false)
	_, batchErr := drainScanner(v1, true)
	_, readErr := ReadAuto(bytes.NewReader(v1))
	_, fileErr := NewFileSource(path)
	for _, err := range []error{scanErr, batchErr, readErr, fileErr} {
		if err == nil || err.Error() != "trace: unsupported binary version 1" {
			t.Fatalf("v1 file: got %v, want the unsupported-version error", err)
		}
	}
}

// Scanner handles the text format with the same streaming API.
func TestScannerReadsText(t *testing.T) {
	tr := streamTrace(t, 5, 200, 3)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, buf.Bytes())
	if !reflect.DeepEqual(got.Events, tr.Events) || !reflect.DeepEqual(got.Device, tr.Device) {
		t.Fatal("text scan mismatch")
	}
}

// digitsTrace is a canonical trace that takes the text formatter through
// every width it has: UE ids of 1 to 10 digits, 0 and the largest among
// them, on both sides of the registry's bitset bound; times at 0, on both
// sides of every power of ten, in runs of equal neighbours and at the
// largest; all six types; and a random stretch long enough that the whole
// file is several write buffers.
func digitsTrace(t *testing.T) *Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	tr := New()
	ues := []cp.UEID{0, 7, 42, 123, 4567, 89012, 345678, 9012345, 67890123, 456789012, math.MaxUint32,
		denseUEs - 1, denseUEs, denseUEs + 5}
	for i, ue := range ues {
		if err := tr.SetDevice(ue, cp.DeviceTypes[i%cp.NumDeviceTypes]); err != nil {
			t.Fatal(err)
		}
	}
	at := func(ts ...cp.Millis) {
		for _, ts := range ts {
			for n := 1 + rng.Intn(3); n > 0; n-- { // runs of equal times
				tr.Append(Event{T: ts, UE: ues[rng.Intn(len(ues))], Type: cp.EventTypes[tr.Len()%cp.NumEventTypes]})
			}
		}
	}
	at(0, 1)
	for p := cp.Millis(10); p > 0 && p <= 1e18; p *= 10 {
		at(p-1, p, p+1)
		if p == 1e9 {
			for ts := p; ts < 2e9; ts += cp.Millis(rng.Intn(3) * rng.Intn(150000)) {
				at(ts)
			}
		}
	}
	at(math.MaxInt64-1, math.MaxInt64)
	tr.Sort()
	return tr
}

// flushOffsetTrace is one UE's canonical trace of 64 short lines, shift of
// them a byte longer than the rest, and then more longest-possible lines
// than a write buffer holds: over shifts 0 to 63 a longest line starts at
// every distance from the buffer's end.
func flushOffsetTrace(t *testing.T, shift int) *Trace {
	t.Helper()
	tr := New()
	if err := tr.SetDevice(math.MaxUint32, cp.Phone); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		typ := cp.Handover // "HO"
		if i >= 64-shift {
			typ = cp.TrackingAreaUpdate // "TAU", and ordered after it
		}
		tr.Append(Event{T: 0, UE: math.MaxUint32, Type: typ})
	}
	for n := (1<<16)/maxEventLine + 50; n > 0; n-- {
		tr.Append(Event{T: math.MaxInt64, UE: math.MaxUint32, Type: cp.S1ConnRelease})
	}
	return tr
}

// TextWriter's bytes for a canonical trace are WriteTrace's — the fmt
// encoder, which shares nothing with it — however the events are cut into
// batches and wherever the lines fall against the write buffer.
func TestTextWriterMatchesWriteTrace(t *testing.T) {
	type traceCase struct {
		name string
		tr   *Trace
	}
	cases := []traceCase{
		{"small", streamTrace(t, 5, 100, 4)},
		{"digits", digitsTrace(t)},
	}
	for shift := 0; shift < 64; shift++ {
		cases = append(cases, traceCase{fmt.Sprintf("flush-offset-%d", shift), flushOffsetTrace(t, shift)})
	}
	for _, tc := range cases {
		var want bytes.Buffer
		if err := WriteTrace(&want, tc.tr); err != nil {
			t.Fatal(err)
		}
		if tc.name == "digits" && want.Len() <= 3<<16 {
			t.Fatalf("the digits trace is %d bytes: too short to straddle three flushes", want.Len())
		}
		all := NewBatch(tc.tr.Len())
		for _, e := range tc.tr.Events {
			all.Append(e)
		}
		for _, size := range []int{1, 7, DefaultBatchSize, 4096, max(1, all.Len())} {
			var got bytes.Buffer
			tw := NewTextWriter(&got)
			if err := tc.tr.Devices(tw.SetDevice); err != nil {
				t.Fatal(err)
			}
			for off := 0; off < all.Len(); off += size {
				end := min(off+size, all.Len())
				view := Batch{T: all.T[off:end], UE: all.UE[off:end], Type: all.Type[off:end]}
				if err := tw.WriteBatch(&view); err != nil {
					t.Fatalf("%s, batches of %d: %v", tc.name, size, err)
				}
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				at := 0
				for at < got.Len() && at < want.Len() && got.Bytes()[at] == want.Bytes()[at] {
					at++
				}
				lo, hi := max(0, at-60), min(at+60, want.Len(), got.Len())
				t.Fatalf("%s, batches of %d: TextWriter and WriteTrace differ at byte %d of %d/%d:\n got %q\nwant %q",
					tc.name, size, at, got.Len(), want.Len(), got.Bytes()[lo:hi], want.Bytes()[lo:hi])
			}
		}
	}
}

// Every rejection, under both writers and both faces. A case is a sequence
// of groups — one WriteBatch each, or one Write per event — of which the
// last must fail, with the same error text whichever face delivered it.
func TestStreamWriterRejectsBadInput(t *testing.T) {
	ev := func(t cp.Millis, ue cp.UEID) Event { return Event{T: t, UE: ue, Type: cp.Attach} }
	cases := []struct {
		name       string
		groups     [][]Event
		closeFirst bool
		want       string
	}{
		{"out-of-order-events", [][]Event{{ev(100, 1), ev(50, 1)}}, false, "T=50 UE=1 ATCH out of canonical order (after T=100 UE=1 ATCH)"},
		{"out-of-order-across-batches", [][]Event{{ev(100, 1), ev(200, 1)}, {ev(150, 1), ev(300, 1)}}, false, "T=150 UE=1 ATCH out of canonical order (after T=200 UE=1 ATCH)"},
		{"tie-broken-by-UE-across-batches", [][]Event{{ev(5, 2)}, {ev(5, 1)}}, false, "T=5 UE=1 ATCH out of canonical order (after T=5 UE=2 ATCH)"},
		{"unregistered-UE", [][]Event{{ev(0, 1)}, {ev(1, 1), ev(2, 9)}}, false, "unregistered UE 9"},
		{"unregistered-UE-first", [][]Event{{ev(0, 9)}}, false, "unregistered UE 9"},
		{"negative-timestamp", [][]Event{{ev(-5, 1), ev(3, 1)}}, false, "negative timestamp -5"},
		{"invalid-type-first", [][]Event{{{T: 5, UE: 1, Type: 9}}}, false, "trace: invalid event type 9"},
		{"invalid-type-mid-batch", [][]Event{{ev(0, 1)}, {ev(1, 1), {T: 5, UE: 1, Type: 9}, ev(6, 1)}}, false, "trace: invalid event type 9"},
		{"write-after-close", [][]Event{{ev(0, 1)}}, true, "Write after Close"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, wr := range incrementalWriters {
				var texts []string
				for _, face := range writeFaces {
					w := wr.new(&bytes.Buffer{})
					w.SetDevice(1, cp.Phone)
					w.SetDevice(2, cp.Phone)
					if tc.closeFirst {
						if err := w.Close(); err != nil {
							t.Fatal(err)
						}
					}
					last := len(tc.groups) - 1
					for _, g := range tc.groups[:last] {
						if err := face.put(w, g); err != nil {
							t.Fatalf("%s.%s: %v", wr.name, face.name, err)
						}
					}
					err := face.put(w, tc.groups[last])
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("%s.%s: got error %v, want one containing %q", wr.name, face.name, err, tc.want)
					}
					texts = append(texts, err.Error())
				}
				if texts[0] != texts[1] {
					t.Fatalf("%s: the faces disagree: Write says %q, WriteBatch says %q", wr.name, texts[0], texts[1])
				}
			}
		})
	}
	t.Run("register-after-write", func(t *testing.T) {
		for _, wr := range incrementalWriters {
			w := wr.new(&bytes.Buffer{})
			w.SetDevice(1, cp.Phone)
			if err := w.Write(Event{T: 0, UE: 1, Type: cp.Attach}); err != nil {
				t.Fatal(err)
			}
			if err := w.SetDevice(2, cp.Phone); err == nil {
				t.Fatalf("%s: want error for late registration", wr.name)
			}
		}
	})
	t.Run("descending-registration", func(t *testing.T) { // StreamWriter's rule only
		sw := NewStreamWriter(&bytes.Buffer{})
		sw.SetDevice(5, cp.Phone)
		if err := sw.SetDevice(3, cp.Phone); err == nil {
			t.Fatal("want error for descending UE registration")
		}
	})
}

// Neither face allocates in steady state: the per-event one is a
// one-event WriteBatch through a batch the writer owns, the batched one
// (what CopyBatches and production runs call) formats into buffers the
// writer already has. A refused event may allocate its error, and leaves
// what was accepted ahead of it — in earlier batches and in its own — in
// the output, nothing else.
func TestWriterWriteSteadyStateAllocs(t *testing.T) {
	for _, wr := range incrementalWriters {
		w := wr.new(io.Discard)
		w.SetDevice(1, cp.Phone)
		next := cp.Millis(0)
		write := func() {
			next += 7
			if err := w.Write(Event{T: next, UE: 1, Type: cp.ServiceRequest}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2*streamChunkSize; i++ { // grow the chunk buffer
			write()
		}
		if avg := testing.AllocsPerRun(4*streamChunkSize, write); avg != 0 {
			t.Errorf("%s.Write allocates %.2f times per event, want 0", wr.name, avg)
		}

		b := NewBatch(DefaultBatchSize)
		writeBatch := func() {
			b.Reset()
			for i := 0; i < b.Cap(); i++ {
				next += 7
				b.Append(Event{T: next, UE: 1, Type: cp.EventTypes[i%cp.NumEventTypes]})
			}
			if err := w.WriteBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(64, writeBatch); avg != 0 {
			t.Errorf("%s.WriteBatch allocates %.2f times per batch of %d, want 0", wr.name, avg, b.Cap())
		}

		for _, refusedAt := range []int{0, 100} {
			tr := streamTrace(t, 3, 2*DefaultBatchSize, 13)
			var want, got bytes.Buffer
			whole, cut := wr.new(&want), wr.new(&got)
			for _, enc := range []incrementalWriter{whole, cut} {
				if err := tr.Devices(enc.SetDevice); err != nil {
					t.Fatal(err)
				}
			}
			accepted := tr.Events[:DefaultBatchSize+refusedAt]
			if err := writeFaces[1].put(whole, accepted); err != nil {
				t.Fatal(err)
			}
			second := slices.Clone(tr.Events[DefaultBatchSize:])
			second[refusedAt].UE = 1 // streamTrace's ids are multiples of 3
			if err := writeFaces[1].put(cut, tr.Events[:DefaultBatchSize]); err != nil {
				t.Fatal(err)
			}
			if err := writeFaces[1].put(cut, second); err == nil {
				t.Fatalf("%s: event %d of the second batch is for an unregistered UE, WriteBatch accepted it", wr.name, refusedAt)
			}
			if err := errors.Join(whole.Close(), cut.Close()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("%s: after a refusal at event %d of the second batch the output is %d bytes, the %d accepted events alone are %d",
					wr.name, refusedAt, got.Len(), len(accepted), want.Len())
			}
		}
	}
}

// Trace implements both EventSource and EventSink; Collect(Copy) over the
// interfaces reproduces the trace exactly, and Scan on an unsorted trace
// yields canonical order without mutating it.
func TestTraceAsSourceAndSink(t *testing.T) {
	tr := streamTrace(t, 8, 500, 5)
	got, err := Collect(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) || !reflect.DeepEqual(got.Device, tr.Device) {
		t.Fatal("Collect(trace) != trace")
	}

	unsorted := New()
	unsorted.SetDevice(1, cp.Phone)
	unsorted.Append(Event{T: 500, UE: 1, Type: cp.TrackingAreaUpdate})
	unsorted.Append(Event{T: 100, UE: 1, Type: cp.Attach})
	var seen []Event
	if err := unsorted.ScanBatches(func(b *Batch) error { seen = b.AppendTo(seen); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 || !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i].Before(seen[j]) }) {
		t.Fatal("ScanBatches of unsorted trace not in canonical order")
	}
	if unsorted.Events[0].T != 500 {
		t.Fatal("ScanBatches mutated the unsorted trace")
	}

	if err := tr.Write(Event{T: 0, UE: 9999, Type: cp.Attach}); err == nil {
		t.Fatal("Write for unknown UE should error, not panic")
	}
}

func TestFileSource(t *testing.T) {
	tr := streamTrace(t, 10, 1200, 6)
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		write func(f *os.File) error
	}{
		{"binary", func(f *os.File) error { return WriteBinaryTrace(f, tr) }},
		{"text", func(f *os.File) error { return WriteTrace(f, tr) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.write(f); err != nil {
				t.Fatal(err)
			}
			f.Close()
			src, err := NewFileSource(path)
			if err != nil {
				t.Fatal(err)
			}
			// Two full passes: FileSource must be re-iterable.
			for pass := 0; pass < 2; pass++ {
				got, err := Collect(src)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Events, tr.Events) || !reflect.DeepEqual(got.Device, tr.Device) {
					t.Fatalf("pass %d: FileSource decode mismatch", pass)
				}
			}
		})
	}

	if _, err := NewFileSource(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("want error for missing file")
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileSource(bad); err == nil {
		t.Fatal("want error for non-trace file")
	}
}
