package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// randomTrace builds a registered, canonically sorted trace with n events
// over nUEs UEs.
func randomTrace(t testing.TB, n, nUEs int, seed uint64) *Trace {
	t.Helper()
	r := stats.NewRNG(seed)
	tr := New()
	for i := 0; i < nUEs; i++ {
		if err := tr.SetDevice(cp.UEID(i), cp.DeviceType(r.Intn(cp.NumDeviceTypes))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		tr.Events = append(tr.Events, Event{
			T:    cp.Millis(r.Intn(1 << 20)),
			UE:   cp.UEID(r.Intn(nUEs)),
			Type: cp.EventType(r.Intn(cp.NumEventTypes)),
		})
	}
	tr.Sort()
	return tr
}

func TestBatchBasics(t *testing.T) {
	b := NewBatch(4)
	if b.Len() != 0 || b.Cap() != 4 {
		t.Fatalf("fresh batch: len=%d cap=%d", b.Len(), b.Cap())
	}
	evs := []Event{
		{T: 5, UE: 2, Type: cp.Attach},
		{T: 9, UE: 0, Type: cp.Handover},
		{T: 9, UE: 1, Type: cp.Detach},
	}
	for _, e := range evs {
		b.Append(e)
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	for i, want := range evs {
		if got := b.At(i); got != want {
			t.Fatalf("At(%d) = %v, want %v", i, got, want)
		}
	}
	if got := b.AppendTo(nil); !reflect.DeepEqual(got, evs) {
		t.Fatalf("AppendTo = %v, want %v", got, evs)
	}
	b.Grow(100)
	if b.Cap() < 100 || b.Len() != 3 || b.At(1) != evs[1] {
		t.Fatalf("Grow lost contents: len=%d cap=%d", b.Len(), b.Cap())
	}
	b.Reset()
	if b.Len() != 0 || b.Cap() < 100 {
		t.Fatalf("Reset: len=%d cap=%d", b.Len(), b.Cap())
	}
}

// collectBatched drains src and returns the concatenated events plus the
// sizes of the delivered batches.
func collectBatched(t testing.TB, src EventSource) ([]Event, []int) {
	t.Helper()
	var evs []Event
	var sizes []int
	if err := src.ScanBatches(func(b *Batch) error {
		sizes = append(sizes, b.Len())
		evs = b.AppendTo(evs)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return evs, sizes
}

// TestBatchAdapterRoundTrip is the Batch adapter property test: for
// trace sizes around the batch-size boundaries (including the empty
// trace and ragged final batches), the trace's events → batches → events
// must reproduce the event sequence exactly.
func TestBatchAdapterRoundTrip(t *testing.T) {
	sizes := []int{0, 1, 7, DefaultBatchSize - 1, DefaultBatchSize, DefaultBatchSize + 1, 3*DefaultBatchSize + 17}
	for _, n := range sizes {
		tr := randomTrace(t, n, 13, uint64(n)+1)
		got, batches := collectBatched(t, tr)
		if !reflect.DeepEqual(got, tr.Events) && !(n == 0 && len(got) == 0) {
			t.Fatalf("n=%d: batched events differ from source", n)
		}
		for i, sz := range batches {
			if sz == 0 {
				t.Fatalf("n=%d: empty batch delivered", n)
			}
			if i < len(batches)-1 && sz != DefaultBatchSize {
				t.Fatalf("n=%d: interior batch of size %d", n, sz)
			}
		}
		// And back: the batches through the unbatching adapter.
		var back []Event
		if err := tr.ScanBatches(Unbatch(func(e Event) error {
			back = append(back, e)
			return nil
		})); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tr.Events) && !(n == 0 && len(back) == 0) {
			t.Fatalf("n=%d: unbatched events differ from source", n)
		}
	}
}

func TestAsBatchSinkPrefersNative(t *testing.T) {
	tr := New()
	if _, ok := AsBatchSink(tr).(*Trace); !ok {
		t.Fatal("AsBatchSink did not return the native *Trace")
	}
}

// TestCopyBatchesMatchesCopy pins the byte-identity of a sink's two faces
// at the trace layer: CopyBatches into either writer produces the same
// bytes as its events written one Write at a time, for empty, ragged, and
// multi-batch traces.
func TestCopyBatchesMatchesCopy(t *testing.T) {
	for _, n := range []int{0, 3, DefaultBatchSize, 2*DefaultBatchSize + 9} {
		tr := randomTrace(t, n, 7, uint64(n)+3)
		for _, codec := range []string{"text", "binary"} {
			mk := func(w *bytes.Buffer) interface {
				EventSink
				Close() error
			} {
				if codec == "text" {
					return NewTextWriter(w)
				}
				return NewStreamWriter(w)
			}
			var perEvent, batched bytes.Buffer
			w1 := mk(&perEvent)
			if err := tr.Devices(w1.SetDevice); err != nil {
				t.Fatal(err)
			}
			for _, e := range tr.Events {
				if err := w1.Write(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w1.Close(); err != nil {
				t.Fatal(err)
			}
			w2 := mk(&batched)
			if err := CopyBatches(w2, tr); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(perEvent.Bytes(), batched.Bytes()) {
				t.Fatalf("n=%d %s: CopyBatches bytes differ from per-event Writes", n, codec)
			}
		}
	}
}

func TestTraceWriteBatchChecksRegistry(t *testing.T) {
	tr := New()
	if err := tr.SetDevice(1, cp.Phone); err != nil {
		t.Fatal(err)
	}
	b := NewBatch(0)
	b.Append(Event{T: 1, UE: 1, Type: cp.Attach})
	b.Append(Event{T: 2, UE: 9, Type: cp.Attach})
	if err := tr.WriteBatch(b); err == nil {
		t.Fatal("WriteBatch accepted an unregistered UE")
	}
	if len(tr.Events) != 0 {
		t.Fatalf("failed WriteBatch left %d events", len(tr.Events))
	}
}

// stutterIterator yields a fixed event sequence but only one event per
// NextRun call — the adversarial run boundary for MergeBatches.
type stutterIterator struct{ evs []Event }

func (s *stutterIterator) NextRun(dst []Event) int {
	if len(s.evs) == 0 || len(dst) == 0 {
		return 0
	}
	dst[0] = s.evs[0]
	s.evs = s.evs[1:]
	return 1
}

// TestMergeBatchesMatchesSort pins the loser-tree merge to a stable
// comparison sort of the union of its streams, for random run sets —
// every third round with one stream's events repeated in another, the
// tie only the iterator index breaks — and pins that run boundaries (down
// to one event per refill) cannot affect the output.
func TestMergeBatchesMatchesSort(t *testing.T) {
	r := stats.NewRNG(42)
	for round := 0; round < 30; round++ {
		k := r.Intn(40) // 0..39 streams
		runs := make([][]Event, k)
		for i := range runs {
			n := r.Intn(150)
			evs := make([]Event, n)
			for j := range evs {
				evs[j] = Event{
					T:    cp.Millis(r.Intn(5000)),
					UE:   cp.UEID(i),
					Type: cp.EventType(r.Intn(cp.NumEventTypes)),
				}
			}
			tmp := Trace{Events: evs}
			tmp.Sort()
			runs[i] = tmp.Events
		}
		if k >= 2 && round%3 == 0 {
			runs[k-1] = slices.Clone(runs[0]) // the identical events in two streams
		}
		var want []Event
		for i := range runs {
			want = append(want, runs[i]...)
		}
		slices.SortStableFunc(want, func(a, b Event) int {
			switch {
			case a.Before(b):
				return -1
			case b.Before(a):
				return 1
			}
			return 0
		})
		for name, mk := range map[string]func(i int) BatchIterator{
			"slice":   func(i int) BatchIterator { return &SliceIterator{Events: runs[i]} },
			"stutter": func(i int) BatchIterator { return &stutterIterator{evs: runs[i]} },
		} {
			bits := make([]BatchIterator, k)
			for i := range runs {
				bits[i] = mk(i)
			}
			var got []Event
			if err := MergeBatches(func(b *Batch) error {
				got = b.AppendTo(got)
				return nil
			}, bits); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d (%s): MergeBatches differs from the sorted union (k=%d, n=%d vs %d)",
					round, name, k, len(got), len(want))
			}
		}
	}
}

// TestMergeBatches carries what TestMergeScan asserted of the per-event
// merge: per-UE streams of a sorted trace merge back into exactly that
// trace, fn's error aborts the merge and is the error returned, and an
// empty iterator set — or one of exhausted iterators — delivers nothing.
func TestMergeBatches(t *testing.T) {
	tr := streamTrace(t, 9, 900, 7)
	// Split per-UE (each per-UE stream is individually ordered).
	per := tr.PerUE()
	var its []BatchIterator
	for _, ue := range tr.UEs() {
		its = append(its, &SliceIterator{Events: per[ue]})
	}
	var merged []Event
	if err := MergeBatches(func(b *Batch) error { merged = b.AppendTo(merged); return nil }, its); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(merged, tr.Events) {
		t.Fatalf("MergeBatches order mismatch: got %d events, want %d", len(merged), len(tr.Events))
	}

	boom := errors.New("boom")
	calls := 0
	err := MergeBatches(func(*Batch) error { calls++; return boom },
		[]BatchIterator{&SliceIterator{Events: tr.Events}})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("MergeBatches returned %v after %d calls, want fn's error after one", err, calls)
	}

	for _, its := range [][]BatchIterator{nil, {&SliceIterator{}, &SliceIterator{}}} {
		if err := MergeBatches(func(*Batch) error { t.Fatal("fn called for an empty merge"); return nil }, its); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSliceIteratorNextRun(t *testing.T) {
	evs := []Event{{T: 1}, {T: 2}, {T: 3}, {T: 4}, {T: 5}}
	it := &SliceIterator{Events: evs}
	buf := make([]Event, 2)
	var got []Event
	for {
		n := it.NextRun(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("NextRun sequence = %v", got)
	}
}

// TestScannerScanBatch pins that the batched decode yields exactly the
// per-event decode for both codecs, including ragged final batches.
func TestScannerScanBatch(t *testing.T) {
	tr := randomTrace(t, 2*DefaultBatchSize+37, 11, 99)
	dir := t.TempDir()
	for _, codec := range []string{"text", "binary"} {
		path := filepath.Join(dir, "trace."+codec)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		var w interface {
			EventSink
			Close() error
		}
		if codec == "text" {
			w = NewTextWriter(f)
		} else {
			w = NewStreamWriter(f)
		}
		if err := CopyBatches(w, tr); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()

		fs, err := NewFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		var perEvent []Event
		if err := fs.Scan(func(e Event) error {
			perEvent = append(perEvent, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		batched, _ := collectBatched(t, fs)
		if !reflect.DeepEqual(batched, perEvent) {
			t.Fatalf("%s: ScanBatches differs from Scan", codec)
		}
	}
}
