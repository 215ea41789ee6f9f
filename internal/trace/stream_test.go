package trace

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
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

func writeStream(t *testing.T, src EventSource) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewStreamWriter(&buf)
	if err := Copy(sw, src); err != nil {
		t.Fatalf("Copy into StreamWriter: %v", err)
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

// Version-1 files (count-prefixed, unchunked) must stay readable.
func TestScannerReadsV1(t *testing.T) {
	// Hand-encode a v1 file: 2 UEs, 3 events.
	v1 := []byte{'C', 'P', 'T', 'B', 1,
		2,                                           // numUEs
		5, byte(cp.Phone), 3, byte(cp.ConnectedCar), // UEs 5, 8
		3,                       // numEvents
		100, 5, byte(cp.Attach), // t=100
		50, 8, byte(cp.TrackingAreaUpdate), // t=150
		0, 5, byte(cp.ServiceRequest), // t=150
	}
	got := scanAll(t, v1)
	want := New()
	want.SetDevice(5, cp.Phone)
	want.SetDevice(8, cp.ConnectedCar)
	want.Append(Event{T: 100, UE: 5, Type: cp.Attach})
	want.Append(Event{T: 150, UE: 8, Type: cp.TrackingAreaUpdate})
	want.Append(Event{T: 150, UE: 5, Type: cp.ServiceRequest})
	if !reflect.DeepEqual(got.Events, want.Events) || !reflect.DeepEqual(got.Device, want.Device) {
		t.Fatalf("v1 decode mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if tr, err := ReadBinaryTrace(bytes.NewReader(v1)); err != nil || tr.Len() != 3 {
		t.Fatalf("ReadBinaryTrace on v1: %v (len %d)", err, tr.Len())
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

// TextWriter output matches WriteTrace for a canonical trace.
func TestTextWriterMatchesWriteTrace(t *testing.T) {
	tr := streamTrace(t, 5, 100, 4)
	var want bytes.Buffer
	if err := WriteTrace(&want, tr); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	tw := NewTextWriter(&got)
	if err := Copy(tw, tr); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("TextWriter and WriteTrace output differ")
	}
}

func TestStreamWriterRejectsBadInput(t *testing.T) {
	t.Run("out-of-order-events", func(t *testing.T) {
		sw := NewStreamWriter(&bytes.Buffer{})
		sw.SetDevice(1, cp.Phone)
		if err := sw.Write(Event{T: 100, UE: 1, Type: cp.Attach}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Write(Event{T: 50, UE: 1, Type: cp.Attach}); err == nil {
			t.Fatal("want error for out-of-order event")
		}
	})
	t.Run("unregistered-UE", func(t *testing.T) {
		sw := NewStreamWriter(&bytes.Buffer{})
		if err := sw.Write(Event{T: 0, UE: 9, Type: cp.Attach}); err == nil {
			t.Fatal("want error for unregistered UE")
		}
	})
	t.Run("negative-timestamp", func(t *testing.T) {
		sw := NewStreamWriter(&bytes.Buffer{})
		sw.SetDevice(1, cp.Phone)
		if err := sw.Write(Event{T: -5, UE: 1, Type: cp.Attach}); err == nil {
			t.Fatal("want error for negative timestamp")
		}
	})
	t.Run("register-after-write", func(t *testing.T) {
		sw := NewStreamWriter(&bytes.Buffer{})
		sw.SetDevice(1, cp.Phone)
		if err := sw.Write(Event{T: 0, UE: 1, Type: cp.Attach}); err != nil {
			t.Fatal(err)
		}
		if err := sw.SetDevice(2, cp.Phone); err == nil {
			t.Fatal("want error for late registration")
		}
	})
	t.Run("descending-registration", func(t *testing.T) {
		sw := NewStreamWriter(&bytes.Buffer{})
		sw.SetDevice(5, cp.Phone)
		if err := sw.SetDevice(3, cp.Phone); err == nil {
			t.Fatal("want error for descending UE registration")
		}
	})
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
	if err := unsorted.Scan(func(e Event) error { seen = append(seen, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i].Before(seen[j]) }) {
		t.Fatal("Scan of unsorted trace not in canonical order")
	}
	if unsorted.Events[0].T != 500 {
		t.Fatal("Scan mutated the unsorted trace")
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
