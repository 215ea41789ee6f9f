package trace

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"cptraffic/internal/cp"
)

// drainScanner decodes data through the per-event or the batched face of
// the Scanner, returning what it delivered before the end or the error.
func drainScanner(data []byte, batched bool) ([]Event, error) {
	sc, err := NewScanner(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var evs []Event
	if batched {
		for b := NewBatch(7); sc.ScanBatch(b); { // ragged: many batch boundaries
			evs = b.AppendTo(evs)
		}
	} else {
		for sc.Scan() {
			evs = append(evs, sc.Event())
		}
	}
	return evs, sc.Err()
}

// fuzzReader is the body of both trace fuzz targets, over the one reader:
// arbitrary input never panics it; its two faces deliver the same events
// and the same error; and a trace it accepts, once sorted, is accepted by
// both writers and reads back equal.
func fuzzReader(t *testing.T, data []byte) {
	evs, err := drainScanner(data, false)
	bevs, berr := drainScanner(data, true)
	if !slices.Equal(evs, bevs) || (err == nil) != (berr == nil) || (err != nil && err.Error() != berr.Error()) {
		t.Fatalf("Scan delivered %d events and %v, ScanBatch %d events and %v", len(evs), err, len(bevs), berr)
	}
	tr, rerr := ReadAuto(bytes.NewReader(data))
	if (rerr == nil) != (err == nil) {
		t.Fatalf("ReadAuto returned %v, a Scanner drain %v", rerr, err)
	}
	if err != nil {
		return
	}
	if !slices.Equal(tr.Events, evs) {
		t.Fatalf("ReadAuto collected %d events, a Scanner drain %d", tr.Len(), len(evs))
	}
	tr.Sort()
	for _, wr := range incrementalWriters {
		var buf bytes.Buffer
		w := wr.new(&buf)
		if err := CopyBatches(w, tr); err != nil {
			t.Fatalf("%s refuses an accepted, sorted trace: %v", wr.name, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAuto(&buf)
		if err != nil {
			t.Fatalf("%s output failed to parse: %v", wr.name, err)
		}
		if !reflect.DeepEqual(back.Device, tr.Device) || !slices.Equal(back.Events, tr.Events) {
			t.Fatalf("round trip through %s changed the trace: %d events of %d UEs -> %d of %d",
				wr.name, tr.Len(), tr.NumUEs(), back.Len(), back.NumUEs())
		}
	}
}

// FuzzReadTrace seeds the reader with text inputs.
func FuzzReadTrace(f *testing.F) {
	f.Add([]byte(headerLine + "\nU 1 phone\nE 5 1 ATCH\n"))
	f.Add([]byte(headerLine + "\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte(headerLine + "\nU 1 car\nU 2 tablet\nE 1 2 HO\nE 2 1 TAU\n"))
	f.Add([]byte(headerLine + "\nU 1 car\nE 1 1 HO\nU 2 tablet\nE 2 2 TAU\n")) // U after E
	f.Fuzz(fuzzReader)
}

// FuzzReadBinaryTrace seeds the reader with binary inputs.
func FuzzReadBinaryTrace(f *testing.F) {
	// Seed with a few real encodings.
	mk := func(build func(tr *Trace)) []byte {
		tr := New()
		build(tr)
		var buf bytes.Buffer
		if err := WriteBinaryTrace(&buf, tr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(mk(func(tr *Trace) {}))
	f.Add(mk(func(tr *Trace) {
		tr.SetDevice(3, cp.Phone)
		tr.Append(Event{T: 10, UE: 3, Type: cp.Attach})
		tr.Append(Event{T: 20, UE: 3, Type: cp.Detach})
	}))
	f.Add([]byte("CPTB\x01"))
	f.Add([]byte("CPTB\x02")) // cut after the version byte
	f.Add([]byte("CPTB\xff"))
	multi := New()
	multi.SetDevice(2, cp.Tablet)
	multi.SetDevice(900, cp.ConnectedCar)
	for i := 0; i < 2*streamChunkSize+3; i++ {
		multi.Append(Event{T: cp.Millis(i * 130), UE: cp.UEID(2 + 898*(i%2)), Type: cp.EventTypes[i%cp.NumEventTypes]})
	}
	f.Add(writeStream(f, multi))                                 // several chunks
	f.Add(append(oneEventFile(5), 1, 50, 5, byte(cp.Detach), 0)) // a chunk behind the terminator, refused
	multi.Events = multi.Events[:9]
	f.Add(encodeV1(multi)) // version 1, refused
	// An event record whose UE id does not fit 32 bits.
	f.Add(oneEventFile(1<<32 + 5))
	f.Fuzz(fuzzReader)
}
