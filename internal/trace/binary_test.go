package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cptraffic/internal/cp"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := mkTrace(t)
	tr.Sort()
	var buf bytes.Buffer
	if err := WriteBinaryTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) || !reflect.DeepEqual(got.Device, tr.Device) {
		t.Fatalf("round trip mismatch")
	}
}

func TestBinarySortsUnsortedInput(t *testing.T) {
	tr := mkTrace(t) // intentionally unsorted
	var buf bytes.Buffer
	if err := WriteBinaryTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sorted() {
		t.Fatal("binary output not sorted")
	}
	if got.Len() != tr.Len() {
		t.Fatalf("lost events: %d vs %d", got.Len(), tr.Len())
	}
	// The writer must not have mutated the caller's trace.
	if tr.Sorted() {
		t.Fatal("writer sorted the caller's events in place")
	}
}

func TestBinaryRejectsNegativeTimestamps(t *testing.T) {
	tr := New()
	tr.SetDevice(1, cp.Phone)
	tr.Events = append(tr.Events, Event{T: -5, UE: 1, Type: cp.Attach})
	if err := WriteBinaryTrace(&bytes.Buffer{}, tr); err == nil {
		t.Fatal("negative timestamp encoded")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		nUE := int(n%15) + 1
		for i := 0; i < nUE; i++ {
			// Sparse, out-of-order ids exercise the delta encoding.
			tr.SetDevice(cp.UEID(i*i*7), cp.DeviceTypes[rng.Intn(cp.NumDeviceTypes)])
		}
		ues := tr.UEs()
		for i := 0; i < int(n); i++ {
			tr.Append(Event{
				T:    cp.Millis(rng.Int63n(int64(cp.Week))),
				UE:   ues[rng.Intn(len(ues))],
				Type: cp.EventTypes[rng.Intn(cp.NumEventTypes)],
			})
		}
		tr.Sort()
		var buf bytes.Buffer
		if err := WriteBinaryTrace(&buf, tr); err != nil {
			return false
		}
		got, err := ReadAuto(&buf)
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(got.Device, tr.Device) {
			return false
		}
		return len(got.Events) == len(tr.Events) &&
			(len(tr.Events) == 0 || reflect.DeepEqual(got.Events, tr.Events))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBinaryErrors(t *testing.T) {
	cases := [][]byte{
		{},
		[]byte("CPTX\x01"),                       // bad magic
		[]byte("CPTB\x09"),                       // bad version
		[]byte("CPTB\x02\x01"),                   // truncated UE table
		append([]byte("CPTB\x02\x01\x00"), 0xFF), // device byte invalid... (0x00 device ok, chunk length 0xFF varint truncated)
	}
	for i, in := range cases {
		if _, err := ReadAuto(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed binary accepted", i)
		}
	}
	// Invalid device byte.
	bad := []byte("CPTB\x02\x01\x00\x63") // 1 UE, id 0, device 99
	if _, err := ReadAuto(bytes.NewReader(bad)); err == nil {
		t.Error("invalid device accepted")
	}
	// An event record's UE id is a 64-bit varint; one beyond the 32-bit id
	// space is refused, not folded onto the registered UE 5.
	if tr, err := ReadAuto(bytes.NewReader(oneEventFile(5))); err != nil || tr.Len() != 1 {
		t.Fatalf("the reference file with UE 5 does not read: %v", err)
	}
	tr, err := ReadAuto(bytes.NewReader(oneEventFile(1<<32 + 5)))
	if err == nil || !strings.Contains(err.Error(), "UE id 4294967301 overflows") {
		t.Errorf("event for UE 2^32+5 read as (%v, %v), want the overflow error", tr, err)
	}
}

// oneEventFile hand-encodes a binary file that registers UE 5 and holds
// one event, at t=100, for ue.
func oneEventFile(ue uint64) []byte {
	out := append([]byte("CPTB"), binaryVersion, 1, 5, byte(cp.Phone))
	out = append(out, 1, 100) // the chunk length, then the time
	out = binary.AppendUvarint(out, ue)
	return append(out, byte(cp.Attach), 0) // the type, then the terminator
}

func TestReadAutoDetectsBothFormats(t *testing.T) {
	tr := mkTrace(t)
	tr.Sort()

	var text bytes.Buffer
	if err := WriteTrace(&text, tr); err != nil {
		t.Fatal(err)
	}
	fromText, err := ReadAuto(&text)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromText.Events, tr.Events) {
		t.Fatal("auto text mismatch")
	}

	var bin bytes.Buffer
	if err := WriteBinaryTrace(&bin, tr); err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadAuto(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromBin.Events, tr.Events) {
		t.Fatal("auto binary mismatch")
	}

	if _, err := ReadAuto(bytes.NewReader([]byte("CPTB\x07rest"))); err == nil {
		t.Fatal("bad version accepted by auto reader")
	}
	if _, err := ReadAuto(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestBinaryIsSmallerThanText(t *testing.T) {
	// Build a moderately sized trace.
	tr := New()
	for i := 0; i < 50; i++ {
		tr.SetDevice(cp.UEID(i), cp.Phone)
	}
	for i := 0; i < 5000; i++ {
		tr.Append(Event{T: cp.Millis(i * 720), UE: cp.UEID(i % 50), Type: cp.EventTypes[i%cp.NumEventTypes]})
	}
	var text, bin bytes.Buffer
	if err := WriteTrace(&text, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryTrace(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*3 > text.Len() {
		t.Fatalf("binary (%d B) not at least 3x smaller than text (%d B)", bin.Len(), text.Len())
	}
}
