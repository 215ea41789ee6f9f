package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cptraffic/internal/cp"
)

func mkTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New()
	if err := tr.SetDevice(1, cp.Phone); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetDevice(2, cp.ConnectedCar); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetDevice(3, cp.Tablet); err != nil {
		t.Fatal(err)
	}
	tr.Append(Event{T: 50, UE: 2, Type: cp.ServiceRequest})
	tr.Append(Event{T: 10, UE: 1, Type: cp.Attach})
	tr.Append(Event{T: 50, UE: 1, Type: cp.ServiceRequest})
	tr.Append(Event{T: cp.Hour + 5, UE: 3, Type: cp.Attach})
	return tr
}

func TestAppendUnknownUEPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append for unknown UE did not panic")
		}
	}()
	New().Append(Event{UE: 42})
}

func TestSetDeviceConflict(t *testing.T) {
	tr := New()
	if err := tr.SetDevice(1, cp.Phone); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetDevice(1, cp.Phone); err != nil {
		t.Fatalf("idempotent SetDevice failed: %v", err)
	}
	if err := tr.SetDevice(1, cp.Tablet); err == nil {
		t.Fatal("conflicting SetDevice succeeded")
	}
}

func TestSortAndSorted(t *testing.T) {
	tr := mkTrace(t)
	if tr.Sorted() {
		t.Fatal("trace should start unsorted")
	}
	tr.Sort()
	if !tr.Sorted() {
		t.Fatal("trace not sorted after Sort")
	}
	// Tie at T=50 must break by UE.
	if tr.Events[1].UE != 1 || tr.Events[2].UE != 2 {
		t.Fatalf("tie-break wrong: %v", tr.Events)
	}
}

func TestSpan(t *testing.T) {
	tr := mkTrace(t)
	lo, hi := tr.Span()
	if lo != 10 || hi != cp.Hour+6 {
		t.Fatalf("Span = (%d,%d), want (10,%d)", lo, hi, cp.Hour+6)
	}
	lo, hi = New().Span()
	if lo != 0 || hi != 0 {
		t.Fatalf("empty Span = (%d,%d)", lo, hi)
	}
}

func TestUEsAndUEsOfType(t *testing.T) {
	tr := mkTrace(t)
	if got := tr.UEs(); !reflect.DeepEqual(got, []cp.UEID{1, 2, 3}) {
		t.Fatalf("UEs = %v", got)
	}
	if got := tr.UEsOfType(cp.Phone); !reflect.DeepEqual(got, []cp.UEID{1}) {
		t.Fatalf("UEsOfType(Phone) = %v", got)
	}
	if got := tr.UEsOfType(cp.Tablet); !reflect.DeepEqual(got, []cp.UEID{3}) {
		t.Fatalf("UEsOfType(Tablet) = %v", got)
	}
}

func TestPerUE(t *testing.T) {
	tr := mkTrace(t)
	per := tr.PerUE()
	if len(per) != 3 {
		t.Fatalf("PerUE has %d keys, want 3", len(per))
	}
	if len(per[1]) != 2 || per[1][0].T != 10 || per[1][1].T != 50 {
		t.Fatalf("UE1 events = %v", per[1])
	}
	if len(per[2]) != 1 {
		t.Fatalf("UE2 events = %v", per[2])
	}
}

func TestPerUEIncludesSilentUEs(t *testing.T) {
	tr := New()
	if err := tr.SetDevice(7, cp.Phone); err != nil {
		t.Fatal(err)
	}
	per := tr.PerUE()
	if _, ok := per[7]; !ok {
		t.Fatal("silent UE missing from PerUE")
	}
}

func TestFilterDevice(t *testing.T) {
	tr := mkTrace(t)
	ph := tr.FilterDevice(cp.Phone)
	if ph.NumUEs() != 1 || ph.Len() != 2 {
		t.Fatalf("phone filter: %d UEs, %d events", ph.NumUEs(), ph.Len())
	}
	for _, e := range ph.Events {
		if e.UE != 1 {
			t.Fatalf("foreign event %v", e)
		}
	}
}

func TestSlice(t *testing.T) {
	tr := mkTrace(t)
	s := tr.Slice(10, 51)
	if s.Len() != 3 {
		t.Fatalf("Slice(10,51) has %d events, want 3", s.Len())
	}
	s = tr.Slice(11, 50)
	if s.Len() != 0 {
		t.Fatalf("Slice(11,50) has %d events, want 0", s.Len())
	}
	if s.NumUEs() != 3 {
		t.Fatal("Slice must keep device registrations")
	}
}

func TestHourSlices(t *testing.T) {
	tr := mkTrace(t)
	hs := tr.HourSlices(2)
	if len(hs) != 2 {
		t.Fatalf("got %d slices", len(hs))
	}
	if hs[0].Len() != 3 || hs[1].Len() != 1 {
		t.Fatalf("slice lens = %d,%d", hs[0].Len(), hs[1].Len())
	}
	if hs[1].Events[0].UE != 3 {
		t.Fatalf("hour 1 event = %v", hs[1].Events[0])
	}
	// Registrations propagate.
	if hs[1].NumUEs() != 3 {
		t.Fatal("hour slice lost registrations")
	}
	// Events beyond range are dropped.
	hs = tr.HourSlices(1)
	if hs[0].Len() != 3 {
		t.Fatalf("1-hour slicing kept %d events", hs[0].Len())
	}
}

func TestCountByType(t *testing.T) {
	tr := mkTrace(t)
	c := tr.CountByType()
	if c[cp.Attach] != 2 || c[cp.ServiceRequest] != 2 || c[cp.Detach] != 0 {
		t.Fatalf("CountByType = %v", c)
	}
}

func TestMerge(t *testing.T) {
	a := New()
	a.SetDevice(1, cp.Phone)
	a.Append(Event{T: 5, UE: 1, Type: cp.Attach})
	b := New()
	b.SetDevice(2, cp.Tablet)
	b.Append(Event{T: 1, UE: 2, Type: cp.Attach})

	m, err := Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || !m.Sorted() {
		t.Fatalf("merge result: %v", m.Events)
	}

	c := New()
	c.SetDevice(1, cp.Tablet) // conflicts with a
	if _, err := Merge(a, c); err == nil {
		t.Fatal("conflicting merge succeeded")
	}
}

func TestValidate(t *testing.T) {
	tr := mkTrace(t)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := mkTrace(t)
	bad.Events = append(bad.Events, Event{T: -1, UE: 1, Type: cp.Attach})
	if err := bad.Validate(); err == nil {
		t.Fatal("negative timestamp accepted")
	}
	bad2 := mkTrace(t)
	bad2.Events = append(bad2.Events, Event{T: 1, UE: 99, Type: cp.Attach})
	if err := bad2.Validate(); err == nil {
		t.Fatal("unregistered UE accepted")
	}
	bad3 := mkTrace(t)
	bad3.Events = append(bad3.Events, Event{T: 1, UE: 1, Type: cp.EventType(77)})
	if err := bad3.Validate(); err == nil {
		t.Fatal("invalid event type accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := mkTrace(t)
	tr.Sort()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("events differ:\n got %v\nwant %v", got.Events, tr.Events)
	}
	if !reflect.DeepEqual(got.Device, tr.Device) {
		t.Fatalf("devices differ: %v vs %v", got.Device, tr.Device)
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		nUE := int(n%20) + 1
		for i := 0; i < nUE; i++ {
			tr.SetDevice(cp.UEID(i), cp.DeviceTypes[rng.Intn(cp.NumDeviceTypes)])
		}
		for i := 0; i < int(n); i++ {
			tr.Append(Event{
				T:    cp.Millis(rng.Int63n(int64(cp.Week))),
				UE:   cp.UEID(rng.Intn(nUE)),
				Type: cp.EventTypes[rng.Intn(cp.NumEventTypes)],
			})
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, tr); err != nil {
			return false
		}
		got, err := ReadAuto(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Device, tr.Device) &&
			(len(got.Events) == 0 && len(tr.Events) == 0 ||
				reflect.DeepEqual(got.Events, tr.Events))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := []string{
		"",
		"# wrong header\n",
		headerLine + "\nX 1 2\n",
		headerLine + "\nU 1\n",
		headerLine + "\nU 1 toaster\n",
		headerLine + "\nU x phone\n",
		headerLine + "\nE 1 1 ATCH\n",            // unregistered UE
		headerLine + "\nU 1 phone\nE 1 1 NOPE\n", // bad type
		headerLine + "\nU 1 phone\nE z 1 ATCH\n", // bad time
		headerLine + "\nU 1 phone\nE 1 z ATCH\n", // bad ue
		headerLine + "\nU 1 phone\nE 1 1\n",      // short
		headerLine + "\nU 1 phone\nU 1 tablet\n", // conflict
	}
	for i, in := range cases {
		if _, err := ReadAuto(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: malformed input accepted: %q", i, in)
		}
	}
}

func TestReadTraceSkipsCommentsAndBlanks(t *testing.T) {
	in := headerLine + "\n\n# comment\nU 1 phone\n\nE 7 1 HO\n"
	tr, err := ReadAuto(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Events[0].Type != cp.Handover {
		t.Fatalf("parsed %v", tr.Events)
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: 12, UE: 3, Type: cp.Handover}
	if got := e.String(); got != "T=12 UE=3 HO" {
		t.Fatalf("String = %q", got)
	}
}
