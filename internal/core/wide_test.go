package core

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// pinnedWideDigests are sha256 digests of ModelSet.Save for the two
// inputs whose samples do not fit Build's 4-byte lists, keyed
// "input/method/sketchK". They were recorded before Build's lists held
// milliseconds, when every sample was a float64 of seconds, so they hold
// the int64 lists to the float pipeline on exactly the values the
// uint32 lists cannot take:
//
//   - "silent": toyTrace(30 UEs, 6 h, seed 11) plus a phone that falls
//     silent in IDLE for 50 days, an IDLE sojourn of 2^32 ms and more;
//   - "outoforder": the events of TestSketchedLogsMatchExact, fed one by
//     one, whose out-of-order event gives a negative sojourn.
var pinnedWideDigests = map[string]string{
	"silent/ours/0":       "928315ea441537f24c23bf18bd0bcb30f9d9450ddcc83003fc718098ca281b98",
	"silent/ours/256":     "c600213ebed917b250bdad99738b77fcac0c4da2f17f0edbba405e28e835b76b",
	"silent/v2/0":         "40adbea58d8b431680d8320ab3636716b7b46aa1975a92208e62296be5f79340",
	"silent/base/0":       "91d2d98641dba450f210beaee3fd1b2fdadda9704acd2b6655e9190f80a9f4cd",
	"outoforder/ours/0":   "b830a58650e85d72e61e87a2c957e7a6bab0b754606ca0fc05457fe6dbcc0824",
	"outoforder/ours/256": "b830a58650e85d72e61e87a2c957e7a6bab0b754606ca0fc05457fe6dbcc0824",
	"outoforder/v2/0":     "67904779dc457ec5d4b647d3954b20406bda38a5c989f11caa6613c2b5229fea",
	"outoforder/base/0":   "1810953448717edb2f76267736f358df656c703573cf9061f4d00e022cf88474",
}

// silentTrace is pinnedWideDigests' "silent" input.
func silentTrace(t *testing.T) *trace.Trace {
	tr := toyTrace(t, 30, 6*cp.Hour, 11)
	const ue = 1000
	if err := tr.SetDevice(ue, cp.Phone); err != nil {
		t.Fatal(err)
	}
	back := 3*cp.Minute + 50*cp.Day
	for _, e := range []trace.Event{
		{T: cp.Minute, UE: ue, Type: cp.Attach},
		{T: 2 * cp.Minute, UE: ue, Type: cp.S1ConnRelease},
		{T: back, UE: ue, Type: cp.ServiceRequest},
		{T: back + cp.Minute, UE: ue, Type: cp.S1ConnRelease},
		{T: back + 2*cp.Minute, UE: ue, Type: cp.ServiceRequest},
	} {
		tr.Append(e)
	}
	tr.Sort()
	return tr
}

// outOfOrderEvents is pinnedWideDigests' "outoforder" input, the events
// of TestSketchedLogsMatchExact.
var outOfOrderEvents = []trace.Event{
	{T: 10, UE: 1, Type: cp.Attach},
	{T: 20, UE: 2, Type: cp.Attach},
	{T: 900, UE: 1, Type: cp.ServiceRequest},
	{T: 2500, UE: 1, Type: cp.S1ConnRelease},
	{T: 1500, UE: 1, Type: cp.ServiceRequest}, // before UE 1's last event
	{T: 3000, UE: 2, Type: cp.TrackingAreaUpdate},
	{T: 3100, UE: 1, Type: cp.S1ConnRelease},
	{T: 2 * cp.Hour, UE: 1, Type: cp.ServiceRequest},
}

// TestWideSamplesDigestPinned fits both inputs of pinnedWideDigests with
// three methods, exact and (for ours) sketched, and requires the pinned
// model bytes.
func TestWideSamplesDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64, running on %s", runtime.GOARCH)
	}
	silent := silentTrace(t)
	for key, want := range pinnedWideDigests {
		parts := strings.Split(key, "/")
		input := parts[0]
		opt := fitOptions(parts[1])
		if parts[2] == "256" {
			opt.SketchK = 256
		}
		pf, err := NewPartialFit(opt)
		if err != nil {
			t.Fatal(err)
		}
		if input == "silent" {
			err = pf.AddSource(silent)
		} else {
			pf.register(1, cp.Phone)
			pf.register(2, cp.Phone)
			for _, e := range outOfOrderEvents {
				if err = pf.AddEvent(e); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if opt.SketchK == 0 && !holdsWide(pf) {
			t.Fatalf("%s: every sample lies in [0, 2^32) ms — the input no longer reaches the wide lists", key)
		}
		ms, err := pf.Build()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := ms.Save(h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s: model digest %s, pinned %s", key, got, want)
		}
	}
}

// holdsWide reports whether an exact partial logged a sample outside
// [0, 2^32) ms: one that Build's uint32 lists cannot hold.
func holdsWide(pf *PartialFit) bool {
	for _, s := range pf.exts {
		wide := false
		s.eachSample(func(_ int, _, _ byte, ms uint64) { wide = wide || ms >= 1<<32 })
		if wide {
			return true
		}
	}
	return false
}
