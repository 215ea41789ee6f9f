package cp

import (
	"testing"
	"testing/quick"
)

func TestMillisConstants(t *testing.T) {
	if Second != 1000 {
		t.Fatalf("Second = %d, want 1000", Second)
	}
	if Hour != 3_600_000 {
		t.Fatalf("Hour = %d, want 3600000", Hour)
	}
	if Day != 24*Hour || Week != 7*Day {
		t.Fatalf("Day/Week wrong: %d %d", Day, Week)
	}
}

func TestMillisSecondsRoundTrip(t *testing.T) {
	cases := []float64{0, 0.001, 1, 1.5, 59.999, 3600, -2.5}
	for _, s := range cases {
		m := MillisFromSeconds(s)
		if got := m.Seconds(); got != s {
			t.Errorf("round trip %v -> %d -> %v", s, m, got)
		}
	}
}

func TestMillisFromSecondsRounds(t *testing.T) {
	if got := MillisFromSeconds(0.0004); got != 0 {
		t.Errorf("0.0004s = %d ms, want 0", got)
	}
	if got := MillisFromSeconds(0.0006); got != 1 {
		t.Errorf("0.0006s = %d ms, want 1", got)
	}
	if got := MillisFromSeconds(-0.0006); got != -1 {
		t.Errorf("-0.0006s = %d ms, want -1", got)
	}
}

func TestHourOfDay(t *testing.T) {
	cases := []struct {
		m    Millis
		want int
	}{
		{0, 0},
		{Hour - 1, 0},
		{Hour, 1},
		{23 * Hour, 23},
		{Day, 0},
		{Day + 5*Hour + 30*Minute, 5},
		{Week + 13*Hour, 13},
	}
	for _, c := range cases {
		if got := c.m.HourOfDay(); got != c.want {
			t.Errorf("HourOfDay(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestHourIndex(t *testing.T) {
	cases := []struct {
		m    Millis
		want int
	}{
		{0, 0},
		{Hour - 1, 0},
		{Hour, 1},
		{Day, 24},
		{-1, -1},
		{-Hour, -1},
		{-Hour - 1, -2},
	}
	for _, c := range cases {
		if got := c.m.HourIndex(); got != c.want {
			t.Errorf("HourIndex(%d) = %d, want %d", c.m, got, c.want)
		}
	}
}

func TestHourOfDayMatchesHourIndexMod24(t *testing.T) {
	f := func(raw int64) bool {
		m := Millis(raw % int64(10*Week))
		if m < 0 {
			m = -m
		}
		return m.HourOfDay() == m.HourIndex()%24
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventTypeStringsRoundTrip(t *testing.T) {
	want := map[EventType]string{
		Attach:             "ATCH",
		Detach:             "DTCH",
		ServiceRequest:     "SRV_REQ",
		S1ConnRelease:      "S1_CONN_REL",
		Handover:           "HO",
		TrackingAreaUpdate: "TAU",
	}
	for e, name := range want {
		if e.String() != name {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), name)
		}
		parsed, err := ParseEventType(name)
		if err != nil || parsed != e {
			t.Errorf("ParseEventType(%q) = %v, %v; want %v", name, parsed, err, e)
		}
	}
	if _, err := ParseEventType("NOPE"); err == nil {
		t.Error("ParseEventType accepted garbage")
	}
}

func TestEventTypeValid(t *testing.T) {
	for _, e := range EventTypes {
		if !e.Valid() {
			t.Errorf("%v should be valid", e)
		}
	}
	if EventType(200).Valid() {
		t.Error("EventType(200) should be invalid")
	}
}

func TestFiveGNames(t *testing.T) {
	cases := []struct {
		e    EventType
		name string
		ok   bool
	}{
		{Attach, "REGISTER", true},
		{Detach, "DEREGISTER", true},
		{ServiceRequest, "SRV_REQ", true},
		{S1ConnRelease, "AN_REL", true},
		{Handover, "HO", true},
		{TrackingAreaUpdate, "-", false},
	}
	for _, c := range cases {
		name, ok := c.e.FiveGName()
		if name != c.name || ok != c.ok {
			t.Errorf("%v.FiveGName() = %q,%v; want %q,%v", c.e, name, ok, c.name, c.ok)
		}
	}
}

func TestDeviceTypeStringsRoundTrip(t *testing.T) {
	for _, d := range DeviceTypes {
		parsed, err := ParseDeviceType(d.String())
		if err != nil || parsed != d {
			t.Errorf("ParseDeviceType(%q) = %v, %v", d.String(), parsed, err)
		}
	}
	if _, err := ParseDeviceType("toaster"); err == nil {
		t.Error("ParseDeviceType accepted garbage")
	}
	if DeviceType(9).Valid() {
		t.Error("DeviceType(9) should be invalid")
	}
}

func TestUEStateNames(t *testing.T) {
	if StateDeregistered.String() != "DEREGISTERED" ||
		StateConnected.String() != "CONNECTED" ||
		StateIdle.String() != "IDLE" {
		t.Fatalf("unexpected state names: %v %v %v",
			StateDeregistered, StateConnected, StateIdle)
	}
	if StateDeregistered.Registered() {
		t.Error("DEREGISTERED must not report Registered")
	}
	if !StateConnected.Registered() || !StateIdle.Registered() {
		t.Error("CONNECTED and IDLE must report Registered")
	}
}
