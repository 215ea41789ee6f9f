package core

import (
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// toyTrace synthesizes a protocol-conformant multi-UE trace by walking
// the LTE two-level machine directly with simple stochastic choices. It
// is correct by construction (only machine edges are taken), which makes
// it a clean fitting target for tests: any violation in a model-generated
// trace is then the model's fault.
func toyTrace(t testing.TB, nUEs int, dur cp.Millis, seed uint64) *trace.Trace {
	t.Helper()
	m := sm.LTE2Level()
	root := stats.NewRNG(seed)
	tr := trace.New()
	for i := 0; i < nUEs; i++ {
		ue := cp.UEID(i)
		var dev cp.DeviceType
		switch i % 3 {
		case 0:
			dev = cp.Phone
		case 1:
			dev = cp.ConnectedCar
		default:
			dev = cp.Tablet
		}
		if err := tr.SetDevice(ue, dev); err != nil {
			t.Fatal(err)
		}
		rv := root.SplitVal(uint64(i))
		r := &rv
		state := sm.LTEDeregistered
		// Stagger power-on within the first 10 minutes.
		now := cp.MillisFromSeconds(r.Float64() * 600)
		for now < dur {
			ev, next, wait := toyStep(m, state, dev, r)
			now += cp.MillisFromSeconds(wait)
			if now >= dur {
				break
			}
			tr.Append(trace.Event{T: now, UE: ue, Type: ev})
			state = next
		}
	}
	tr.Sort()
	return tr
}

// toyStep picks the next edge and sojourn from a state. Sojourns are
// lognormal (heavy-tailed, distinctly non-exponential) so the toy world
// also exercises the paper's "Poisson fails" findings at small scale.
func toyStep(m *sm.Machine, s sm.State, dev cp.DeviceType, r *stats.RNG) (cp.EventType, sm.State, float64) {
	mobility := 1.0
	if dev == cp.ConnectedCar {
		mobility = 4.0
	}
	type choice struct {
		ev   cp.EventType
		w    float64
		wait float64
	}
	var cs []choice
	switch s {
	case sm.LTEDeregistered:
		cs = []choice{{cp.Attach, 1, r.Lognormal(5.5, 1.0)}}
	case sm.LTESrvReqS, sm.LTEHoS, sm.LTETauSConn:
		cs = []choice{
			{cp.S1ConnRelease, 10, r.Lognormal(2.5, 1.2)},
			{cp.Handover, 1.5 * mobility, r.Lognormal(2.0, 0.8)},
			{cp.TrackingAreaUpdate, 0.5 * mobility, r.Lognormal(3.0, 0.7)},
			{cp.Detach, 0.05, r.Lognormal(4.0, 0.5)},
		}
	case sm.LTES1RelS1, sm.LTES1RelS2:
		cs = []choice{
			{cp.ServiceRequest, 10, r.Lognormal(3.5, 1.5)},
			{cp.TrackingAreaUpdate, 0.7 * mobility, r.Lognormal(5.0, 0.8)},
			{cp.Detach, 0.05, r.Lognormal(5.0, 0.5)},
		}
	case sm.LTETauSIdle:
		cs = []choice{{cp.S1ConnRelease, 1, r.Lognormal(0.0, 0.5)}}
	}
	// Keep only choices that are actual machine edges from s.
	valid := cs[:0]
	for _, c := range cs {
		if _, ok := m.Next(s, c.ev); ok {
			valid = append(valid, c)
		}
	}
	var totalW float64
	for _, c := range valid {
		totalW += c.w
	}
	u := r.Float64() * totalW
	var acc float64
	pick := valid[len(valid)-1]
	for _, c := range valid {
		acc += c.w
		if u < acc+1e-12 {
			pick = c
			break
		}
	}
	next, _ := m.Next(s, pick.ev)
	return pick.ev, next, pick.wait
}

func TestToyTraceIsConformant(t *testing.T) {
	tr := toyTrace(t, 30, 2*cp.Hour, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	m := sm.LTE2Level()
	per := tr.PerUE()
	for ue, evs := range per {
		res := sm.Replay(m, sm.InferInitial(m, evs), evs)
		if res.Violations != 0 {
			t.Fatalf("UE %d: %d violations in toy trace", ue, res.Violations)
		}
	}
	if tr.Len() == 0 {
		t.Fatal("toy trace is empty")
	}
}
