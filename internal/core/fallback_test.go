package core

import (
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
)

// mkDeviceModel builds a minimal DeviceModel with distinguishable
// parameters at each fallback level so lookups can be traced.
func mkDeviceModel() *DeviceModel {
	tp := func(mean float64) []TransitionParam {
		return []TransitionParam{{
			Event:   cp.ServiceRequest,
			P:       1,
			Sojourn: SojournModel{Kind: SojournConst, Value: mean},
		}}
	}
	clusterLevel := ClusterModel{
		Top:    make([]StateParam, cp.NumUEStates),
		Bottom: make([]StateParam, sm.LTE2Level().NumStates()),
	}
	clusterLevel.Top[cp.StateIdle].Out = tp(1)
	clusterLevel.Bottom[sm.LTESrvReqS].Out = []TransitionParam{{
		Event: cp.Handover, P: 1, Sojourn: SojournModel{Kind: SojournConst, Value: 1},
	}}

	hourAgg := ClusterModel{Top: make([]StateParam, cp.NumUEStates)}
	hourAgg.Top[cp.StateIdle].Out = tp(2)
	hourAgg.Top[cp.StateConnected].Out = []TransitionParam{{
		Event: cp.S1ConnRelease, P: 1, Sojourn: SojournModel{Kind: SojournConst, Value: 2},
	}}

	global := ClusterModel{Top: make([]StateParam, cp.NumUEStates)}
	global.Top[cp.StateIdle].Out = tp(3)
	global.Top[cp.StateConnected].Out = []TransitionParam{{
		Event: cp.S1ConnRelease, P: 1, Sojourn: SojournModel{Kind: SojournConst, Value: 3},
	}}
	global.Top[cp.StateDeregistered].Out = []TransitionParam{{
		Event: cp.Attach, P: 1, Sojourn: SojournModel{Kind: SojournConst, Value: 3},
	}}
	global.First = FirstEventModel{
		PNone:  0,
		Cats:   []FirstCat{{Event: cp.ServiceRequest, State: sm.LTESrvReqS, P: 1}},
		Offset: SojournModel{Kind: SojournConst, Value: 10},
	}

	dm := &DeviceModel{Hours: make([]HourModel, HoursPerDay), Global: &global}
	dm.Hours[0].Clusters = []ClusterModel{clusterLevel}
	agg := hourAgg
	dm.Hours[0].Aggregate = &agg
	dm.Personas = []Persona{{Cluster: make([]int, HoursPerDay), Weight: 1}}
	return dm
}

func TestTopParamsFallbackChain(t *testing.T) {
	dm := mkDeviceModel()
	// Cluster level wins when present.
	if got := dm.topParams(0, 0, cp.StateIdle); got[0].Sojourn.Value != 1 {
		t.Fatalf("cluster level not used: %v", got[0].Sojourn.Value)
	}
	// State absent at cluster level: hour aggregate.
	if got := dm.topParams(0, 0, cp.StateConnected); got[0].Sojourn.Value != 2 {
		t.Fatalf("hour aggregate not used: %v", got[0].Sojourn.Value)
	}
	// State absent at both: global.
	if got := dm.topParams(0, 0, cp.StateDeregistered); got[0].Sojourn.Value != 3 {
		t.Fatalf("global not used: %v", got[0].Sojourn.Value)
	}
	// Untrained hour: global.
	if got := dm.topParams(5, 0, cp.StateIdle); got[0].Sojourn.Value != 3 {
		t.Fatalf("global not used for untrained hour: %v", got[0].Sojourn.Value)
	}
	// Out-of-range hour and cluster fall through safely.
	if got := dm.topParams(-1, 99, cp.StateIdle); got[0].Sojourn.Value != 3 {
		t.Fatalf("out-of-range lookup: %v", got[0].Sojourn.Value)
	}
}

func TestBottomParamsFallbackChain(t *testing.T) {
	dm := mkDeviceModel()
	if sp := dm.bottomParams(0, 0, sm.LTESrvReqS); sp == nil || sp.Out[0].Event != cp.Handover {
		t.Fatal("cluster bottom not used")
	}
	// No bottom anywhere else.
	if sp := dm.bottomParams(0, 0, sm.LTETauSIdle); sp != nil {
		t.Fatalf("unexpected bottom params: %+v", sp)
	}
	if sp := dm.bottomParams(7, 0, sm.LTESrvReqS); sp != nil {
		t.Fatal("untrained hour should fall to global (which has no bottom)")
	}
}

func TestFirstEventFallback(t *testing.T) {
	dm := mkDeviceModel()
	// Hour 0 cluster/aggregate have no first-event model: global's wins.
	fe, ok := dm.firstEvent(0, 0)
	if !ok || fe.Offset.Value != 10 {
		t.Fatalf("first event fallback: %+v ok=%v", fe, ok)
	}
	if _, ok := (&DeviceModel{Hours: make([]HourModel, HoursPerDay)}).firstEvent(0, 0); ok {
		t.Fatal("empty model reported a first-event model")
	}
}

func TestPickPersonaEdge(t *testing.T) {
	dm := mkDeviceModel()
	r := stats.NewRNG(1)
	if idx := dm.pickPersona(r); idx != 0 {
		t.Fatalf("persona = %d", idx)
	}
	empty := &DeviceModel{}
	if idx := empty.pickPersona(r); idx != -1 {
		t.Fatalf("empty personas = %d", idx)
	}
}

func TestGenerateFromHandBuiltModel(t *testing.T) {
	// The tiny hand-built model must generate: SRV_REQ at offset 10 s,
	// then S1_CONN_REL after 2 s (hour aggregate), then SRV_REQ after
	// 1 s (cluster idle), cycling.
	ms := &ModelSet{
		MachineName: "LTE-2LEVEL",
		Method:      "hand",
		Devices:     make([]*DeviceModel, cp.NumDeviceTypes),
	}
	ms.Devices[cp.Phone] = mkDeviceModel()
	ms.Devices[cp.Phone].Share = 1
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err := Generate(ms, GenOptions{NumUEs: 3, Duration: cp.Minute, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic race: SRV_REQ at the 10 s offset enters CONNECTED;
	// the bottom HO (1 s) fires before the top S1_CONN_REL (2 s); the
	// sub-machine then sits in HO_S with no parameters until the top
	// release at 12 s; idle lasts 1 s (cluster model) and the cycle
	// repeats.
	per := tr.PerUE()
	for ue, evs := range per {
		if len(evs) < 4 {
			t.Fatalf("UE %d generated %d events", ue, len(evs))
		}
		want := []struct {
			e cp.EventType
			t cp.Millis
		}{
			{cp.ServiceRequest, 10 * cp.Second},
			{cp.Handover, 11 * cp.Second},
			{cp.S1ConnRelease, 12 * cp.Second},
			{cp.ServiceRequest, 13 * cp.Second},
		}
		for i, w := range want {
			if evs[i].Type != w.e || evs[i].T != w.t {
				t.Fatalf("UE %d event %d = %v, want %v@%d", ue, i, evs[i], w.e, w.t)
			}
		}
	}
}
