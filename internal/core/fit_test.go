package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// The samples one UE's walk yields, in the fit's terms: sojourns under
// their entry hour (entryHour), the rest under the event's hour.
type topSample struct {
	Hour uint8
	Key  topKey
	Soj  float64
	Has  bool
}

type botSample struct {
	Hour uint8
	Key  botKey
	Soj  float64
	Has  bool
}

type censorSample struct {
	Hour uint8
	S    sm.State
	Dur  float64
}

type iaSample struct {
	Hour uint8
	E    cp.EventType
	IA   float64
}

type firstSample struct {
	Hour  uint8
	E     cp.EventType
	State sm.State // machine state right after the event
	Off   float64  // seconds within the hour
}

// ueData holds every sample one UE's walk yields, in walk order, for the
// extraction tests to inspect.
type ueData struct {
	UE         cp.UEID
	Counts     [HoursPerDay][cp.NumEventTypes]int
	Top        []topSample
	Bot        []botSample
	BotCensor  []censorSample
	Free       []iaSample
	First      []firstSample
	Violations int
}

// add files one event's move the way partialSink.fold does, into lists.
func (d *ueData) add(ev trace.Event, mv sm.Move) {
	h := uint8(ev.T.HourOfDay())
	d.Counts[h][ev.Type]++
	if mv.HasGap {
		d.Free = append(d.Free, iaSample{Hour: h, E: ev.Type, IA: mv.Gap.Seconds()})
	}
	switch mv.Exit {
	case sm.ExitTop:
		d.Top = append(d.Top, topSample{Hour: entryHour(h, mv.TopAt, mv.TopHas),
			Key: topKey{S: mv.Top, E: ev.Type}, Soj: (ev.T - mv.TopAt).Seconds(), Has: mv.TopHas})
		if mv.BotHas {
			d.BotCensor = append(d.BotCensor, censorSample{Hour: uint8(mv.BotAt.HourOfDay()),
				S: mv.Bottom, Dur: (ev.T - mv.BotAt).Seconds()})
		}
	case sm.ExitBottom:
		d.Bot = append(d.Bot, botSample{Hour: entryHour(h, mv.BotAt, mv.BotHas),
			Key: botKey{S: mv.Bottom, E: ev.Type}, Soj: (ev.T - mv.BotAt).Seconds(), Has: mv.BotHas})
	case sm.Stay:
		if mv.Violation {
			d.Violations++
		}
	}
	if mv.NewCell {
		d.First = append(d.First, firstSample{Hour: h, E: ev.Type, State: mv.State,
			Off: (ev.T - cp.Millis(ev.T.HourIndex())*cp.Hour).Seconds()})
	}
}

// extractUE walks one UE's time-ordered events through sm.Walk and
// collects every sample the fitting stage would see.
func extractUE(m *sm.Machine, ue cp.UEID, evs []trace.Event) *ueData {
	d := &ueData{UE: ue}
	w := sm.NewWalk(m)
	for _, ev := range evs {
		ready, _ := w.Push(ev)
		for _, r := range ready {
			d.add(r, w.Step(r))
		}
	}
	for _, r := range w.Finish() {
		d.add(r, w.Step(r))
	}
	return d
}

func mkEvents(ue cp.UEID, pairs ...interface{}) []trace.Event {
	var out []trace.Event
	for i := 0; i < len(pairs); i += 2 {
		out = append(out, trace.Event{
			T:    cp.MillisFromSeconds(pairs[i].(float64)),
			UE:   ue,
			Type: pairs[i+1].(cp.EventType),
		})
	}
	return out
}

func TestExtractUETopAndBottom(t *testing.T) {
	m := sm.LTE2Level()
	evs := mkEvents(1,
		10.0, cp.Attach, // top: DEREG -> CONN (no sojourn: entry unknown? entry known after infer... first event has Has=false)
		15.0, cp.Handover, // bottom: SRV_REQ_S -HO-> HO_S, soj 5
		18.0, cp.Handover, // bottom: HO_S self, soj 3
		40.0, cp.S1ConnRelease, // top: CONN -> IDLE, soj 30
		100.0, cp.TrackingAreaUpdate, // bottom: S1_REL_S_1 -TAU->, soj 60
		101.0, cp.S1ConnRelease, // bottom: TAU_S_IDLE -S1REL->, soj 1 (no macro change!)
		400.0, cp.ServiceRequest, // top: IDLE -> CONN, soj 360
	)
	d := extractUE(m, 1, evs)
	if d.Violations != 0 {
		t.Fatalf("violations = %d", d.Violations)
	}
	// Top samples: ATCH (no sojourn), S1REL(conn, 30), SRVREQ(idle, 360).
	if len(d.Top) != 3 {
		t.Fatalf("top samples = %+v", d.Top)
	}
	if d.Top[0].Has {
		t.Fatal("first top sample should have no sojourn")
	}
	if d.Top[1].Key != (topKey{S: cp.StateConnected, E: cp.S1ConnRelease}) || d.Top[1].Soj != 30 {
		t.Fatalf("top[1] = %+v", d.Top[1])
	}
	if d.Top[2].Key != (topKey{S: cp.StateIdle, E: cp.ServiceRequest}) || d.Top[2].Soj != 360 {
		t.Fatalf("top[2] = %+v", d.Top[2])
	}
	// Bottom: HO(5), HO(3), TAU(60), S1REL(1).
	if len(d.Bot) != 4 {
		t.Fatalf("bottom samples = %+v", d.Bot)
	}
	wantBot := []struct {
		k   botKey
		soj float64
	}{
		{botKey{S: sm.LTESrvReqS, E: cp.Handover}, 5},
		{botKey{S: sm.LTEHoS, E: cp.Handover}, 3},
		{botKey{S: sm.LTES1RelS1, E: cp.TrackingAreaUpdate}, 60},
		{botKey{S: sm.LTETauSIdle, E: cp.S1ConnRelease}, 1},
	}
	for i, w := range wantBot {
		if d.Bot[i].Key != w.k || d.Bot[i].Soj != w.soj || !d.Bot[i].Has {
			t.Fatalf("bot[%d] = %+v, want %+v", i, d.Bot[i], w)
		}
	}
	// Counts land in hour 0.
	if d.Counts[0][cp.Handover] != 2 || d.Counts[0][cp.ServiceRequest] != 1 {
		t.Fatalf("counts = %v", d.Counts[0])
	}
	// First sample: one cell (hour 0), ATCH at offset 10.
	if len(d.First) != 1 || d.First[0].E != cp.Attach || d.First[0].Off != 10 {
		t.Fatalf("first = %+v", d.First)
	}
}

func TestExtractUEFirstEventCarriesPostState(t *testing.T) {
	m := sm.LTE2Level()
	// An idle UE whose first event of the hour is a periodic TAU: the
	// category must record TAU_S_IDLE, not TAU_S_CONN.
	evs := mkEvents(1,
		100.0, cp.S1ConnRelease, // hour 0: first event, enters IDLE
		4000.0, cp.TrackingAreaUpdate, // hour 1: first event, idle TAU
		4001.0, cp.S1ConnRelease,
	)
	d := extractUE(m, 1, evs)
	if len(d.First) != 2 {
		t.Fatalf("first samples = %+v", d.First)
	}
	if d.First[0].State != sm.LTES1RelS1 {
		t.Fatalf("first[0] state = %v", d.First[0].State)
	}
	if d.First[1].E != cp.TrackingAreaUpdate || d.First[1].State != sm.LTETauSIdle {
		t.Fatalf("first[1] = %+v, want idle TAU in TAU_S_IDLE", d.First[1])
	}
	if d.First[1].Off != 400 {
		t.Fatalf("first[1] offset = %v, want 400", d.First[1].Off)
	}
}

func TestExtractUEFirstPerHourCell(t *testing.T) {
	m := sm.LTE2Level()
	evs := mkEvents(1,
		10.0, cp.Attach,
		3700.0, cp.S1ConnRelease, // hour 1
		90000.0, cp.ServiceRequest, // day 2, hour 1 (25h = 90000s)
	)
	d := extractUE(m, 1, evs)
	if len(d.First) != 3 {
		t.Fatalf("first samples = %+v", d.First)
	}
	if d.First[1].Hour != 1 || d.First[1].Off != 100 {
		t.Fatalf("first[1] = %+v", d.First[1])
	}
	if d.First[2].Hour != 1 || d.First[2].Off != 0 {
		t.Fatalf("first[2] = %+v", d.First[2])
	}
}

func TestExtractUEFreeInterArrivals(t *testing.T) {
	m := sm.EMMECM()
	evs := mkEvents(1,
		0.0, cp.Attach,
		10.0, cp.Handover,
		25.0, cp.Handover,
		30.0, cp.S1ConnRelease,
	)
	d := extractUE(m, 1, evs)
	var hoIA []float64
	for _, s := range d.Free {
		if s.E == cp.Handover {
			hoIA = append(hoIA, s.IA)
		}
	}
	if len(hoIA) != 1 || hoIA[0] != 15 {
		t.Fatalf("HO inter-arrivals = %v", hoIA)
	}
	// EMM-ECM has no sub-structure: Category-2 events are not violations.
	if d.Violations != 0 {
		t.Fatalf("violations = %d", d.Violations)
	}
}

func TestFitProducesValidModel(t *testing.T) {
	tr := toyTrace(t, 60, 3*cp.Hour, 2)
	ms, err := Fit(tr, FitOptions{Cluster: clusterOptSmall()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Validate(); err != nil {
		t.Fatal(err)
	}
	if ms.MachineName != "LTE-2LEVEL" || ms.Method != "ours" {
		t.Fatalf("ms = %+v", ms)
	}
	// All three device types trained.
	for _, d := range cp.DeviceTypes {
		dm := ms.Device(d)
		if dm == nil {
			t.Fatalf("device %v missing", d)
		}
		if dm.TrainUEs != 20 {
			t.Fatalf("device %v trained on %d UEs", d, dm.TrainUEs)
		}
		if math.Abs(dm.Share-1.0/3) > 1e-9 {
			t.Fatalf("share = %v", dm.Share)
		}
		if len(dm.Hours) != HoursPerDay {
			t.Fatalf("hours = %d", len(dm.Hours))
		}
		if dm.Global == nil {
			t.Fatal("global fallback missing")
		}
		// Persona weights sum to 1 (checked by Validate too).
		var w float64
		for _, p := range dm.Personas {
			w += p.Weight
		}
		if math.Abs(w-1) > 1e-9 {
			t.Fatalf("persona weights sum to %v", w)
		}
	}
	if ms.NumModels() == 0 {
		t.Fatal("no cluster models instantiated")
	}
}

func TestFitGlobalModelCoversActiveHours(t *testing.T) {
	tr := toyTrace(t, 30, 2*cp.Hour, 3)
	ms, err := Fit(tr, FitOptions{Cluster: clusterOptSmall()})
	if err != nil {
		t.Fatal(err)
	}
	dm := ms.Device(cp.Phone)
	// Hours 0 and 1 have data; hour 5 does not, so lookups there must
	// fall back to the global model.
	if got := dm.topParams(5, 0, cp.StateIdle); got == nil {
		t.Fatal("hour-5 lookup did not fall back to global")
	}
	// The global model knows IDLE -> SRV_REQ.
	found := false
	for _, tp := range dm.Global.Top[cp.StateIdle].Out {
		if tp.Event == cp.ServiceRequest {
			found = true
		}
	}
	if !found {
		t.Fatal("global model lacks IDLE->SRV_REQ")
	}
}

func TestFitBaseUsesFreeProcesses(t *testing.T) {
	tr := toyTrace(t, 45, 3*cp.Hour, 4)
	ms, err := Fit(tr, FitOptions{
		Machine:      sm.EMMECM(),
		SojournKind:  SojournExp,
		FreeEvents:   []cp.EventType{cp.Handover, cp.TrackingAreaUpdate},
		NoClustering: true,
		Method:       "base",
	})
	if err != nil {
		t.Fatal(err)
	}
	dm := ms.Device(cp.ConnectedCar)
	if dm == nil {
		t.Fatal("no car model")
	}
	// The global model must have HO and TAU free processes.
	if len(dm.Global.Free) == 0 {
		t.Fatal("no free processes in base model")
	}
	seen := map[cp.EventType]bool{}
	for _, fp := range dm.Global.Free {
		seen[fp.Event] = true
		if fp.Inter.Kind != SojournExp && fp.Inter.Kind != SojournConst {
			t.Fatalf("free process kind = %q", fp.Inter.Kind)
		}
	}
	if !seen[cp.Handover] {
		t.Fatal("HO free process missing")
	}
	// No bottom structure for EMM-ECM models.
	for h := range dm.Hours {
		for _, cm := range dm.Hours[h].Clusters {
			if cm.Bottom != nil {
				t.Fatal("EMM-ECM model has bottom structure")
			}
		}
	}
	// Exactly one cluster per hour (NoClustering).
	for h := range dm.Hours {
		if len(dm.Hours[h].Clusters) != 1 {
			t.Fatalf("hour %d has %d clusters", h, len(dm.Hours[h].Clusters))
		}
	}
}

// TestFitDeterministicAcrossWorkers requires the serialized model to be
// byte-identical regardless of the fitting worker count (the same
// discipline as TestGenerateDeterministicAcrossWorkers in
// internal/world): Workers only changes the wall clock.
func TestFitDeterministicAcrossWorkers(t *testing.T) {
	tr := toyTrace(t, 48, 3*cp.Hour, 7)
	fits := []FitOptions{
		{Cluster: clusterOptSmall()}, // "ours": two-level + quantile tables
		{Machine: sm.EMMECM(), SojournKind: SojournExp,
			FreeEvents:   []cp.EventType{cp.Handover, cp.TrackingAreaUpdate},
			NoClustering: true, Method: "base"}, // exercises CensoredExpMLE summation
	}
	for _, base := range fits {
		var want []byte
		for _, w := range []int{1, 2, 8} {
			opt := base
			opt.Workers = w
			ms, err := Fit(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ms.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
				continue
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Fatalf("method %q: model JSON differs between Workers=1 and Workers=%d (%d vs %d bytes)",
					base.Method, w, len(want), buf.Len())
			}
		}
	}
}

func TestFitEmptyTraceFails(t *testing.T) {
	if _, err := Fit(trace.New(), FitOptions{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	// Build on an empty partial is a validation failure, not a build: it
	// says so every time and leaves the partial usable.
	pf, err := NewPartialFit(FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := pf.Build(); err == nil || !strings.Contains(err.Error(), "empty trace") {
			t.Fatalf("Build %d on an empty partial: %v, want the empty-trace error", i+1, err)
		}
	}
	if err := pf.AddSource(toyTrace(t, 6, cp.Hour, 3)); err != nil {
		t.Fatalf("ingest after a refused Build: %v", err)
	}
	if _, err := pf.Build(); err != nil {
		t.Fatal(err)
	}
	// The other order: a Build that succeeded consumes the partial.
	if _, err := pf.Build(); err == nil || !strings.Contains(err.Error(), "already built") {
		t.Fatalf("second Build after a successful one: %v, want already built", err)
	}
}

func TestFitFirstEventModel(t *testing.T) {
	tr := toyTrace(t, 60, 2*cp.Hour, 5)
	ms, err := Fit(tr, FitOptions{Cluster: clusterOptSmall()})
	if err != nil {
		t.Fatal(err)
	}
	dm := ms.Device(cp.Phone)
	fe, ok := dm.firstEvent(0, 0)
	if !ok {
		t.Fatal("no first-event model for hour 0")
	}
	var sum float64
	for _, c := range fe.Cats {
		sum += c.P
		if int(c.State) >= sm.LTE2Level().NumStates() {
			t.Fatalf("category state out of range: %+v", c)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("first-event probs sum to %v", sum)
	}
	if fe.PNone < 0 || fe.PNone >= 1 {
		t.Fatalf("PNone = %v", fe.PNone)
	}
	if !fe.Offset.Valid() {
		t.Fatal("offset model invalid")
	}
}

// clusterOptSmall scales the paper's thresholds down to test populations.
func clusterOptSmall() cluster.Options {
	return cluster.Options{ThetaN: 8}
}

// TestFitRefusesInvalidEventType: an in-memory trace can hold an event
// type no trace decoder admits. The fit refuses it, naming the UE and
// the type, wherever it falls in the UE's walk — in the undecided prefix
// or after it.
func TestFitRefusesInvalidEventType(t *testing.T) {
	for name, first := range map[string]cp.EventType{"decided": cp.Attach, "undecided": cp.Handover} {
		tr := trace.New()
		if err := tr.SetDevice(3, cp.Phone); err != nil {
			t.Fatal(err)
		}
		tr.Append(trace.Event{T: 10, UE: 3, Type: first})
		tr.Append(trace.Event{T: 20, UE: 3, Type: cp.EventType(99)})
		if _, err := Fit(tr, FitOptions{}); err == nil || !strings.Contains(err.Error(), "invalid type 99 for UE 3") {
			t.Errorf("%s: Fit error %v, want one naming type 99 and UE 3", name, err)
		}
	}
}
