package cptraffic_test

import (
	"bytes"
	"testing"

	cptraffic "cptraffic"
)

// TestFacadeEndToEnd exercises the public API surface the README
// advertises: world -> fit -> save/load -> generate -> 5G adapt.
func TestFacadeEndToEnd(t *testing.T) {
	tr, err := cptraffic.SimulateWorld(cptraffic.WorldOptions{
		NumUEs: 150, Duration: 3 * cptraffic.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty world")
	}

	var buf bytes.Buffer
	if err := cptraffic.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := cptraffic.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip lost events: %d vs %d", back.Len(), tr.Len())
	}

	if got := cptraffic.Methods(); len(got) != 4 {
		t.Fatalf("Methods() = %v", got)
	}
	model, err := cptraffic.FitModel(tr, "ours", cptraffic.ClusterOptions{ThetaN: 25})
	if err != nil {
		t.Fatal(err)
	}

	buf.Reset()
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := cptraffic.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}

	syn, err := cptraffic.GenerateTraffic(loaded, cptraffic.GenOptions{
		NumUEs: 300, StartHour: 1, Duration: cptraffic.Hour, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if syn.NumUEs() != 300 {
		t.Fatalf("NumUEs = %d", syn.NumUEs())
	}

	sa, err := cptraffic.AdaptToSA(model, cptraffic.SAHandoverFactor)
	if err != nil {
		t.Fatal(err)
	}
	saTr, err := cptraffic.GenerateTraffic(sa, cptraffic.GenOptions{
		NumUEs: 100, StartHour: 1, Duration: cptraffic.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := saTr.CountByType(); c[cptraffic.TrackingAreaUpdate] != 0 {
		t.Fatal("5G SA emitted TAU")
	}
}

func TestFacadeRejectsUnknownMethod(t *testing.T) {
	tr, err := cptraffic.SimulateWorld(cptraffic.WorldOptions{
		NumUEs: 10, Duration: cptraffic.Hour, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cptraffic.FitModel(tr, "nope", cptraffic.ClusterOptions{}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestFacadeStreamingEndToEnd is the streaming twin of the end-to-end
// test: world source -> streamed fit -> generator source -> streamed
// write, each stage checked against its materializing counterpart.
func TestFacadeStreamingEndToEnd(t *testing.T) {
	wopt := cptraffic.WorldOptions{NumUEs: 120, Duration: 3 * cptraffic.Hour, Seed: 4}
	tr, err := cptraffic.SimulateWorld(wopt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := cptraffic.WorldSource(wopt)
	if err != nil {
		t.Fatal(err)
	}
	collected, err := cptraffic.CollectTrace(src)
	if err != nil {
		t.Fatal(err)
	}
	if collected.Len() != tr.Len() {
		t.Fatalf("world source produced %d events, batch %d", collected.Len(), tr.Len())
	}

	co := cptraffic.ClusterOptions{ThetaN: 25}
	want, err := cptraffic.FitModel(tr, "ours", co)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cptraffic.Fit(src, cptraffic.FitOptions{Cluster: co})
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf, gotBuf bytes.Buffer
	if err := want.Save(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatal("Fit(WorldSource) differs from FitModel(SimulateWorld)")
	}

	gopt := cptraffic.GenOptions{NumUEs: 200, StartHour: 1, Duration: cptraffic.Hour, Seed: 5}
	syn, err := cptraffic.GenerateTraffic(got, gopt)
	if err != nil {
		t.Fatal(err)
	}
	gsrc, err := cptraffic.TrafficSource(got, gopt)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := cptraffic.CollectTrace(gsrc)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Len() != syn.Len() || streamed.NumUEs() != syn.NumUEs() {
		t.Fatalf("TrafficSource: %d events / %d UEs, batch %d / %d",
			streamed.Len(), streamed.NumUEs(), syn.Len(), syn.NumUEs())
	}

	sink := cptraffic.NewTrace()
	if err := cptraffic.GenerateTo(got, gopt, sink); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != syn.Len() {
		t.Fatalf("GenerateTo wrote %d events, batch %d", sink.Len(), syn.Len())
	}
}
