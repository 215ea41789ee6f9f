package core

import (
	"fmt"
	"strings"
	"testing"

	"cptraffic/internal/cp"
)

func TestDescribeRendersAllSections(t *testing.T) {
	ms := fitToy(t, 45, 2*cp.Hour, 95, FitOptions{})
	var sb strings.Builder
	if err := ms.Describe(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"method=ours", "machine=LTE-2LEVEL",
		"phone:", "car:", "tablet:",
		"global top level", "global bottom level",
		"--SRV_REQ-->", "first event",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDescribeBaseShowsFreeProcesses(t *testing.T) {
	tr := toyTrace(t, 45, 2*cp.Hour, 96)
	ms, err := Fit(tr, fitOptions("base"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := ms.Describe(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "free process") {
		t.Fatal("base description lacks free processes")
	}
	if strings.Contains(sb.String(), "bottom level") {
		t.Fatal("EMM-ECM description should have no bottom level")
	}
}

// TestModelStats holds Describe's numbers to the model: the model count,
// and per device the training UEs, personas and clusters per hour.
func TestModelStats(t *testing.T) {
	ms := fitToy(t, 45, 2*cp.Hour, 97, FitOptions{})
	var sb strings.Builder
	if err := ms.Describe(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if want := fmt.Sprintf("method=ours machine=LTE-2LEVEL models=%d\n", ms.NumModels()); !strings.Contains(out, want) {
		t.Fatalf("missing %q in:\n%s", want, out)
	}
	for _, d := range cp.DeviceTypes {
		at := strings.Index(out, "\n"+d.String()+": ")
		if at < 0 {
			t.Fatalf("no %v line in:\n%s", d, out)
		}
		var ues, personas int
		var share, perHour float64
		if _, err := fmt.Sscanf(out[at+1:], d.String()+": trained on %d UEs (share %f%%), %d personas, %f clusters/hour",
			&ues, &share, &personas, &perHour); err != nil {
			t.Fatalf("%v line: %v", d, err)
		}
		dm := ms.Device(d)
		if ues != 15 || ues != dm.TrainUEs || personas != len(dm.Personas) || personas == 0 || perHour <= 0 {
			t.Fatalf("%v: %d UEs, %d personas, %.1f clusters/hour; model has %d UEs, %d personas",
				d, ues, personas, perHour, dm.TrainUEs, len(dm.Personas))
		}
	}
}

func TestDescribeRejectsBadMachine(t *testing.T) {
	bad := &ModelSet{MachineName: "NOPE"}
	if err := bad.Describe(&strings.Builder{}); err == nil {
		t.Fatal("bad machine accepted")
	}
}
