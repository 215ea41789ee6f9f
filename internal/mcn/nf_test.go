package mcn

import (
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

func TestTransactionsMatrix(t *testing.T) {
	// Attach fans out to every function.
	tx := Transactions(cp.Attach)
	for n := 0; n < NumNFs; n++ {
		if tx[n] != 1 {
			t.Fatalf("ATCH at %v = %d, want 1", NF(n), tx[n])
		}
	}
	// TAU touches only the MME.
	tau := Transactions(cp.TrackingAreaUpdate)
	if tau[NFMME] != 1 {
		t.Fatal("TAU must hit MME")
	}
	for _, n := range []NF{NFHSS, NFSGW, NFPGW, NFPCRF} {
		if tau[n] != 0 {
			t.Fatalf("TAU must not hit %v", n)
		}
	}
	// Invalid events cost nothing.
	if Transactions(cp.EventType(99)) != [NumNFs]int{} {
		t.Fatal("invalid event has transactions")
	}
}

func TestNFNames(t *testing.T) {
	want := []string{"MME", "HSS", "SGW", "PGW", "PCRF"}
	for i, w := range want {
		if NF(i).String() != w {
			t.Fatalf("NF(%d) = %q", i, NF(i).String())
		}
	}
	if NF(77).String() == "" {
		t.Fatal("out-of-range NF name empty")
	}
}

func TestNFLoad(t *testing.T) {
	tr := trace.New()
	tr.SetDevice(1, cp.Phone)
	tr.Append(ev(0, 1, cp.Attach))
	tr.Append(ev(1, 1, cp.ServiceRequest))
	tr.Append(ev(2, 1, cp.TrackingAreaUpdate))
	rep, err := Provision(tr, evenCapacity(100))
	if err != nil {
		t.Fatal(err)
	}
	var load [NumNFs]int
	for n := range load {
		load[n] = rep.PerNF[n].Transactions
	}
	if load != [NumNFs]int{NFMME: 3, NFHSS: 1, NFSGW: 2, NFPGW: 1, NFPCRF: 1} {
		t.Fatalf("per-NF transactions = %v", load)
	}
}

func TestNFLoadSeries(t *testing.T) {
	tr := trace.New()
	tr.SetDevice(1, cp.Phone)
	tr.Append(ev(0.1, 1, cp.ServiceRequest))
	tr.Append(ev(1.5, 1, cp.Handover))
	tr.Append(ev(1.9, 1, cp.TrackingAreaUpdate))
	s := NFLoadSeries(tr, cp.Second)
	if len(s[NFMME]) != 2 || s[NFMME][0] != 1 || s[NFMME][1] != 2 {
		t.Fatalf("MME series = %v", s[NFMME])
	}
	if s[NFSGW][1] != 1 {
		t.Fatalf("SGW series = %v", s[NFSGW])
	}
	empty := NFLoadSeries(trace.New(), cp.Second)
	if empty[NFMME] != nil {
		t.Fatal("empty trace should give nil series")
	}
	zero := NFLoadSeries(tr, 0)
	if zero[NFMME] != nil {
		t.Fatal("zero bin should give nil series")
	}
}
