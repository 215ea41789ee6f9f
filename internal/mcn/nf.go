package mcn

import (
	"fmt"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// NF enumerates the EPC network functions of the control plane (paper
// §2.1). Each UE-facing control event fans out into transactions at a
// subset of them, following the standard EPS call flows — the per-NF
// load model of Dababneh et al. that the paper discusses as prior work.
type NF uint8

const (
	// MME is the Mobility Management Entity, the main signaling anchor.
	NFMME NF = iota
	// HSS is the Home Subscriber Server.
	NFHSS
	// SGW is the Serving Gateway (control part).
	NFSGW
	// PGW is the Packet Data Network Gateway (control part).
	NFPGW
	// PCRF is the Policy and Charging Rules Function.
	NFPCRF

	numNFs = iota
)

// NumNFs is the number of modeled network functions.
const NumNFs = int(numNFs)

var nfNames = [NumNFs]string{"MME", "HSS", "SGW", "PGW", "PCRF"}

// String returns the standard 3GPP abbreviation.
func (n NF) String() string {
	if int(n) < len(nfNames) {
		return nfNames[n]
	}
	return fmt.Sprintf("NF(%d)", uint8(n))
}

// transactionMatrix gives the number of control transactions each event
// type causes at each network function, per the EPS call flows:
//
//	ATCH    attach: MME processing, HSS update-location, session
//	        establishment through SGW/PGW, PCRF policy binding
//	DTCH    detach: the reverse teardown
//	SRV_REQ service request: MME + SGW modify-bearer
//	S1_REL  S1 release: MME + SGW release-access-bearers
//	HO      X2 handover with SGW path switch: MME + SGW
//	TAU     tracking area update without SGW change: MME only
var transactionMatrix = [cp.NumEventTypes][NumNFs]int{
	cp.Attach:             {NFMME: 1, NFHSS: 1, NFSGW: 1, NFPGW: 1, NFPCRF: 1},
	cp.Detach:             {NFMME: 1, NFHSS: 1, NFSGW: 1, NFPGW: 1, NFPCRF: 1},
	cp.ServiceRequest:     {NFMME: 1, NFSGW: 1},
	cp.S1ConnRelease:      {NFMME: 1, NFSGW: 1},
	cp.Handover:           {NFMME: 1, NFSGW: 1},
	cp.TrackingAreaUpdate: {NFMME: 1},
}

// Transactions returns the per-NF transaction counts of a single event.
func Transactions(e cp.EventType) [NumNFs]int {
	if !e.Valid() {
		return [NumNFs]int{}
	}
	return transactionMatrix[e]
}

// NFLoadSeries bins a trace's per-NF transactions into fixed windows,
// returning one series per network function.
func NFLoadSeries(tr *trace.Trace, bin cp.Millis) [NumNFs][]int {
	var out [NumNFs][]int
	if bin <= 0 || tr.Len() == 0 {
		return out
	}
	lo, hi := tr.Span()
	nBins := int((hi - lo + bin - 1) / bin)
	for n := 0; n < NumNFs; n++ {
		out[n] = make([]int, nBins)
	}
	for _, ev := range tr.Events {
		b := (ev.T - lo) / bin
		tx := Transactions(ev.Type)
		for n := 0; n < NumNFs; n++ {
			out[n][b] += tx[n]
		}
	}
	return out
}
