// Package fiveg adapts a fitted LTE model to NextG networks (paper §6).
//
// 5G NSA (non-standalone) runs on LTE's core, so it keeps the LTE
// two-level machine and event vocabulary; only event frequencies change —
// most prominently handovers, which the paper scales by 4.6x following
// the mmWave measurement study it cites. 5G SA (standalone) uses the
// adjusted machine of Fig. 6: the one-to-one event mapping of Table 2
// applies (ATCH=REGISTER, DTCH=DEREGISTER, S1_CONN_REL=AN_REL) and TAU
// disappears; the paper's controlled experiment put SA handover scaling
// at 3.0x.
//
// Scaling is a first-order hazard transform: the weight of every HO
// outcome (bottom-level transitions, free processes, first events) is
// multiplied by the factor before renormalizing against the other
// outcomes and the KM tail mass, HO delays shrink by the same factor,
// and state-level delay marginals shrink in proportion to the total
// firing-hazard increase.
package fiveg

import (
	"bytes"
	"fmt"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
)

// Paper-derived handover scaling factors.
const (
	// NSAHandoverFactor is the 4.6x increase in HO events measured when
	// UEs move from LTE to 5G mmWave NSA.
	NSAHandoverFactor = 4.6
	// SAHandoverFactor is the 3.0x factor from the paper's controlled
	// LTE-vs-mmWave walking/driving experiment.
	SAHandoverFactor = 3.0
)

// ToNSA derives a 5G NSA model from a fitted LTE two-level model: the
// machine and event set are unchanged (NSA runs on the LTE core), with
// handover frequency scaled by hoFactor (use NSAHandoverFactor for the
// paper's setting).
func ToNSA(ms *core.ModelSet, hoFactor float64) (*core.ModelSet, error) {
	if ms.MachineName != sm.LTE2Level().Name {
		return nil, fmt.Errorf("fiveg: NSA adaptation needs an LTE two-level model, got %s", ms.MachineName)
	}
	out, err := clone(ms)
	if err != nil {
		return nil, err
	}
	out.Method = ms.Method + "+5g-nsa"
	forEachCluster(out, func(cm *core.ClusterModel) {
		scaleEvent(cm, cp.Handover, hoFactor)
	})
	return out, out.Validate()
}

// ToSA derives a 5G SA model: the machine becomes the adjusted Fig. 6
// machine, TAU and its states are removed, and handover frequency is
// scaled by hoFactor (use SAHandoverFactor for the paper's setting).
func ToSA(ms *core.ModelSet, hoFactor float64) (*core.ModelSet, error) {
	if ms.MachineName != sm.LTE2Level().Name {
		return nil, fmt.Errorf("fiveg: SA adaptation needs an LTE two-level model, got %s", ms.MachineName)
	}
	out, err := clone(ms)
	if err != nil {
		return nil, err
	}
	out.MachineName = sm.FiveGSA().Name
	out.Method = ms.Method + "+5g-sa"
	forEachCluster(out, func(cm *core.ClusterModel) {
		dropEvent(cm, cp.TrackingAreaUpdate)
		remapBottomToSA(cm)
		scaleEvent(cm, cp.Handover, hoFactor)
	})
	return out, out.Validate()
}

// clone deep-copies a model set via its JSON form, under a fresh header:
// Load compiled the copy it read, and the adapters edit it afterwards.
func clone(ms *core.ModelSet) (*core.ModelSet, error) {
	var buf bytes.Buffer
	if err := ms.Save(&buf); err != nil {
		return nil, err
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		return nil, err
	}
	return &core.ModelSet{MachineName: loaded.MachineName, Method: loaded.Method, Devices: loaded.Devices}, nil
}

// forEachCluster visits every cluster model, the hour aggregates, and
// the device globals.
func forEachCluster(ms *core.ModelSet, f func(*core.ClusterModel)) {
	for _, dm := range ms.Devices {
		if dm == nil {
			continue
		}
		for h := range dm.Hours {
			for c := range dm.Hours[h].Clusters {
				f(&dm.Hours[h].Clusters[c])
			}
			if dm.Hours[h].Aggregate != nil {
				f(dm.Hours[h].Aggregate)
			}
		}
		if dm.Global != nil {
			f(dm.Global)
		}
	}
}

// scaleEvent multiplies the occurrence weight of event e by factor
// throughout one cluster model.
func scaleEvent(cm *core.ClusterModel, e cp.EventType, factor float64) {
	for s := range cm.Bottom {
		scaleState(&cm.Bottom[s], e, factor)
	}
	for i := range cm.Free {
		if cm.Free[i].Event == e {
			cm.Free[i].Inter = scaleSojourn(cm.Free[i].Inter, 1/factor)
		}
	}
	// First-event mix: e becomes factor times likelier relative to the
	// other first events.
	var total float64
	touched := false
	for i := range cm.First.Cats {
		if cm.First.Cats[i].Event == e {
			cm.First.Cats[i].P *= factor
			touched = true
		}
		total += cm.First.Cats[i].P
	}
	if touched && total > 0 {
		for i := range cm.First.Cats {
			cm.First.Cats[i].P /= total
		}
	}
}

// scaleState applies the hazard transform to one bottom-level state: the
// weight of outcomes on event e is multiplied by factor (competing
// against the other events and the never-fires tail PExit), e's delays
// shrink by factor, and the state-level delay marginal shrinks by the
// total firing-hazard increase.
func scaleState(sp *core.StateParam, e cp.EventType, factor float64) {
	var oldFiring, newFiring float64
	hasEvent := false
	for _, tp := range sp.Out {
		w := tp.P * (1 - sp.PExit)
		oldFiring += w
		if tp.Event == e {
			hasEvent = true
			newFiring += w * factor
		} else {
			newFiring += w
		}
	}
	if !hasEvent || oldFiring <= 0 {
		return
	}
	exitW := sp.PExit
	sp.PExit = exitW / (exitW + newFiring)
	// Recompute the per-event probabilities among firing outcomes.
	var firingSum float64
	weights := make([]float64, len(sp.Out))
	for i, tp := range sp.Out {
		w := tp.P
		if tp.Event == e {
			w *= factor
		}
		weights[i] = w
		firingSum += w
	}
	for i := range sp.Out {
		sp.Out[i].P = weights[i] / firingSum
		if sp.Out[i].Event == e {
			sp.Out[i].Sojourn = scaleSojourn(sp.Out[i].Sojourn, 1/factor)
		}
	}
	if sp.Sojourn != nil {
		scaled := scaleSojourn(*sp.Sojourn, oldFiring/newFiring)
		sp.Sojourn = &scaled
	}
}

// scaleSojourn multiplies a sojourn model's time scale by s.
func scaleSojourn(m core.SojournModel, s float64) core.SojournModel {
	switch m.Kind {
	case core.SojournTable:
		q := make([]float64, len(m.Q))
		for i, v := range m.Q {
			q[i] = v * s
		}
		return core.SojournModel{Kind: core.SojournTable, Q: q}
	case core.SojournExp:
		return core.SojournModel{Kind: core.SojournExp, Lambda: m.Lambda / s}
	case core.SojournConst:
		return core.SojournModel{Kind: core.SojournConst, Value: m.Value * s}
	}
	return m
}

// dropEvent removes every outcome on event e from one cluster model,
// renormalizing the survivors; states left with no outgoing transitions
// lose their parameters entirely.
func dropEvent(cm *core.ClusterModel, e cp.EventType) {
	for s := range cm.Bottom {
		dropFromState(&cm.Bottom[s], e)
	}
	for s := range cm.Top {
		dropFromState(&cm.Top[s], e)
	}
	var free []core.FreeProcess
	for _, fp := range cm.Free {
		if fp.Event != e {
			free = append(free, fp)
		}
	}
	cm.Free = free
	var kept []core.FirstCat
	var keptSum float64
	for _, cat := range cm.First.Cats {
		if cat.Event != e {
			kept = append(kept, cat)
			keptSum += cat.P
		}
	}
	if len(kept) != len(cm.First.Cats) {
		if keptSum > 0 {
			for i := range kept {
				kept[i].P /= keptSum
			}
			cm.First.Cats = kept
		} else {
			// Every first event was a TAU: the UE simply stays silent.
			cm.First.Cats = nil
			cm.First.PNone = 1
		}
	}
}

func dropFromState(sp *core.StateParam, e cp.EventType) {
	var kept []core.TransitionParam
	var keptSum float64
	for _, tp := range sp.Out {
		if tp.Event != e {
			kept = append(kept, tp)
			keptSum += tp.P
		}
	}
	if len(kept) == len(sp.Out) {
		return
	}
	if keptSum <= 0 || len(kept) == 0 {
		sp.Out = nil
		sp.Sojourn = nil
		sp.PExit = 0
		return
	}
	for i := range kept {
		kept[i].P /= keptSum
	}
	sp.Out = kept
	// The dropped outcomes' mass moves to the never-fires tail: visits
	// that would have TAU'd now sit silent (first-order approximation).
	sp.PExit = sp.PExit + (1-sp.PExit)*(1-keptSum)
}

// saStateOf maps LTE two-level fine states onto the 5G SA machine.
var saStateOf = map[sm.State]sm.State{
	sm.LTEDeregistered: sm.SADeregistered,
	sm.LTESrvReqS:      sm.SASrvReqS,
	sm.LTEHoS:          sm.SAHoS,
	sm.LTES1RelS1:      sm.SAIdle,
	sm.LTES1RelS2:      sm.SAIdle,
	sm.LTETauSIdle:     sm.SAIdle,
	// TAU_S_CONN disappears; its (TAU-free) remainder folds into HO_S,
	// the closest CONNECTED sub-state.
	sm.LTETauSConn: sm.SAHoS,
}

// remapBottomToSA rebuilds the bottom-level state array (and the
// first-event categories' post-states) on the 5G SA machine's state
// space. TAU transitions must already be dropped.
func remapBottomToSA(cm *core.ClusterModel) {
	for i := range cm.First.Cats {
		cm.First.Cats[i].State = saStateOf[cm.First.Cats[i].State]
	}
	if cm.Bottom == nil {
		return
	}
	out := make([]core.StateParam, sm.NumSAStates)
	for s := range cm.Bottom {
		src := &cm.Bottom[s]
		if len(src.Out) == 0 {
			continue
		}
		dst := saStateOf[sm.State(s)]
		// SA IDLE has no sub-machine (its only internal events were
		// TAU-related); anything remaining there is discarded.
		if dst == sm.SAIdle || dst == sm.SADeregistered {
			continue
		}
		if len(out[dst].Out) == 0 {
			out[dst] = *src
		}
		// When two LTE states fold onto one SA state, keep the first
		// (HO_S wins over TAU_S_CONN by iteration order).
	}
	cm.Bottom = out
}
