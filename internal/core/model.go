package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
)

// TransitionParam parameterizes one semi-Markov transition: with
// probability P (among the state's outgoing transitions), the state is
// left on Event after a Sojourn-distributed duration.
type TransitionParam struct {
	Event   cp.EventType `json:"event"`
	P       float64      `json:"p"`
	Sojourn SojournModel `json:"sojourn"`
}

// StateParam holds the outgoing transitions of one state. An empty Out
// means the state was never observed to be left in the fitted data; the
// generator falls back to coarser models (hour aggregate, then device
// global) before treating the state as absorbing.
//
// For bottom-level states, PExit is the competing-risks censoring
// probability: the fraction of entries into this sub-state whose
// enclosing top-level visit ended before any sub-machine event fired.
// The generator honors it by leaving the bottom level silent (until the
// next top-level transition re-enters the sub-machine) with probability
// PExit. Fitting sojourns only on uncensored observations while racing
// them against the top level would otherwise inflate HO/TAU volume —
// the uncensored delays are biased short.
type StateParam struct {
	Out   []TransitionParam `json:"out,omitempty"`
	PExit float64           `json:"pExit,omitempty"`
	// Sojourn, when present, is the state-level delay marginal estimated
	// with Kaplan–Meier over both fired and censored observations; the
	// generator prefers it over per-transition sojourns for bottom-level
	// states because it is unbiased under the top-level race.
	Sojourn *SojournModel `json:"sojourn,omitempty"`
}

// FreeProcess is a free-running event process used by the Base and V1
// methods for HO and TAU: occurrences are generated with i.i.d.
// inter-arrival times, independent of the UE state — which is exactly why
// those methods emit handovers while IDLE.
type FreeProcess struct {
	Event cp.EventType `json:"event"`
	Inter SojournModel `json:"inter"`
}

// FirstCat is one category of the first-event model: the first event of
// the hour is of type Event and leaves the UE in machine state State with
// probability P. Carrying the post-event state matters because the same
// event type can land in different states (a TAU is TAU_S_CONN while
// CONNECTED but TAU_S_IDLE while IDLE).
type FirstCat struct {
	Event cp.EventType `json:"event"`
	State sm.State     `json:"state"`
	P     float64      `json:"p"`
}

// FirstEventModel captures, for one (cluster, hour), the distribution of
// the first control event of a UE in that hour: whether the UE is silent
// (PNone), the (event, post-state) category, and the start offset within
// the hour in seconds (§5.4).
type FirstEventModel struct {
	PNone  float64      `json:"pNone"`
	Cats   []FirstCat   `json:"cats,omitempty"`
	Offset SojournModel `json:"offset"`
}

// valid reports whether the first-event model can be sampled.
func (f FirstEventModel) valid() bool {
	return len(f.Cats) > 0 && f.Offset.Valid()
}

// ClusterModel is the fitted semi-Markov model for one (device type,
// hour-of-day, UE cluster) combination.
type ClusterModel struct {
	// Top is indexed by cp.UEState: the EMM-ECM level chain driven by
	// Category-1 events.
	Top []StateParam `json:"top,omitempty"`
	// Bottom is indexed by the machine's fine states: the sub-machine
	// chains inside CONNECTED and IDLE, driven by HO, TAU and the
	// TAU-releasing S1_CONN_REL. Empty for flat (EMM-ECM) models.
	Bottom []StateParam `json:"bottom,omitempty"`
	// Free holds the free-running processes of flat models (HO, TAU).
	Free []FreeProcess `json:"free,omitempty"`
	// First is the first-event model for generation start.
	First FirstEventModel `json:"first"`
	// NumUEs records how many training UEs the model was fitted on.
	NumUEs int `json:"numUEs"`
}

// HourModel holds all cluster models of one hour-of-day plus the
// device-wide aggregate fallback.
type HourModel struct {
	Clusters  []ClusterModel `json:"clusters,omitempty"`
	Aggregate *ClusterModel  `json:"aggregate,omitempty"`
	// Weights[i] is the fraction of training UEs in cluster i.
	Weights []float64 `json:"weights,omitempty"`
}

// Persona is a deduplicated cluster-membership vector: the fraction
// Weight of training UEs belonged to Cluster[h] during hour-of-day h.
// Synthetic UEs adopt a persona, which preserves cross-hour activity
// correlation (a chatty UE at 9am is chatty at 10am).
type Persona struct {
	Cluster []int   `json:"cluster"`
	Weight  float64 `json:"weight"`
}

// DeviceModel is the complete model for one device type.
type DeviceModel struct {
	Personas []Persona     `json:"personas"`
	Hours    []HourModel   `json:"hours"` // indexed by hour-of-day (24)
	Global   *ClusterModel `json:"global,omitempty"`
	// Share is the device type's fraction of the training population.
	Share float64 `json:"share"`
	// TrainUEs is the number of training UEs of this type.
	TrainUEs int `json:"trainUEs"`
}

// ModelSet is a fully fitted traffic model: one DeviceModel per device
// type, bound to a protocol state machine.
type ModelSet struct {
	// MachineName names the state machine ("LTE-2LEVEL", "EMM-ECM",
	// "5G-SA").
	MachineName string `json:"machine"`
	// Method is a human-readable label ("ours", "base", "v1", "v2").
	Method string `json:"method"`
	// Devices is indexed by cp.DeviceType; entries may be nil when the
	// training trace had no UEs of that type.
	Devices []*DeviceModel `json:"devices"`

	// compileOnce guards compiled, the lowered form built lazily on the
	// first Generate/NewSource call and reused afterwards. A
	// ModelSet is treated as immutable once generation has started —
	// in-repo callers already honor this (the 5G adapters clone before
	// mutating) — so the cache never goes stale.
	compileOnce sync.Once
	compiled    *compiledModel
}

// lower returns the model compiled for machine, building it on first
// use. Concurrent callers share one build.
func (ms *ModelSet) lower(machine *sm.Machine) *compiledModel {
	ms.compileOnce.Do(func() { ms.compiled = compile(ms, machine) })
	return ms.compiled
}

// Machine resolves the model's state machine.
func (ms *ModelSet) Machine() (*sm.Machine, error) {
	return machineByName(ms.MachineName)
}

// machineByName resolves a serialized machine name — the shared
// resolution for model JSON and partialfit/1 files.
func machineByName(name string) (*sm.Machine, error) {
	switch name {
	case "LTE-2LEVEL":
		return sm.LTE2Level(), nil
	case "EMM-ECM":
		return sm.EMMECM(), nil
	case "5G-SA":
		return sm.FiveGSA(), nil
	}
	return nil, fmt.Errorf("core: unknown machine %q", name)
}

// Device returns the device model for d, or nil.
func (ms *ModelSet) Device(d cp.DeviceType) *DeviceModel {
	if int(d) >= len(ms.Devices) {
		return nil
	}
	return ms.Devices[d]
}

// NumModels counts the instantiated (cluster, hour, device) models — the
// paper's "20,216 two-level state-machine-based Semi-Markov models".
func (ms *ModelSet) NumModels() int {
	n := 0
	for _, dm := range ms.Devices {
		if dm == nil {
			continue
		}
		for _, hm := range dm.Hours {
			n += len(hm.Clusters)
		}
	}
	return n
}

// clusterAt returns the cluster model for (hour, cluster id), or nil.
func (dm *DeviceModel) clusterAt(hour, cl int) *ClusterModel {
	if hour < 0 || hour >= len(dm.Hours) {
		return nil
	}
	hm := &dm.Hours[hour]
	if cl < 0 || cl >= len(hm.Clusters) {
		return nil
	}
	return &hm.Clusters[cl]
}

// topParams resolves the outgoing transitions of macro state s at (hour,
// cluster) with the fallback chain cluster → hour aggregate → global.
func (dm *DeviceModel) topParams(hour, cl int, s cp.UEState) []TransitionParam {
	if cm := dm.clusterAt(hour, cl); cm != nil && int(s) < len(cm.Top) && len(cm.Top[s].Out) > 0 {
		return cm.Top[s].Out
	}
	if hour >= 0 && hour < len(dm.Hours) {
		if agg := dm.Hours[hour].Aggregate; agg != nil && int(s) < len(agg.Top) && len(agg.Top[s].Out) > 0 {
			return agg.Top[s].Out
		}
	}
	if dm.Global != nil && int(s) < len(dm.Global.Top) {
		return dm.Global.Top[s].Out
	}
	return nil
}

// bottomParams resolves the bottom-level state parameters of fine state s
// with the same fallback chain.
func (dm *DeviceModel) bottomParams(hour, cl int, s sm.State) *StateParam {
	if cm := dm.clusterAt(hour, cl); cm != nil && int(s) < len(cm.Bottom) && len(cm.Bottom[s].Out) > 0 {
		return &cm.Bottom[s]
	}
	if hour >= 0 && hour < len(dm.Hours) {
		if agg := dm.Hours[hour].Aggregate; agg != nil && int(s) < len(agg.Bottom) && len(agg.Bottom[s].Out) > 0 {
			return &agg.Bottom[s]
		}
	}
	if dm.Global != nil && int(s) < len(dm.Global.Bottom) {
		return &dm.Global.Bottom[s]
	}
	return nil
}

// freeParams resolves the free-running processes.
func (dm *DeviceModel) freeParams(hour, cl int) []FreeProcess {
	if cm := dm.clusterAt(hour, cl); cm != nil && len(cm.Free) > 0 {
		return cm.Free
	}
	if hour >= 0 && hour < len(dm.Hours) {
		if agg := dm.Hours[hour].Aggregate; agg != nil && len(agg.Free) > 0 {
			return agg.Free
		}
	}
	if dm.Global != nil {
		return dm.Global.Free
	}
	return nil
}

// firstEvent resolves the first-event model.
func (dm *DeviceModel) firstEvent(hour, cl int) (FirstEventModel, bool) {
	if cm := dm.clusterAt(hour, cl); cm != nil && cm.First.valid() {
		return cm.First, true
	}
	if hour >= 0 && hour < len(dm.Hours) {
		if agg := dm.Hours[hour].Aggregate; agg != nil && agg.First.valid() {
			return agg.First, true
		}
	}
	if dm.Global != nil && dm.Global.First.valid() {
		return dm.Global.First, true
	}
	return FirstEventModel{}, false
}

// Validate checks structural invariants of the model set: probabilities
// in [0,1] summing to ~1 per state, valid sojourn models, persona vectors
// covering all hours.
func (ms *ModelSet) Validate() error {
	if _, err := ms.Machine(); err != nil {
		return err
	}
	checkStates := func(where string, sp []StateParam) error {
		for si, s := range sp {
			if len(s.Out) == 0 {
				continue
			}
			var sum float64
			if s.PExit < 0 || s.PExit > 1 {
				return fmt.Errorf("core: %s state %d: PExit %v out of range", where, si, s.PExit)
			}
			if s.Sojourn != nil && !s.Sojourn.Valid() {
				return fmt.Errorf("core: %s state %d: invalid state-level sojourn", where, si)
			}
			for _, tp := range s.Out {
				if tp.P < 0 || tp.P > 1+1e-9 {
					return fmt.Errorf("core: %s state %d: probability %v out of range", where, si, tp.P)
				}
				if !tp.Sojourn.Valid() {
					return fmt.Errorf("core: %s state %d event %v: invalid sojourn", where, si, tp.Event)
				}
				sum += tp.P
			}
			if math.Abs(sum-1) > 1e-6 {
				return fmt.Errorf("core: %s state %d: probabilities sum to %v", where, si, sum)
			}
		}
		return nil
	}
	for d, dm := range ms.Devices {
		if dm == nil {
			continue
		}
		var wsum float64
		for _, p := range dm.Personas {
			wsum += p.Weight
			if len(p.Cluster) != len(dm.Hours) {
				return fmt.Errorf("core: device %d persona covers %d hours, model has %d",
					d, len(p.Cluster), len(dm.Hours))
			}
		}
		if len(dm.Personas) > 0 && math.Abs(wsum-1) > 1e-6 {
			return fmt.Errorf("core: device %d persona weights sum to %v", d, wsum)
		}
		for h := range dm.Hours {
			for c := range dm.Hours[h].Clusters {
				cm := &dm.Hours[h].Clusters[c]
				where := fmt.Sprintf("device %d hour %d cluster %d top", d, h, c)
				if err := checkStates(where, cm.Top); err != nil {
					return err
				}
				if err := checkStates(where+"/bottom", cm.Bottom); err != nil {
					return err
				}
				if len(cm.First.Cats) > 0 {
					var sum float64
					for _, cat := range cm.First.Cats {
						if cat.P < 0 || cat.P > 1+1e-9 {
							return fmt.Errorf("core: %s: first-event probability %v out of range", where, cat.P)
						}
						sum += cat.P
					}
					if math.Abs(sum-1) > 1e-6 {
						return fmt.Errorf("core: %s: first-event probabilities sum to %v", where, sum)
					}
				}
			}
		}
	}
	return nil
}

// Save serializes the model set as JSON.
func (ms *ModelSet) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(ms)
}

// Load deserializes a model set written by Save and validates it.
func Load(r io.Reader) (*ModelSet, error) {
	var ms ModelSet
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ms); err != nil {
		return nil, fmt.Errorf("core: decoding model set: %w", err)
	}
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	return &ms, nil
}
