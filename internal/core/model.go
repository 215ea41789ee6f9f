package core

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
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

	// compileOnce guards compiled and compileErr, the lowered form (or why
	// there is none) built by the first Load, Validate, Generate or
	// NewSource. A ModelSet is frozen once it is loaded, validated or
	// lowered — the 5G adapters edit a fresh ModelSet around a loaded
	// copy's devices — so the cache never goes stale.
	compileOnce sync.Once
	compiled    *compiledModel
	compileErr  error
}

// lower returns the model compiled onto its machine, or why it cannot
// be, building it on first use. Concurrent callers share one build.
func (ms *ModelSet) lower() (*compiledModel, error) {
	ms.compileOnce.Do(func() {
		var m *sm.Machine
		if m, ms.compileErr = ms.Machine(); ms.compileErr == nil {
			ms.compiled, ms.compileErr = compile(ms, m)
		}
	})
	return ms.compiled, ms.compileErr
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

// Validate reports why the model cannot be generated from, if it cannot:
// an unknown machine, or compile's check of every ClusterModel. The
// result is cached with the lowered model.
func (ms *ModelSet) Validate() error {
	_, err := ms.lower()
	return err
}

// Save serializes the model set as JSON: byte for byte the document an
// encoding/json Encoder writes for it (TestSaveMatchesEncodingJSON holds
// it to that, field by field), streamed through a 64 KiB buffer instead
// of built whole in memory. Like encoding/json it refuses NaN and ±Inf
// with an error; unlike it, w has by then received part of the document.
func (ms *ModelSet) Save(w io.Writer) error {
	e := modelEncoder{w: bufio.NewWriterSize(w, 64<<10), num: make([]byte, 0, 32)}
	e.modelSet(ms)
	if err := e.w.Flush(); err != nil {
		return err
	}
	return e.err
}

// modelEncoder appends the model structs' JSON to a buffered destination.
// A bufio.Writer keeps its first write error and returns it from every
// later call, Flush included, so only Save's Flush is checked.
type modelEncoder struct {
	w   *bufio.Writer
	num []byte // the number formatted last; floats re-emits it along a run of equal values
	err error  // the first value JSON cannot hold
}

func (e *modelEncoder) raw(s string) { e.w.WriteString(s) }

// field opens the next member of an object all of whose members may be
// omitted: *sep is '{' before the first member and ',' after it; end
// closes the object.
func (e *modelEncoder) field(sep *byte, name string) {
	e.w.WriteByte(*sep)
	e.w.WriteString(name)
	*sep = ','
}

func (e *modelEncoder) end(sep byte) {
	if sep == '{' {
		e.w.WriteByte('{')
	}
	e.w.WriteByte('}')
}

// str writes s as encoding/json does. Plain ASCII — every string a fitted
// model holds — is copied between quotes; whatever json would escape
// (quotes, control characters, <, > and &, U+2028/9, invalid UTF-8) goes
// through json.Marshal.
func (e *modelEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always marshals
			e.w.Write(b)
			return
		}
	}
	e.w.WriteByte('"')
	e.w.WriteString(s)
	e.w.WriteByte('"')
}

func (e *modelEncoder) int(n int) {
	e.num = strconv.AppendInt(e.num[:0], int64(n), 10)
	e.w.Write(e.num)
}

// float writes x under encoding/json's rule: the shortest digits that
// read back as x, plain below 1e21 and exponential outside [1e-6, 1e21),
// with strconv's e-09 cleaned up to e-9.
//
//cplint:hotpath one call per table value that differs from its predecessor: strconv.AppendFloat into the reused digit buffer
func (e *modelEncoder) float(x float64) {
	abs := math.Abs(x)
	if !(abs <= math.MaxFloat64) { // ±Inf or NaN
		e.unsupported(x)
		return
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.num[:0], x, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	e.num = b
	e.w.Write(b)
}

//cplint:coldpath the error path of a model that cannot be saved
func (e *modelEncoder) unsupported(x float64) {
	e.num = e.num[:0]
	if e.err == nil {
		e.err = fmt.Errorf("core: saving model set: unsupported value %s", strconv.FormatFloat(x, 'g', -1, 64))
	}
}

// floats writes a quantile grid or weight list. A value with the bits of
// its predecessor — most of a Kaplan–Meier table, which spreads a few
// distinct steps over the grid — re-emits the predecessor's digits.
func (e *modelEncoder) floats(xs []float64) {
	e.w.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			e.w.WriteByte(',')
			if math.Float64bits(x) == math.Float64bits(xs[i-1]) {
				e.w.Write(e.num)
				continue
			}
		}
		e.float(x)
	}
	e.w.WriteByte(']')
}

// array writes xs as a JSON array of elem's output, null for a nil slice.
func array[T any](e *modelEncoder, xs []T, elem func(*modelEncoder, *T)) {
	if xs == nil {
		e.raw("null")
		return
	}
	e.w.WriteByte('[')
	for i := range xs {
		if i > 0 {
			e.w.WriteByte(',')
		}
		elem(e, &xs[i])
	}
	e.w.WriteByte(']')
}

func (e *modelEncoder) modelSet(ms *ModelSet) {
	e.raw(`{"machine":`)
	e.str(ms.MachineName)
	e.raw(`,"method":`)
	e.str(ms.Method)
	e.raw(`,"devices":`)
	array(e, ms.Devices, (*modelEncoder).device)
	e.raw("}\n")
}

func (e *modelEncoder) device(p **DeviceModel) {
	dm := *p
	if dm == nil {
		e.raw("null")
		return
	}
	e.raw(`{"personas":`)
	array(e, dm.Personas, (*modelEncoder).persona)
	e.raw(`,"hours":`)
	array(e, dm.Hours, (*modelEncoder).hour)
	if dm.Global != nil {
		e.raw(`,"global":`)
		e.cluster(dm.Global)
	}
	e.raw(`,"share":`)
	e.float(dm.Share)
	e.raw(`,"trainUEs":`)
	e.int(dm.TrainUEs)
	e.w.WriteByte('}')
}

func (e *modelEncoder) persona(p *Persona) {
	e.raw(`{"cluster":`)
	array(e, p.Cluster, func(e *modelEncoder, c *int) { e.int(*c) })
	e.raw(`,"weight":`)
	e.float(p.Weight)
	e.w.WriteByte('}')
}

func (e *modelEncoder) hour(hm *HourModel) {
	sep := byte('{')
	if len(hm.Clusters) > 0 {
		e.field(&sep, `"clusters":`)
		array(e, hm.Clusters, (*modelEncoder).cluster)
	}
	if hm.Aggregate != nil {
		e.field(&sep, `"aggregate":`)
		e.cluster(hm.Aggregate)
	}
	if len(hm.Weights) > 0 {
		e.field(&sep, `"weights":`)
		e.floats(hm.Weights)
	}
	e.end(sep)
}

func (e *modelEncoder) cluster(cm *ClusterModel) {
	sep := byte('{')
	if len(cm.Top) > 0 {
		e.field(&sep, `"top":`)
		array(e, cm.Top, (*modelEncoder).state)
	}
	if len(cm.Bottom) > 0 {
		e.field(&sep, `"bottom":`)
		array(e, cm.Bottom, (*modelEncoder).state)
	}
	if len(cm.Free) > 0 {
		e.field(&sep, `"free":`)
		array(e, cm.Free, (*modelEncoder).free)
	}
	e.field(&sep, `"first":{"pNone":`)
	e.float(cm.First.PNone)
	if len(cm.First.Cats) > 0 {
		e.raw(`,"cats":`)
		array(e, cm.First.Cats, (*modelEncoder).firstCat)
	}
	e.raw(`,"offset":`)
	e.sojourn(&cm.First.Offset)
	e.raw(`},"numUEs":`)
	e.int(cm.NumUEs)
	e.w.WriteByte('}')
}

func (e *modelEncoder) state(sp *StateParam) {
	sep := byte('{')
	if len(sp.Out) > 0 {
		e.field(&sep, `"out":`)
		array(e, sp.Out, (*modelEncoder).transition)
	}
	if sp.PExit != 0 {
		e.field(&sep, `"pExit":`)
		e.float(sp.PExit)
	}
	if sp.Sojourn != nil {
		e.field(&sep, `"sojourn":`)
		e.sojourn(sp.Sojourn)
	}
	e.end(sep)
}

func (e *modelEncoder) transition(tp *TransitionParam) {
	e.raw(`{"event":`)
	e.int(int(tp.Event))
	e.raw(`,"p":`)
	e.float(tp.P)
	e.raw(`,"sojourn":`)
	e.sojourn(&tp.Sojourn)
	e.w.WriteByte('}')
}

func (e *modelEncoder) free(fp *FreeProcess) {
	e.raw(`{"event":`)
	e.int(int(fp.Event))
	e.raw(`,"inter":`)
	e.sojourn(&fp.Inter)
	e.w.WriteByte('}')
}

func (e *modelEncoder) firstCat(c *FirstCat) {
	e.raw(`{"event":`)
	e.int(int(c.Event))
	e.raw(`,"state":`)
	e.int(int(c.State))
	e.raw(`,"p":`)
	e.float(c.P)
	e.w.WriteByte('}')
}

func (e *modelEncoder) sojourn(s *SojournModel) {
	e.raw(`{"kind":`)
	e.str(s.Kind)
	if len(s.Q) > 0 {
		e.raw(`,"q":`)
		e.floats(s.Q)
	}
	if s.Lambda != 0 {
		e.raw(`,"lambda":`)
		e.float(s.Lambda)
	}
	if s.Value != 0 {
		e.raw(`,"value":`)
		e.float(s.Value)
	}
	e.w.WriteByte('}')
}
