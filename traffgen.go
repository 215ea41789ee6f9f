// Package cptraffic models and generates control-plane traffic for
// cellular networks, reproducing the system of "Modeling and Generating
// Control-Plane Traffic for Cellular Networks" (ACM IMC 2023).
//
// The package is the public facade over the implementation packages:
//
//   - a two-level hierarchical state-machine Semi-Markov traffic model
//     fitted per (UE cluster, hour-of-day, device type), with empirical
//     CDF sojourn distributions and adaptive quadtree UE clustering;
//   - a per-UE trace generator that synthesizes labeled control-plane
//     traces for arbitrary UE populations, for LTE and for 5G NSA/SA;
//   - the comparison methods of the paper's Table 3 (Poisson baselines);
//   - a behavioral "world" simulator that substitutes for proprietary
//     carrier traces;
//   - trace evaluation: breakdowns, per-UE CDF distances, goodness-of-fit
//     sweeps.
//
// Quick start:
//
//	world, _ := cptraffic.SimulateWorld(cptraffic.WorldOptions{
//		NumUEs: 1000, Duration: cptraffic.Day, Seed: 1,
//	})
//	model, _ := cptraffic.FitModel(world, "ours", cptraffic.ClusterOptions{ThetaN: 50})
//	trace, _ := cptraffic.GenerateTraffic(model, cptraffic.GenOptions{
//		NumUEs: 10000, StartHour: 18, Duration: cptraffic.Hour, Seed: 2,
//	})
//
// See the runnable programs under examples/ and the experiment index in
// DESIGN.md.
package cptraffic

import (
	"errors"
	"io"

	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/fiveg"
	"cptraffic/internal/mcn"
	"cptraffic/internal/scenario"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// Time base re-exports.
type Millis = cp.Millis

// Common durations in the Millis time base.
const (
	Second = cp.Second
	Minute = cp.Minute
	Hour   = cp.Hour
	Day    = cp.Day
	Week   = cp.Week
)

// Control-plane vocabulary re-exports.
type (
	// EventType is one of the six LTE control-plane event types.
	EventType = cp.EventType
	// DeviceType is phone, connected car, or tablet.
	DeviceType = cp.DeviceType
	// UEID labels a User Equipment within a trace.
	UEID = cp.UEID
)

// Event types (paper Table 1).
const (
	Attach             = cp.Attach
	Detach             = cp.Detach
	ServiceRequest     = cp.ServiceRequest
	S1ConnRelease      = cp.S1ConnRelease
	Handover           = cp.Handover
	TrackingAreaUpdate = cp.TrackingAreaUpdate
)

// Device types.
const (
	Phone        = cp.Phone
	ConnectedCar = cp.ConnectedCar
	Tablet       = cp.Tablet
)

// Trace is a UE-labeled control-plane event trace.
type Trace = trace.Trace

// TraceEvent is a single timestamped, UE-labeled control event.
type TraceEvent = trace.Event

// NewTrace returns an empty in-memory trace (also usable as an
// EventSink or, once filled, an EventSource).
func NewTrace() *Trace { return trace.New() }

// ReadTrace reads a whole trace into memory, detecting the format from
// the leading bytes: the line-oriented text format or the binary one.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadAuto(r) }

// WriteTrace serializes a trace.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.WriteTrace(w, tr) }

// Streaming abstraction re-exports. An EventSource delivers a trace
// incrementally — device registrations first, then events in canonical
// (time, UE, type) order, a Batch at a time — so pipelines can run in
// bounded memory; an EventSink receives one the same way. *Trace
// implements both, making the in-memory path the reference
// implementation.
type (
	// EventSource is an ordered, re-iterable stream of trace events.
	EventSource = trace.EventSource
	// EventSink consumes device registrations and ordered events.
	EventSink = trace.EventSink
)

// Batched pipeline re-exports. A Batch carries a run of canonical-order
// events in struct-of-arrays layout: it is the unit every EventSource
// delivers (ScanBatches reuses the batch between callbacks, so copy what
// you keep), and sinks that implement BatchSink take whole batches instead
// of one interface call per event. Batch boundaries never affect the
// produced trace or its serialized bytes (test-enforced).
type (
	// Batch is a struct-of-arrays run of trace events.
	Batch = trace.Batch
	// BatchSink consumes registrations and whole event batches.
	BatchSink = trace.BatchSink
)

// CopyBatches streams src into dst, registrations first, then events a
// batch at a time; a sink without native batch support is fed per event.
func CopyBatches(dst EventSink, src EventSource) error { return trace.CopyBatches(dst, src) }

// NewFileSource opens an on-disk trace (binary or text) as a re-iterable
// EventSource that reads incrementally instead of loading the file. A
// stream cannot reorder: scanning a file whose events are not in canonical
// order fails with ErrNotCanonical.
func NewFileSource(path string) (EventSource, error) { return trace.NewFileSource(path) }

// ErrNotCanonical is the error (test with errors.Is) a file source's scan
// wraps for a file out of canonical order; ReadTrace plus (*Trace).Sort
// repair one in memory.
var ErrNotCanonical = trace.ErrNotCanonical

// CollectTrace materializes a source into an in-memory trace.
func CollectTrace(src EventSource) (*Trace, error) { return trace.Collect(src) }

// WorldOptions configures the ground-truth behavioral simulator.
type WorldOptions = world.Options

// SimulateWorld synthesizes a carrier-style ground-truth trace from the
// behavioral UE simulator (the stand-in for a production collection).
func SimulateWorld(opt WorldOptions) (*Trace, error) { return world.Generate(opt) }

// WorldSource returns a simulation-backed EventSource that produces
// exactly SimulateWorld's trace while holding only O(NumUEs) state.
func WorldSource(opt WorldOptions) (EventSource, error) { return world.NewSource(opt) }

// Model is a fitted control-plane traffic model.
type Model = core.ModelSet

// ClusterOptions configures the adaptive quadtree clustering (§5.3):
// ThetaF is the per-feature similarity threshold (default 5), ThetaN the
// minimum cluster size (default 1000; scale it with the population).
type ClusterOptions = cluster.Options

// Methods lists the supported modeling methods: "base", "v1", "v2" (the
// paper's comparison methods, Table 3) and "ours" (the contribution).
func Methods() []string { return core.Methods() }

// FitOptions configures Fit: the Method (one of Methods, "ours" by
// default), which alone decides what is modelled, and the clustering,
// worker and sketch settings.
type FitOptions = core.FitOptions

// Fit estimates a traffic model from a source — a *Trace, a file
// (NewFileSource), a simulator or a generator — in one scan, with explicit
// control over the fitting pipeline; FitModel is the common-case
// shorthand. The source is never materialized: memory is O(UEs + retained
// samples) on top of what the source itself holds, and SketchK bounds the
// sample term too. The fitted model is byte-identical for any source kind
// and worker count.
func Fit(src EventSource, opt FitOptions) (*Model, error) { return core.Fit(src, opt) }

// FitModel estimates a traffic model from a source using the named method.
func FitModel(src EventSource, method string, co ClusterOptions) (*Model, error) {
	return Fit(src, FitOptions{Method: method, Cluster: co})
}

// PartialFit is the mergeable, serializable state of an in-progress
// fit: feed it sources or events, checkpoint it mid-scan with Encode,
// and Build the model — or fit disjoint UE shards in parallel (even on
// separate machines) and combine them with MergeFits. Fit is a thin
// driver over a single PartialFit.
type PartialFit = core.PartialFit

// NewPartialFit starts an empty partial fit. Partials only merge when
// they were created with the same options (Workers excluded).
func NewPartialFit(opt FitOptions) (*PartialFit, error) { return core.NewPartialFit(opt) }

// LoadPartialFit reads a partialfit/1 checkpoint written with
// (*PartialFit).Encode (see PARTIALFIT.md for the format). The result
// can resume its source scan, merge with sibling shards, or Build.
func LoadPartialFit(r io.Reader) (*PartialFit, error) { return core.DecodePartial(r) }

// MergeFits combines partial fits over disjoint UE populations and
// builds the model. The result is byte-identical to a single fit over
// the union of the shards' traffic, whatever the argument order.
func MergeFits(parts ...*PartialFit) (*Model, error) {
	if len(parts) == 0 {
		return nil, errors.New("cptraffic: MergeFits needs at least one partial fit")
	}
	root := parts[0]
	for _, p := range parts[1:] {
		if err := root.Merge(p); err != nil {
			return nil, err
		}
	}
	return root.Build()
}

// ShardSource filters a source down to shard i of n by a deterministic
// hash of the UE ID (trace.UEShard), so independent workers can each
// fit a disjoint slice of the population. Every UE's full event stream
// lands in exactly one shard.
func ShardSource(src EventSource, shards, shard int) (EventSource, error) {
	return trace.ShardSource(src, shards, shard)
}

// LoadModel reads a model saved with (*Model).Save.
func LoadModel(r io.Reader) (*Model, error) { return core.Load(r) }

// GenOptions configures trace synthesis.
type GenOptions = core.GenOptions

// GenerateTraffic synthesizes a control-plane trace for any population
// size by running one per-UE semi-Markov generator per UE (§7).
func GenerateTraffic(ms *Model, opt GenOptions) (*Trace, error) {
	return core.Generate(ms, opt)
}

// TrafficSource returns a generator-backed EventSource that produces
// exactly GenerateTraffic's trace while holding only O(NumUEs) state —
// populations whose traces would not fit in memory can be streamed to
// disk or fitted directly.
func TrafficSource(ms *Model, opt GenOptions) (EventSource, error) {
	return core.NewSource(ms, opt)
}

// GenerateTo streams a synthetic trace into sink without materializing
// it: registrations first, then events in canonical order. The transfer
// rides the batched pipeline (the generator fills struct-of-arrays
// batches natively).
func GenerateTo(ms *Model, opt GenOptions, sink EventSink) error {
	src, err := core.NewSource(ms, opt)
	if err != nil {
		return err
	}
	return trace.CopyBatches(sink, src)
}

// Scenario is a parsed scenario/1 file: a named, versioned description
// of a population, its diurnal placement, the 4G/5G split, optional
// per-NF capacities, and a timed fault schedule. The normative field
// reference is SCENARIOS.md.
type Scenario = scenario.Scenario

// StormReport is the storm-propagation report of one scenario replay:
// per-NF queue depth, drop and retry counts, and attach latency as
// time series.
type StormReport = mcn.StormReport

// LoadScenario reads, strictly parses, and validates a scenario/1
// file. Unknown fields and unknown schema versions are rejected.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// ParseScenario reads a scenario/1 document from r (see LoadScenario).
func ParseScenario(r io.Reader) (*Scenario, error) { return scenario.Parse(r) }

// SimulateScenario generates the scenario's ground-truth trace through
// the behavioral world simulator. The same scenario file and seed
// produce a byte-identical trace at any worker count (0 means
// GOMAXPROCS).
func SimulateScenario(s *Scenario, workers int) (*Trace, error) {
	return scenario.Simulate(s, workers)
}

// RunStorm replays a trace through the scenario's fault schedule in
// the NF queueing model and returns the storm-propagation report. The
// report serializes deterministically: identical scenario + trace
// inputs yield identical bytes.
func RunStorm(s *Scenario, tr *Trace) (*StormReport, error) {
	return scenario.Storm(s, tr)
}

// 5G handover scaling factors (paper §6 and §8.2).
const (
	NSAHandoverFactor = fiveg.NSAHandoverFactor
	SAHandoverFactor  = fiveg.SAHandoverFactor
)

// AdaptToNSA derives a 5G non-standalone model from a fitted LTE model
// (same machine, handover frequency scaled).
func AdaptToNSA(ms *Model, hoFactor float64) (*Model, error) { return fiveg.ToNSA(ms, hoFactor) }

// AdaptToSA derives a 5G standalone model (Fig. 6 machine, TAU removed,
// handover frequency scaled).
func AdaptToSA(ms *Model, hoFactor float64) (*Model, error) { return fiveg.ToSA(ms, hoFactor) }
