package mcn

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// StormConfig parameterizes a signaling-storm replay: per-NF service
// capacities, the client retry discipline, the queue bound, the report
// binning, the 4G/5G population split, and the fault schedule.
type StormConfig struct {
	// Capacity is each NF's healthy service rate in transactions per
	// second. Entries <= 0 are derived from the offered load with 30%
	// headroom (1.3x the NF's mean transaction rate, floor 1 tx/s) — a
	// core sized comfortably for the healthy trace, so every observed
	// storm is attributable to the fault schedule.
	Capacity Capacity
	// TimeoutSec is the client retry timeout: a transaction whose
	// queueing wait exceeds it is re-sent. 0 means the default 1 s.
	TimeoutSec float64
	// MaxRetries caps re-sends per transaction. 0 means the default 2;
	// negative disables retries entirely.
	MaxRetries int
	// MaxQueue bounds each NF's pending-transaction queue; arrivals
	// beyond it are dropped. 0 means the default 10000.
	MaxQueue int
	// Bin is the report time-series resolution. 0 means one minute.
	Bin cp.Millis
	// SAShare is the fraction of UEs treated as 5G standalone. SA has no
	// tracking-area update (paper Table 2), so TAU events of SA UEs are
	// filtered before the replay; membership is a deterministic hash of
	// the UE id, independent of population size.
	SAShare float64
	// Faults is the fault schedule, validated by ValidateSchedule.
	Faults []Fault
}

const (
	defaultTimeoutSec = 1.0
	defaultMaxRetries = 2
	defaultMaxQueue   = 10000
	// capacityHeadroom sizes derived capacities above the healthy
	// offered load.
	capacityHeadroom = 1.3
)

// NFStormReport is one network function's view of the storm.
type NFStormReport struct {
	NF           string  `json:"nf"`
	Capacity     float64 `json:"capacity_tps"`
	Transactions int     `json:"transactions"`
	Drops        int     `json:"drops"`
	Retries      int     `json:"retries"`
	PeakQueue    int     `json:"peak_queue"`
	PeakDelaySec float64 `json:"peak_delay_sec"`
	// QueueDepth is the number of accepted-but-uncompleted transactions
	// at each bin boundary; DropSeries and RetrySeries count drops and
	// re-sends per bin.
	QueueDepth  []int `json:"queue_depth"`
	DropSeries  []int `json:"drop_series"`
	RetrySeries []int `json:"retry_series"`
}

// AttachLatency is the per-bin latency profile of attach procedures:
// the time from the ATCH event to the completion of its slowest NF
// transaction. Attaches with any dropped transaction count in Dropped
// and are excluded from the latency series.
type AttachLatency struct {
	Count   []int     `json:"count"`
	MeanSec []float64 `json:"mean_sec"`
	MaxSec  []float64 `json:"max_sec"`
	Dropped int       `json:"dropped"`
}

// StormReport is the storm-propagation report of one replay: how load,
// queue depth, loss, retries, and attach latency moved through the NF
// pool under the fault schedule. It serializes deterministically —
// identical replays produce identical bytes.
type StormReport struct {
	Scenario         string          `json:"scenario,omitempty"`
	BinSec           float64         `json:"bin_sec"`
	Bins             int             `json:"bins"`
	SpanSec          float64         `json:"span_sec"`
	Events           int             `json:"events"`
	InjectedAttaches int             `json:"injected_attaches"`
	FilteredTAUs     int             `json:"filtered_taus"`
	PerNF            []NFStormReport `json:"per_nf"`
	Attach           AttachLatency   `json:"attach"`
}

// WriteJSON serializes the report as indented JSON. The field order is
// fixed by the struct, and every number is the result of the serial
// replay fold, so the bytes are identical for identical inputs.
func (r *StormReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// SAMember reports whether a UE belongs to the 5G SA share, via the same
// multiplicative hash the instance shard uses so membership is
// deterministic and independent of population size.
func SAMember(ue cp.UEID, share float64) bool {
	if share <= 0 {
		return false
	}
	if share >= 1 {
		return true
	}
	h := uint64(ue) * 0x9E3779B97F4A7C15
	return float64(h>>11)/float64(uint64(1)<<53) < share
}

// nfQueue tracks one NF's outstanding transactions as a FIFO of
// completion times (completions are monotonic, so a head-indexed slice
// suffices and its backing array is reused).
type nfQueue struct {
	done []float64
	head int
}

func (q *nfQueue) len() int { return len(q.done) - q.head }

func (q *nfQueue) push(t float64) { q.done = append(q.done, t) }

// evict pops every transaction completed by time t.
func (q *nfQueue) evict(t float64) {
	for q.head < len(q.done) && q.done[q.head] <= t {
		q.head++
	}
	if q.head == len(q.done) {
		q.done, q.head = q.done[:0], 0
	}
}

// faultWindow is a pre-resolved fault window in float seconds.
type faultWindow struct {
	start, end float64
	factor     float64
}

// stormState is the per-replay engine state.
type stormState struct {
	cfg      StormConfig
	cap      Capacity
	timeout  float64
	retries  int
	maxQueue int

	// per-NF fault windows, in schedule order.
	outages   [NumNFs][]faultWindow
	slowdowns [NumNFs][]faultWindow
	storms    [NumNFs][]faultWindow

	free  [NumNFs]float64
	queue [NumNFs]nfQueue

	lo   cp.Millis
	bin  cp.Millis
	bins int

	// evBin and doneBin find the bins of events and of each NF's
	// completions (binCursor).
	evBin   binCursor
	doneBin [NumNFs]binCursor

	arr  [NumNFs][]int // accepted arrivals per bin
	comp [NumNFs][]int // completions per bin (within horizon)
	drop [NumNFs][]int
	rtry [NumNFs][]int

	attachSum []float64 // attach latencies per bin, for the mean

	rep *StormReport
}

// skipOutage pushes a service start time past any active outage window.
func (s *stormState) skipOutage(n int, start float64) float64 {
	for moved := true; moved; {
		moved = false
		for _, w := range s.outages[n] {
			if start >= w.start && start < w.end {
				start = w.end
				moved = true
			}
		}
	}
	return start
}

// serviceTime returns one transaction's service duration at an NF, with
// every active slowdown compounding.
func (s *stormState) serviceTime(n int, at float64) float64 {
	rate := s.cap[n]
	for _, w := range s.slowdowns[n] {
		if at >= w.start && at < w.end {
			rate /= w.factor
		}
	}
	return 1 / rate
}

// timeoutAt returns the client retry timeout for an NF at a time, with
// every active retry storm compounding.
func (s *stormState) timeoutAt(n int, at float64) float64 {
	tmo := s.timeout
	for _, w := range s.storms[n] {
		if at >= w.start && at < w.end {
			tmo /= w.factor
		}
	}
	return tmo
}

// binCursor walks the report's bins along non-decreasing times, so that
// a time's bin costs a comparison instead of a 64-bit division. Both
// walks qualify: the merged event stream is sorted, and an NF's
// completion times never decrease — a service starts no earlier than the
// NF is free, which is no earlier than its previous completion, and
// lasts a positive time.
type binCursor struct {
	b, last int       // the current bin and the report's last
	end     cp.Millis // bin b's exclusive upper edge
	width   cp.Millis
}

func newBinCursor(lo, width cp.Millis, bins int) binCursor {
	return binCursor{last: bins - 1, end: lo + width, width: width}
}

// at returns t's bin, clamped to the report: a time before the first bin
// falls in bin 0, one past the last in the last, where end is then the
// horizon. t must not precede the previous call's.
func (c *binCursor) at(t cp.Millis) int {
	for t >= c.end && c.b < c.last {
		c.b++
		c.end += c.width
	}
	return c.b
}

// injectedAttaches expands every mass_reattach fault into its wave of
// synthetic ATCH events: the first round(Fraction x population) UEs in
// ascending id order, spread uniformly over the fault window. The wave
// is returned in canonical event order.
func injectedAttaches(ids []cp.UEID, faults []Fault) []trace.Event {
	var out []trace.Event
	for _, f := range faults {
		if f.Kind != FaultMassReattach {
			continue
		}
		k := int(math.Round(f.Fraction * float64(len(ids))))
		if k <= 0 {
			continue
		}
		if k > len(ids) {
			k = len(ids)
		}
		for i := 0; i < k; i++ {
			t := f.Start + cp.Millis(int64(i)*int64(f.Duration)/int64(k))
			out = append(out, trace.Event{T: t, UE: ids[i], Type: cp.Attach})
		}
	}
	// Waves from different faults interleave; restore canonical order.
	// Each wave is already sorted, so this is nearly free.
	sortEvents(out)
	return out
}

// sortEvents sorts events into canonical Event.Before order with a
// simple merge-friendly insertion-free sort (stdlib sort).
func sortEvents(evs []trace.Event) {
	if len(evs) < 2 {
		return
	}
	tr := trace.Trace{Events: evs}
	if !tr.Sorted() {
		tr.Sort()
	}
}

// ReplayStorm replays a sorted trace through the fault-bearing FIFO
// queueing model of the five network functions and reports storm
// propagation: per-NF queue depth, drop and retry counts, and the
// attach-latency profile, all as time series.
//
// The replay is a single serial fold over the merged (trace + injected
// re-attach) event stream, so the report — like everything else in this
// repo — is byte-identical for identical inputs at any worker count of
// the stages that produced the trace.
func ReplayStorm(tr *trace.Trace, cfg StormConfig) (*StormReport, error) {
	s, injected, err := newStorm(tr, cfg)
	if err != nil {
		return nil, err
	}
	// Merge the sorted trace with the sorted injected wave; ties go to
	// the trace event (a stable, documented choice).
	j := 0
	for _, e := range tr.Events {
		for j < len(injected) && injected[j].Before(e) {
			s.process(injected[j], true)
			j++
		}
		s.process(e, false)
	}
	for ; j < len(injected); j++ {
		s.process(injected[j], true)
	}
	return s.finish(), nil
}

// newStorm validates the replay's inputs and prepares its state: fault
// windows, the injected re-attach wave, the report horizon and bins, and
// the resolved capacities.
func newStorm(tr *trace.Trace, cfg StormConfig) (*stormState, []trace.Event, error) {
	if tr.Len() == 0 {
		return nil, nil, fmt.Errorf("mcn: ReplayStorm needs a non-empty trace")
	}
	// The one pass before the replay: the order check, and the events the
	// replay keeps counted per type, from which the offered load follows.
	var kept [cp.NumEventTypes]int
	evs := tr.Events
	for i, e := range evs {
		if i > 0 && e.Before(evs[i-1]) {
			return nil, nil, fmt.Errorf("mcn: ReplayStorm needs a sorted trace")
		}
		if e.Type == cp.TrackingAreaUpdate && SAMember(e.UE, cfg.SAShare) || !e.Type.Valid() {
			continue // filtered, or no transactions
		}
		kept[e.Type]++
	}
	if cfg.SAShare < 0 || cfg.SAShare > 1 {
		return nil, nil, fmt.Errorf("mcn: SAShare must be in [0, 1]")
	}
	if err := ValidateSchedule(cfg.Faults); err != nil {
		return nil, nil, err
	}

	s := &stormState{cfg: cfg}
	s.timeout = cfg.TimeoutSec
	if s.timeout == 0 {
		s.timeout = defaultTimeoutSec
	}
	s.retries = cfg.MaxRetries
	if s.retries == 0 {
		s.retries = defaultMaxRetries
	}
	s.maxQueue = cfg.MaxQueue
	if s.maxQueue == 0 {
		s.maxQueue = defaultMaxQueue
	}
	s.bin = cfg.Bin
	if s.bin == 0 {
		s.bin = cp.Minute
	}
	if s.bin < 0 {
		return nil, nil, fmt.Errorf("mcn: Bin must be positive")
	}

	for _, f := range cfg.Faults {
		w := faultWindow{start: f.Start.Seconds(), end: f.End().Seconds(), factor: f.Factor}
		switch f.Kind {
		case FaultOutage:
			s.outages[f.NF] = append(s.outages[f.NF], w)
		case FaultSlowdown:
			s.slowdowns[f.NF] = append(s.slowdowns[f.NF], w)
		case FaultRetryStorm:
			s.storms[f.NF] = append(s.storms[f.NF], w)
		case FaultMassReattach:
			// Expanded into injected events below.
		default:
			return nil, nil, fmt.Errorf("mcn: invalid fault kind %d", f.Kind)
		}
	}

	injected := injectedAttaches(tr.UEs(), cfg.Faults)

	// The report horizon covers the trace, every fault window, and every
	// injected event.
	lo, hi := evs[0].T, evs[len(evs)-1].T+1
	for _, f := range cfg.Faults {
		if f.Start < lo {
			lo = f.Start
		}
		if f.End() > hi {
			hi = f.End()
		}
	}
	if len(injected) > 0 {
		if injected[0].T < lo {
			lo = injected[0].T
		}
		if last := injected[len(injected)-1].T + 1; last > hi {
			hi = last
		}
	}
	s.lo = lo
	s.bins = int((hi - lo + s.bin - 1) / s.bin)
	if s.bins < 1 {
		s.bins = 1
	}
	spanSec := (hi - lo).Seconds()

	// Resolve capacities: explicit entries as given, the rest derived
	// from the healthy offered load (filtered + injected) with headroom.
	s.cap = cfg.Capacity
	for _, e := range injected {
		kept[e.Type]++
	}
	var offered [NumNFs]int
	for typ, k := range kept {
		tx := Transactions(cp.EventType(typ))
		for n := range offered {
			offered[n] += k * tx[n]
		}
	}
	for n := 0; n < NumNFs; n++ {
		if s.cap[n] <= 0 {
			derived := capacityHeadroom * float64(offered[n]) / spanSec
			if derived < 1 {
				derived = 1
			}
			s.cap[n] = derived
		}
	}

	s.rep = &StormReport{
		BinSec:  s.bin.Seconds(),
		Bins:    s.bins,
		SpanSec: spanSec,
		PerNF:   make([]NFStormReport, NumNFs),
		Attach: AttachLatency{
			Count:   make([]int, s.bins),
			MeanSec: make([]float64, s.bins),
			MaxSec:  make([]float64, s.bins),
		},
	}
	s.evBin = newBinCursor(s.lo, s.bin, s.bins)
	for n := 0; n < NumNFs; n++ {
		s.doneBin[n] = newBinCursor(s.lo, s.bin, s.bins)
		s.arr[n] = make([]int, s.bins)
		s.comp[n] = make([]int, s.bins)
		s.drop[n] = make([]int, s.bins)
		s.rtry[n] = make([]int, s.bins)
	}
	s.attachSum = make([]float64, s.bins)
	return s, injected, nil
}

// process is the replay's fold step: one event's transactions through
// every NF it touches, in the order the merged stream delivers them.
func (s *stormState) process(e trace.Event, isInjected bool) {
	rep := s.rep
	if !isInjected && e.Type == cp.TrackingAreaUpdate && SAMember(e.UE, s.cfg.SAShare) {
		rep.FilteredTAUs++
		return
	}
	rep.Events++
	if isInjected {
		rep.InjectedAttaches++
	}
	t := e.T.Seconds()
	b := s.evBin.at(e.T)
	tx := Transactions(e.Type)
	dropped := false
	latency := 0.0
	for n := 0; n < NumNFs; n++ {
		for k := 0; k < tx[n]; k++ {
			q := &s.queue[n]
			q.evict(t)
			if q.len() >= s.maxQueue {
				rep.PerNF[n].Drops++
				s.drop[n][b]++
				dropped = true
				continue
			}
			start := t
			if s.free[n] > start {
				start = s.free[n]
			}
			start = s.skipOutage(n, start)
			svc := s.serviceTime(n, start)
			done := start + svc
			s.free[n] = done
			wait := start - t
			if s.retries > 0 {
				tmo := s.timeoutAt(n, t)
				if tmo > 0 && wait > tmo {
					r := int(wait / tmo)
					if r > s.retries {
						r = s.retries
					}
					rep.PerNF[n].Retries += r
					s.rtry[n][b] += r
					// Each re-send consumes one extra service slot.
					s.free[n] += float64(r) * svc
				}
			}
			q.push(done)
			if q.len() > rep.PerNF[n].PeakQueue {
				rep.PerNF[n].PeakQueue = q.len()
			}
			delay := done - t
			if delay > rep.PerNF[n].PeakDelaySec {
				rep.PerNF[n].PeakDelaySec = delay
			}
			if delay > latency {
				latency = delay
			}
			rep.PerNF[n].Transactions++
			s.arr[n][b]++
			doneMs := cp.MillisFromSeconds(done)
			c := &s.doneBin[n]
			if db := c.at(doneMs); doneMs < c.end { // within the horizon
				s.comp[n][db]++
			}
		}
	}
	if e.Type == cp.Attach {
		if dropped {
			rep.Attach.Dropped++
		} else {
			rep.Attach.Count[b]++
			s.attachSum[b] += latency
			if latency > rep.Attach.MaxSec[b] {
				rep.Attach.MaxSec[b] = latency
			}
		}
	}
}

// finish turns the fold's per-bin counters into the report's series.
func (s *stormState) finish() *StormReport {
	rep := s.rep
	for n := 0; n < NumNFs; n++ {
		p := &rep.PerNF[n]
		p.NF = NF(n).String()
		p.Capacity = s.cap[n]
		p.QueueDepth = make([]int, s.bins)
		depth := 0
		for b := 0; b < s.bins; b++ {
			depth += s.arr[n][b] - s.comp[n][b]
			p.QueueDepth[b] = depth
		}
		p.DropSeries = s.drop[n]
		p.RetrySeries = s.rtry[n]
	}
	for b := 0; b < s.bins; b++ {
		if c := rep.Attach.Count[b]; c > 0 {
			rep.Attach.MeanSec[b] = s.attachSum[b] / float64(c)
		}
	}
	return rep
}
