package eval

import (
	"fmt"
	"slices"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// lte is the two-level machine whose bottom transitions QTransSojourn
// quantities name.
var lte = sm.LTE2Level()

// The dense quantity index: every Quantity the collector records has one
// slot, QInterArrival first (one per event type), then QStateSojourn (one
// per macro state), QRegisteredSojourn, and QTransSojourn (one per
// two-level state and trigger event).
const (
	qStateBase = cp.NumEventTypes
	qReg       = qStateBase + cp.NumUEStates
	qTransBase = qReg + 1
)

// nQ is the number of quantity slots; a sample's key is hour·nQ + slot.
var nQ = qTransBase + lte.NumStates()*cp.NumEventTypes

// qIndex returns q's slot, or -1 for a quantity the collector never
// records.
func qIndex(q Quantity) int {
	switch q.Kind {
	case QInterArrival:
		if q.Event.Valid() {
			return int(q.Event)
		}
	case QStateSojourn:
		if int(q.State) < cp.NumUEStates {
			return qStateBase + int(q.State)
		}
	case QRegisteredSojourn:
		return qReg
	case QTransSojourn:
		if int(q.From) < lte.NumStates() && q.Event.Valid() {
			return qTransBase + int(q.From)*cp.NumEventTypes + int(q.Event)
		}
	}
	return -1
}

// ueQuantities holds one UE's collected quantities: every sample grouped
// by (hour-of-day, quantity) key in time order within a key, the event
// counts per hour, and the macro-state breakdown of its events.
type ueQuantities struct {
	keys []uint16  // the distinct sample keys, ascending
	ends []int32   // ends[i]: one past the last sample of keys[i] in vals
	vals []float64 // samples, grouped by key

	counts [24][cp.NumEventTypes]int32
	// macro[e][s] counts events of type e attributed to macro state s,
	// as sm.MacroBreakdown attributes them.
	macro [cp.NumEventTypes][cp.NumUEStates]int32
}

// at returns the samples of quantity q in hour-of-day h.
func (u *ueQuantities) at(h int, q Quantity) []float64 {
	qi := qIndex(q)
	if qi < 0 {
		return nil
	}
	i, ok := slices.BinarySearch(u.keys, uint16(h*nQ+qi))
	if !ok {
		return nil
	}
	lo := int32(0)
	if i > 0 {
		lo = u.ends[i-1]
	}
	return u.vals[lo:u.ends[i]:u.ends[i]]
}

// features computes the adaptive-clustering features (§5.3) for hour h.
func (u *ueQuantities) features(h, days int) cluster.Features {
	conn := u.at(h, Quantity{Kind: QStateSojourn, State: cp.StateConnected})
	idle := u.at(h, Quantity{Kind: QStateSojourn, State: cp.StateIdle})
	return cluster.Features{
		cluster.FSrvReqCount: float64(u.counts[h][cp.ServiceRequest]) / float64(days),
		cluster.FConnStd:     stats.StdDev(conn),
		cluster.FS1RelCount:  float64(u.counts[h][cp.S1ConnRelease]) / float64(days),
		cluster.FIdleStd:     stats.StdDev(idle),
	}
}

// ueCollector gathers one UE's quantities incrementally: push one event
// at a time (in the UE's time order), then finish. Four strands share
// the walk — per-type inter-arrivals and counts, macro and REGISTERED
// sojourns, the two-level machine's bottom-transition sojourns, and the
// macro-state breakdown — and every sample goes to one log of (key,
// value) pairs in time order, which finish groups by key.
//
// The initial macro state is only decidable at the first Category-1
// event (or, failing that, from whether the UE ever hands over), so
// events buffer until the decision and replay through the same step
// logic — identical to inferring it from the whole sequence, because the
// first Category-1 event of the prefix is the first of the sequence.
// The zero value is a collector for a UE with no events yet.
type ueCollector struct {
	u *ueQuantities

	logKey []uint16
	logVal []float64

	decided bool
	buf     []trace.Event

	lastOfType     [cp.NumEventTypes]cp.Millis
	lastCellOfType [cp.NumEventTypes]int
	seen           [cp.NumEventTypes]bool

	macro            cp.UEState
	registered       bool
	macroAt, regAt   cp.Millis
	macroHas, regHas bool

	botMacro cp.UEState
	bottom   sm.State
	botAt    cp.Millis
	botHas   bool
}

func (c *ueCollector) add(h, slot int, v float64) {
	c.logKey = append(c.logKey, uint16(h*nQ+slot))
	c.logVal = append(c.logVal, v)
}

func (c *ueCollector) push(ev trace.Event) {
	if !c.decided {
		c.buf = append(c.buf, ev)
		if sm.Category1(ev.Type) {
			c.start()
		}
		return
	}
	c.step(ev)
}

// start fixes the initial macro state from the buffered prefix and
// replays it.
func (c *ueCollector) start() {
	c.decided = true
	macro := sm.InferMacroInitial(c.buf)
	c.macro = macro
	c.registered = macro.Registered()
	c.botMacro = macro
	c.bottom = lte.SubEntry(macro)
	for _, ev := range c.buf {
		c.step(ev)
	}
	c.buf = nil
}

// finish completes the collection: a stable counting sort groups the
// sample log by key into the UE's quantities. count is scratch of nQ·24
// zeros, left zeroed.
func (c *ueCollector) finish(count []int32) {
	if !c.decided && len(c.buf) > 0 {
		c.start()
	}
	u := c.u
	for _, k := range c.logKey {
		count[k]++
	}
	var end int32
	for k, n := range count {
		if n > 0 {
			u.keys = append(u.keys, uint16(k))
			count[k] = end // the key's next write position
			end += n
			u.ends = append(u.ends, end)
		}
	}
	u.vals = make([]float64, len(c.logVal))
	for i, k := range c.logKey {
		u.vals[count[k]] = c.logVal[i]
		count[k]++
	}
	for _, k := range u.keys {
		count[k] = 0
	}
	c.logKey, c.logVal = nil, nil
}

// step processes one event through all four strands.
func (c *ueCollector) step(ev trace.Event) {
	h := ev.T.HourOfDay()
	cell := ev.T.HourIndex()

	// Inter-arrivals and counts. Following the paper's preprocessing,
	// the trace is divided into non-overlapping 1-hour intervals first:
	// an inter-arrival sample exists only when both endpoints fall in
	// the same interval.
	if ev.Type.Valid() {
		c.u.counts[h][ev.Type]++
		if c.seen[ev.Type] && c.lastCellOfType[ev.Type] == cell {
			c.add(h, int(ev.Type), (ev.T - c.lastOfType[ev.Type]).Seconds())
		}
		c.lastOfType[ev.Type] = ev.T
		c.lastCellOfType[ev.Type] = cell
		c.seen[ev.Type] = true
	}

	if sm.Category1(ev.Type) {
		var next cp.UEState
		//cplint:partial-ok guarded by sm.Category1: only the four Category-1 events reach this switch
		switch ev.Type {
		case cp.Attach, cp.ServiceRequest:
			next = cp.StateConnected
		case cp.Detach:
			next = cp.StateDeregistered
		case cp.S1ConnRelease:
			next = cp.StateIdle
		}

		// Macro-state and REGISTERED sojourns.
		if next != c.macro {
			if c.macroHas {
				c.add(h, qStateBase+int(c.macro), (ev.T - c.macroAt).Seconds())
			}
			c.macro = next
			c.macroAt, c.macroHas = ev.T, true
		}
		if next.Registered() != c.registered {
			if c.regHas && c.registered {
				c.add(h, qReg, (ev.T - c.regAt).Seconds())
			}
			c.registered = next.Registered()
			c.regAt, c.regHas = ev.T, true
		}
	}

	// Breakdown: a Category-1 event counts in the state it establishes,
	// any other in the state current when it fires.
	if ev.Type.Valid() {
		c.u.macro[ev.Type][c.macro]++
	}

	// A macro change re-enters the sub-machine; the event is not a
	// bottom-level transition then.
	if sm.Category1(ev.Type) && c.macro != c.botMacro {
		c.botMacro = c.macro
		c.bottom = lte.SubEntry(c.macro)
		c.botAt, c.botHas = ev.T, true
		return
	}

	// Bottom-level transition sojourns on the two-level machine.
	if to, ok := lte.Next(c.bottom, ev.Type); ok && lte.Top(to) == c.botMacro {
		if c.botHas {
			c.add(h, qTransBase+int(c.bottom)*cp.NumEventTypes+int(ev.Type), (ev.T - c.botAt).Seconds())
		}
		c.bottom = to
		c.botAt, c.botHas = ev.T, true
	}
}

// Collection is one pass's worth of per-UE statistics over a trace: every
// UE's fitted quantities, event counts and macro-state breakdown,
// grouped by device in ascending UE order, plus the trace's day span. It
// is the input of every per-UE table: PassRates, QuantitySamples,
// ComputeBreakdown, EventsPerUE, StateSojourns, ComputeMicroDistances
// and ActivitySplit.
type Collection struct {
	ues  [cp.NumDeviceTypes][]cp.UEID
	data [cp.NumDeviceTypes][]*ueQuantities
	days int
}

// Collect gathers every UE's statistics in one pass over a source: one
// Devices and one ScanBatches, each UE's events fed to its own
// incremental collector as they interleave in time order, so the event
// sequence is never held (peak memory is the samples, not the trace). A
// *trace.Trace is a source too. A scan error — trace.ErrNotCanonical
// from a file out of canonical order among them — is returned as is.
func Collect(src trace.EventSource) (*Collection, error) {
	col := &Collection{}
	index := make(map[cp.UEID]int32)
	var devs []cp.DeviceType
	err := src.Devices(func(ue cp.UEID, d cp.DeviceType) error {
		if !d.Valid() {
			return fmt.Errorf("eval: UE %d has invalid device %d", ue, d)
		}
		if _, dup := index[ue]; dup {
			return fmt.Errorf("eval: duplicate registration for UE %d", ue)
		}
		index[ue] = int32(len(devs))
		devs = append(devs, d)
		col.ues[d] = append(col.ues[d], ue)
		return nil
	})
	if err != nil {
		return nil, err
	}
	quantities := make([]ueQuantities, len(devs))
	colls := make([]ueCollector, len(devs))
	for i, d := range devs {
		colls[i].u = &quantities[i]
		col.data[d] = append(col.data[d], &quantities[i])
	}
	var hi cp.Millis // one past the latest event, as Trace.Span reports it
	err = src.ScanBatches(func(b *trace.Batch) error {
		for i, ue := range b.UE {
			k, ok := index[ue]
			if !ok {
				return fmt.Errorf("eval: event for unregistered UE %d", ue)
			}
			ev := trace.Event{T: b.T[i], UE: ue, Type: b.Type[i]}
			colls[k].push(ev)
			if ev.T >= hi {
				hi = ev.T + 1
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	count := make([]int32, 24*nQ)
	for i := range colls {
		colls[i].finish(count)
	}
	col.days = spanDays(hi)
	return col, nil
}

// UEs returns the collected UEs of device type d, in ascending order.
func (col *Collection) UEs(d cp.DeviceType) []cp.UEID { return col.ues[d] }

func spanDays(hi cp.Millis) int {
	days := int((hi + cp.Day - 1) / cp.Day)
	if days < 1 {
		days = 1
	}
	return days
}

// pool gathers each quantity's samples across all hours of the given
// UEs: result[i] holds the samples of qs[i].
func pool(data []*ueQuantities, qs []Quantity) [][]float64 {
	out := make([][]float64, len(qs))
	for i, q := range qs {
		for _, u := range data {
			for h := 0; h < 24; h++ {
				out[i] = append(out[i], u.at(h, q)...)
			}
		}
	}
	return out
}

// QuantitySamples pools each quantity's samples across all hours and all
// UEs of a device type: result[i] holds the samples of qs[i], in
// ascending UE-id order, so the sample sequence — and any float reduction
// downstream of it — is reproducible.
func QuantitySamples(col *Collection, d cp.DeviceType, qs []Quantity) [][]float64 {
	return pool(col.data[d], qs)
}
