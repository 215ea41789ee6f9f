package eval

import (
	"errors"
	"fmt"
	"slices"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// lte is the two-level machine every UE's walk runs on, whose bottom
// transitions QTransSojourn quantities name.
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
// at a time (in the UE's time order), then finish. It folds the moves of
// the UE's walk on the two-level machine — the walk the fit folds too —
// into per-type inter-arrivals and counts, macro and REGISTERED
// sojourns, bottom-transition sojourns and the macro-state breakdown.
// Every sample goes to one log of (key, value) pairs in time order,
// which finish groups by key.
type ueCollector struct {
	u    *ueQuantities
	walk sm.Walk

	logKey []uint16
	logVal []float64

	regAt  cp.Millis // when the UE last registered or deregistered, if regHas
	regHas bool
}

func (c *ueCollector) add(h, slot int, v float64) {
	c.logKey = append(c.logKey, uint16(h*nQ+slot))
	c.logVal = append(c.logVal, v)
}

// push feeds the UE's next event to its walk and folds every event the
// walk makes ready. It reports false for an invalid event type.
func (c *ueCollector) push(ev trace.Event) bool {
	ready, ok := c.walk.Push(ev)
	for _, ev := range ready {
		c.fold(ev, c.walk.Step(ev))
	}
	return ok
}

// finish completes the collection: it folds the prefix of a UE that
// never had a Category-1 event, then a stable counting sort groups the
// sample log by key into the UE's quantities. count is scratch of nQ·24
// zeros, left zeroed.
func (c *ueCollector) finish(count []int32) {
	for _, ev := range c.walk.Finish() {
		c.fold(ev, c.walk.Step(ev))
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

// fold files what one event did. Every sample goes under the hour of the
// event that ends it, a sojourn under its exit event's hour (the fit
// files a sojourn under its entry hour instead). Following the paper's
// preprocessing, an inter-arrival exists only when both events fall in
// one (day, hour) cell.
func (c *ueCollector) fold(ev trace.Event, mv sm.Move) {
	h, e := ev.T.HourOfDay(), ev.Type
	c.u.counts[h][e]++
	if mv.HasGap {
		c.add(h, int(e), mv.Gap.Seconds())
	}
	switch mv.Exit {
	case sm.ExitTop:
		if mv.TopHas {
			c.add(h, qStateBase+int(mv.Top), (ev.T - mv.TopAt).Seconds())
		}
		// REGISTERED spans run from ATCH to DTCH.
		if mv.Top.Registered() != mv.Macro.Registered() {
			if c.regHas && mv.Top.Registered() {
				c.add(h, qReg, (ev.T - c.regAt).Seconds())
			}
			c.regAt, c.regHas = ev.T, true
		}
	case sm.ExitBottom:
		if mv.BotHas {
			c.add(h, qTransBase+int(mv.Bottom)*cp.NumEventTypes+int(e), (ev.T - mv.BotAt).Seconds())
		}
	case sm.Stay: // nothing to file
	}
	// Breakdown: a Category-1 event counts in the state it establishes,
	// any other in the state current when it fires.
	c.u.macro[e][mv.Macro]++
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
		colls[i] = ueCollector{u: &quantities[i], walk: sm.NewWalk(lte)}
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
			if !colls[k].push(ev) {
				return fmt.Errorf("eval: event of invalid type %d for UE %d", ev.Type, ue)
			}
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

// CollectPath is Collect over the trace at path: a file is scanned
// incrementally and never held, stdin ("-") is read whole first. A file
// out of canonical order is collected again from the trace sorted in
// memory, and logf says so first.
func CollectPath(path string, logf func(format string, args ...any)) (*Collection, error) {
	var src trace.EventSource
	var err error
	if path == "-" {
		src, err = trace.ReadPath(path)
	} else {
		src, err = trace.NewFileSource(path)
	}
	if err != nil {
		return nil, err
	}
	col, err := Collect(src)
	if errors.Is(err, trace.ErrNotCanonical) {
		logf("%v; collecting from the trace sorted in memory", err)
		var tr *trace.Trace
		if tr, err = trace.ReadPath(path); err == nil {
			tr.Sort()
			col, err = Collect(tr)
		}
	}
	return col, err
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
