package eval

import (
	"fmt"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/par"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// ueQuantities holds every fitted quantity's samples for one UE, bucketed
// by hour-of-day.
type ueQuantities struct {
	samples map[hourQuantity][]float64
	counts  [24][cp.NumEventTypes]int
}

type hourQuantity struct {
	h int8
	q Quantity
}

func (u *ueQuantities) add(h int, q Quantity, v float64) {
	u.samples[hourQuantity{int8(h), q}] = append(u.samples[hourQuantity{int8(h), q}], v)
}

// at returns the samples of quantity q in hour-of-day h.
func (u *ueQuantities) at(h int, q Quantity) []float64 {
	if u == nil {
		return nil
	}
	return u.samples[hourQuantity{int8(h), q}]
}

// features computes the adaptive-clustering features (§5.3) for hour h.
func (u *ueQuantities) features(h, days int) cluster.Features {
	if u == nil {
		return cluster.Features{}
	}
	conn := u.at(h, Quantity{Kind: QStateSojourn, State: cp.StateConnected})
	idle := u.at(h, Quantity{Kind: QStateSojourn, State: cp.StateIdle})
	return cluster.Features{
		cluster.FSrvReqCount: float64(u.counts[h][cp.ServiceRequest]) / float64(days),
		cluster.FConnStd:     stats.StdDev(conn),
		cluster.FS1RelCount:  float64(u.counts[h][cp.S1ConnRelease]) / float64(days),
		cluster.FIdleStd:     stats.StdDev(idle),
	}
}

// ueCollector gathers one UE's fitted quantities incrementally: push one
// event at a time (in the UE's time order), then finish. It fuses what
// used to be three separate passes — per-type inter-arrivals, macro and
// REGISTERED sojourns, and the two-level machine's bottom-transition
// sojourns — into a single walk; each quantity key is written by exactly
// one of the fused strands, so per-key sample order matches the
// multi-pass version exactly.
//
// The initial macro state is only decidable at the first Category-1
// event (or, failing that, from whether the UE ever hands over), so
// events buffer until the decision and replay through the same step
// logic — identical to batch inference, because the first Category-1
// event of the prefix is the first of the whole sequence.
type ueCollector struct {
	u *ueQuantities
	m *sm.Machine

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

func newUECollector() *ueCollector {
	return &ueCollector{
		u: &ueQuantities{samples: make(map[hourQuantity][]float64)},
		m: sm.LTE2Level(),
	}
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
	c.bottom = c.m.SubEntry(macro)
	for _, ev := range c.buf {
		c.step(ev)
	}
	c.buf = nil
}

// finish completes the collection and returns the gathered quantities.
func (c *ueCollector) finish() *ueQuantities {
	if !c.decided && len(c.buf) > 0 {
		c.start()
	}
	return c.u
}

// step processes one event through all three quantity strands.
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
			c.u.add(h, Quantity{Kind: QInterArrival, Event: ev.Type},
				(ev.T - c.lastOfType[ev.Type]).Seconds())
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
				c.u.add(h, Quantity{Kind: QStateSojourn, State: c.macro}, (ev.T - c.macroAt).Seconds())
			}
			c.macro = next
			c.macroAt, c.macroHas = ev.T, true
		}
		if next.Registered() != c.registered {
			if c.regHas && c.registered {
				c.u.add(h, Quantity{Kind: QRegisteredSojourn}, (ev.T - c.regAt).Seconds())
			}
			c.registered = next.Registered()
			c.regAt, c.regHas = ev.T, true
		}

		// A macro change re-enters the sub-machine; the event is not a
		// bottom-level transition then.
		if next != c.botMacro {
			c.botMacro = next
			c.bottom = c.m.SubEntry(next)
			c.botAt, c.botHas = ev.T, true
			return
		}
	}

	// Bottom-level transition sojourns on the two-level machine.
	if to, ok := c.m.Next(c.bottom, ev.Type); ok && c.m.Top(to) == c.botMacro {
		if c.botHas {
			c.u.add(h, Quantity{Kind: QTransSojourn, From: c.bottom, Event: ev.Type},
				(ev.T - c.botAt).Seconds())
		}
		c.bottom = to
		c.botAt, c.botHas = ev.T, true
	}
}

// collectUE walks one UE's time-ordered events and gathers every fitted
// quantity: per-type inter-arrivals, macro-state sojourns (including the
// REGISTERED macro state), and the two-level machine's bottom-transition
// sojourns.
func collectUE(evs []trace.Event) *ueQuantities {
	if len(evs) == 0 {
		return &ueQuantities{samples: make(map[hourQuantity][]float64)}
	}
	c := newUECollector()
	for _, ev := range evs {
		c.push(ev)
	}
	return c.finish()
}

// collected holds every UE's gathered quantities, grouped by device and
// aligned with the ascending UE lists, plus the trace's day span — the
// shared input of the pass-rate sweep and sample pooling, however the
// events arrived.
type collected struct {
	ues  [cp.NumDeviceTypes][]cp.UEID
	data [cp.NumDeviceTypes][]*ueQuantities
	days int
}

func spanDays(hi cp.Millis) int {
	days := int((hi + cp.Day - 1) / cp.Day)
	if days < 1 {
		days = 1
	}
	return days
}

// collectTrace gathers every UE of an in-memory trace concurrently.
func collectTrace(tr *trace.Trace, workers int) *collected {
	_, hi := tr.Span()
	col := &collected{days: spanDays(hi)}
	perUE := tr.PerUE()
	for _, d := range cp.DeviceTypes {
		ues := tr.UEsOfType(d)
		data := make([]*ueQuantities, len(ues))
		par.For(len(ues), workers, func(i int) {
			data[i] = collectUE(perUE[ues[i]])
		})
		col.ues[d], col.data[d] = ues, data
	}
	return col
}

// collectSource gathers every UE's quantities in one pass over a
// streaming source: each UE gets an incremental collector fed as its
// events interleave in global time order, so the full event list is
// never materialized (peak memory is the collectors' samples, not the
// trace).
func collectSource(src trace.EventSource) (*collected, error) {
	devOf := make(map[cp.UEID]cp.DeviceType)
	col := &collected{}
	err := src.Devices(func(ue cp.UEID, d cp.DeviceType) error {
		if !d.Valid() {
			return fmt.Errorf("eval: UE %d has invalid device %d", ue, d)
		}
		if _, dup := devOf[ue]; dup {
			return fmt.Errorf("eval: duplicate registration for UE %d", ue)
		}
		devOf[ue] = d
		col.ues[d] = append(col.ues[d], ue)
		return nil
	})
	if err != nil {
		return nil, err
	}
	colls := make(map[cp.UEID]*ueCollector, len(devOf))
	var hi cp.Millis
	err = src.ScanBatches(trace.Unbatch(func(ev trace.Event) error {
		if _, ok := devOf[ev.UE]; !ok {
			return fmt.Errorf("eval: event for unregistered UE %d", ev.UE)
		}
		c := colls[ev.UE]
		if c == nil {
			c = newUECollector()
			colls[ev.UE] = c
		}
		c.push(ev)
		if ev.T > hi {
			hi = ev.T
		}
		return nil
	}))
	if err != nil {
		return nil, err
	}
	col.days = spanDays(hi)
	for _, d := range cp.DeviceTypes {
		data := make([]*ueQuantities, len(col.ues[d]))
		for i, ue := range col.ues[d] {
			if c := colls[ue]; c != nil {
				data[i] = c.finish()
			}
		}
		col.data[d] = data
	}
	return col, nil
}

// pool gathers each quantity's samples across all hours of the given
// UEs (ascending UE id, a nil entry for a UE without events): result[i]
// holds the samples of qs[i].
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
// UEs of a device type, from one collection of the trace: result[i]
// holds the samples of qs[i]. UEs are collected concurrently and pooled
// in ascending UE-id order, so the sample sequence — and any float
// reduction downstream of it — is reproducible.
func QuantitySamples(tr *trace.Trace, d cp.DeviceType, qs []Quantity) [][]float64 {
	return pool(collectTrace(tr, 0).data[d], qs)
}

// QuantitySamplesSource pools the same samples QuantitySamples would,
// but from a streaming source in one pass for all the quantities,
// without materializing the trace.
func QuantitySamplesSource(src trace.EventSource, d cp.DeviceType, qs []Quantity) ([][]float64, error) {
	col, err := collectSource(src)
	if err != nil {
		return nil, err
	}
	return pool(col.data[d], qs), nil
}
