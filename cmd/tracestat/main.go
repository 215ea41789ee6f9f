// Command tracestat summarizes a control-plane trace: population and
// event totals, per-device breakdowns with the HO/TAU macro-state split,
// the diurnal load profile, per-network-function transaction load, and a
// protocol-conformance check against the two-level machine.
//
// Usage:
//
//	tracestat -i world.trace
//	tracestat -i syn.trace -machine 5g-sa
//	worldgen -stream | tracestat
//
// The trace, text or binary, from a file or stdin, is read once, in
// struct-of-arrays batches through the incremental scanner, so peak
// memory is O(UEs) whatever its length. The last line reports ingest
// throughput and the process's memory footprint.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/mcn"
	"cptraffic/internal/report"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

// ueStat is the per-UE state of the incremental statistics pass: the
// macro tracker behind the HO/TAU breakdown split and the sm.Cursor
// behind the conformance check. Both need only the current state, so the
// whole pass holds O(UEs) memory however long the trace is.
type ueStat struct {
	dev cp.DeviceType

	// Breakdown: the initial macro state is decidable at the first
	// Category-1 event (sm.InferMacroInitial); HO/TAU seen before then
	// are held as counts and attributed once it is known.
	decided         bool
	macro           cp.UEState
	pendHO, pendTAU int

	conf sm.Cursor
}

// statCollector accumulates every tracestat figure in one pass over
// registrations and events, in any per-UE-ordered delivery.
type statCollector struct {
	m   *sm.Machine
	ues map[cp.UEID]*ueStat

	devUEs    [cp.NumDeviceTypes]int
	devCounts [cp.NumDeviceTypes]map[string]int
	devTotal  [cp.NumDeviceTypes]int

	perHour    [24]int
	nf         [mcn.NumNFs]int
	events     int
	lo, hi     cp.Millis
	violations int
}

func newStatCollector(m *sm.Machine) *statCollector {
	s := &statCollector{m: m, ues: make(map[cp.UEID]*ueStat)}
	for d := range s.devCounts {
		s.devCounts[d] = make(map[string]int)
	}
	return s
}

func (s *statCollector) register(ue cp.UEID, d cp.DeviceType) error {
	if _, dup := s.ues[ue]; dup {
		return fmt.Errorf("duplicate registration for UE %d", ue)
	}
	s.ues[ue] = &ueStat{dev: d}
	if d.Valid() {
		s.devUEs[d]++
	}
	return nil
}

func (s *statCollector) addBreakdown(d cp.DeviceType, key string, n int) {
	if !d.Valid() || n == 0 {
		return
	}
	s.devCounts[d][key] += n
	s.devTotal[d] += n
}

func (s *statCollector) push(ev trace.Event) error {
	u, ok := s.ues[ev.UE]
	if !ok {
		return fmt.Errorf("event for unregistered UE %d", ev.UE)
	}
	if s.events == 0 || ev.T < s.lo {
		s.lo = ev.T
	}
	if ev.T > s.hi {
		s.hi = ev.T
	}
	s.events++
	s.perHour[ev.T.HourOfDay()]++
	tx := mcn.Transactions(ev.Type)
	for n := 0; n < mcn.NumNFs; n++ {
		s.nf[n] += tx[n]
	}

	// Breakdown with HO/TAU split by macro state.
	if sm.Category1(ev.Type) {
		if !u.decided {
			u.decided = true
			initial := sm.InferMacroInitial([]trace.Event{ev})
			s.addBreakdown(u.dev, eval.BreakdownKey(cp.Handover, initial), u.pendHO)
			s.addBreakdown(u.dev, eval.BreakdownKey(cp.TrackingAreaUpdate, initial), u.pendTAU)
			u.pendHO, u.pendTAU = 0, 0
		}
		u.macro = sm.MacroAfter(ev.Type)
		s.addBreakdown(u.dev, eval.BreakdownKey(ev.Type, u.macro), 1)
	} else if !u.decided {
		switch ev.Type {
		case cp.Handover:
			u.pendHO++
		case cp.TrackingAreaUpdate:
			u.pendTAU++
		}
	} else {
		s.addBreakdown(u.dev, eval.BreakdownKey(ev.Type, u.macro), 1)
	}

	if _, legal := u.conf.Step(s.m, ev.Type); !legal {
		s.violations++
	}
	return nil
}

// finish attributes the held HO/TAU counts of UEs that never emitted a
// Category-1 event, using sm.InferMacroInitial's fallback: any handover
// implies CONNECTED, otherwise IDLE.
func (s *statCollector) finish() {
	for _, u := range s.ues {
		if u.decided || (u.pendHO == 0 && u.pendTAU == 0) {
			continue
		}
		initial := cp.StateIdle
		if u.pendHO > 0 {
			initial = cp.StateConnected
		}
		s.addBreakdown(u.dev, eval.BreakdownKey(cp.Handover, initial), u.pendHO)
		s.addBreakdown(u.dev, eval.BreakdownKey(cp.TrackingAreaUpdate, initial), u.pendTAU)
		u.pendHO, u.pendTAU = 0, 0
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestat: ")
	var (
		in      = flag.String("i", "-", "input trace ('-' for stdin)")
		machine = flag.String("machine", "lte", "conformance machine: lte | emm-ecm | 5g-sa")
	)
	flag.Parse()

	r := os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	var m *sm.Machine
	switch strings.ToLower(*machine) {
	case "lte":
		m = sm.LTE2Level()
	case "emm-ecm":
		m = sm.EMMECM()
	case "5g-sa":
		m = sm.FiveGSA()
	default:
		log.Fatalf("unknown machine %q", *machine)
	}

	s := newStatCollector(m)
	begin := time.Now()
	sc, err := trace.NewScanner(r)
	if err != nil {
		log.Fatal(err)
	}
	if err := sc.Devices(s.register); err != nil {
		log.Fatal(err)
	}
	b := trace.NewBatch(trace.DefaultBatchSize)
	for sc.ScanBatch(b) {
		for i := 0; i < b.Len(); i++ {
			if err := s.push(b.At(i)); err != nil {
				log.Fatal(err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	s.finish()
	elapsed := time.Since(begin)

	fmt.Printf("UEs: %d   events: %d   span: [%.1f h, %.1f h)\n\n",
		len(s.ues), s.events, s.lo.Seconds()/3600, s.hi.Seconds()/3600)

	devTbl := report.Table{
		Title:  "Per-device breakdown (HO/TAU split by macro state)",
		Header: append([]string{"Device", "UEs", "Events"}, eval.BreakdownKeys...),
	}
	for _, d := range cp.DeviceTypes {
		if s.devUEs[d] == 0 {
			continue
		}
		row := []string{d.String(), fmt.Sprintf("%d", s.devUEs[d]), fmt.Sprintf("%d", s.devTotal[d])}
		for _, k := range eval.BreakdownKeys {
			share := 0.0
			if s.devTotal[d] > 0 {
				share = float64(s.devCounts[d][k]) / float64(s.devTotal[d])
			}
			row = append(row, report.Pct(share))
		}
		devTbl.AddRow(row...)
	}
	if err := devTbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	diurnal := report.Table{Title: "Diurnal profile", Header: []string{"Hour", "Events", "Share"}}
	for h, c := range s.perHour {
		if c == 0 {
			continue
		}
		diurnal.AddRow(fmt.Sprintf("%02d", h), fmt.Sprintf("%d", c),
			report.Pct(float64(c)/float64(s.events)))
	}
	if err := diurnal.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	nfTbl := report.Table{Title: "Per-network-function transactions", Header: []string{"NF", "Transactions"}}
	for n := 0; n < mcn.NumNFs; n++ {
		nfTbl.AddRow(mcn.NF(n).String(), fmt.Sprintf("%d", s.nf[n]))
	}
	if err := nfTbl.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Conformance vs %s: %d violations across %d events\n",
		m.Name, s.violations, s.events)

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	fmt.Printf("Ingest: %d events in %.2f s (%.0f events/s)   heap: %.1f MiB live, %.1f MiB peak from OS\n",
		s.events, elapsed.Seconds(), float64(s.events)/elapsed.Seconds(),
		float64(mem.HeapAlloc)/(1<<20), float64(mem.Sys)/(1<<20))
}
