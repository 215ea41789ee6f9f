package mcn

import (
	"fmt"
	"reflect"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// binOf is the division the replay's bin cursors replaced, kept as their
// oracle: t's bin, clamped into [0, bins-1].
func (s *stormState) binOf(t cp.Millis) int {
	b := int((t - s.lo) / s.bin)
	if b < 0 {
		b = 0
	}
	if b >= s.bins {
		b = s.bins - 1
	}
	return b
}

// replayByDivision is ReplayStorm with every bin found by division: the
// same state, merge and transaction model, with process replaced by
// processByDivision.
func replayByDivision(tr *trace.Trace, cfg StormConfig) (*StormReport, error) {
	s, injected, err := newStorm(tr, cfg)
	if err != nil {
		return nil, err
	}
	j := 0
	for _, e := range tr.Events {
		for j < len(injected) && injected[j].Before(e) {
			s.processByDivision(injected[j], true)
			j++
		}
		s.processByDivision(e, false)
	}
	for ; j < len(injected); j++ {
		s.processByDivision(injected[j], true)
	}
	return s.finish(), nil
}

// processByDivision is process as it was before the bin cursors: an
// event's bin is binOf, a completion's the unclamped quotient, counted
// only below bins.
func (s *stormState) processByDivision(e trace.Event, isInjected bool) {
	rep := s.rep
	if !isInjected && SAMember(e.UE, s.cfg.SAShare) && e.Type == cp.TrackingAreaUpdate {
		rep.FilteredTAUs++
		return
	}
	rep.Events++
	if isInjected {
		rep.InjectedAttaches++
	}
	t := e.T.Seconds()
	b := s.binOf(e.T)
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
			if db := int((doneMs - s.lo) / s.bin); db < s.bins {
				if db < 0 {
					db = 0
				}
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

// TestStormBinsMatchDivision holds every series of the report — each bin
// of every NF's queue depth, drops and retries, and of the attach
// profile — to the division oracle, on a mixed-type trace under all four
// fault kinds. An outage and a slowdown near the end push completions
// past the horizon, where the completion cursor must stop at the last bin;
// the bin widths include one that does not divide the span, one of a
// millisecond, and one wider than the whole horizon.
func TestStormBinsMatchDivision(t *testing.T) {
	tr := trace.New()
	const ues = 300
	for i := 0; i < ues; i++ {
		if err := tr.SetDevice(cp.UEID(i), cp.Phone); err != nil {
			t.Fatal(err)
		}
	}
	r := stats.NewRNG(5)
	for ms := cp.Millis(0); ms < 10*cp.Minute; ms += cp.Millis(1 + r.Intn(40)) {
		tr.Append(trace.Event{T: ms, UE: cp.UEID(r.Intn(ues)), Type: cp.EventType(r.Intn(cp.NumEventTypes))})
	}
	tr.Sort()
	faults := []Fault{
		{Kind: FaultSlowdown, NF: NFHSS, Start: 2 * cp.Minute, Duration: 3 * cp.Minute, Factor: 4},
		{Kind: FaultRetryStorm, NF: NFMME, Start: 3 * cp.Minute, Duration: 2 * cp.Minute, Factor: 6},
		{Kind: FaultMassReattach, Fraction: 0.8, Start: 4 * cp.Minute, Duration: 20 * cp.Second},
		{Kind: FaultOutage, NF: NFMME, Start: 9 * cp.Minute, Duration: 2 * cp.Minute},
		{Kind: FaultSlowdown, NF: NFSGW, Start: 9*cp.Minute + 30*cp.Second, Duration: 30 * cp.Second, Factor: 50},
	}
	late := false // completions past the horizon leave a final backlog
	for _, bin := range []cp.Millis{cp.Minute, 7 * cp.Second, 1, cp.Hour} {
		t.Run(fmt.Sprintf("bin=%d", bin), func(t *testing.T) {
			cfg := StormConfig{Bin: bin, SAShare: 0.3, Faults: faults}
			got, err := ReplayStorm(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := replayByDivision(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("the cursor-binned report differs from the division oracle's")
			}
			for _, p := range got.PerNF {
				late = late || p.QueueDepth[got.Bins-1] > 0
			}
			if got.InjectedAttaches == 0 || got.FilteredTAUs == 0 || got.Attach.Dropped == 0 {
				t.Fatalf("vacuous replay: %d injected, %d filtered, %d attaches dropped",
					got.InjectedAttaches, got.FilteredTAUs, got.Attach.Dropped)
			}
		})
	}
	if !late {
		t.Fatal("no completion fell past the horizon: the last-bin stop is untested")
	}
}
