package core

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
	"unsafe"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
)

func modelBytes(t testing.TB, ms *ModelSet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ms.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func traceFile(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinaryTrace(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// edgeTrace exercises the streaming-specific corners the toy world never
// hits: a UE whose whole stream is Category-2 (initial state resolved
// only at finish), a registered UE with zero events, and duplicate
// events.
func edgeTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr := toyTrace(t, 12, 2*cp.Hour, 3)
	mustSet := func(ue cp.UEID, d cp.DeviceType) {
		t.Helper()
		if err := tr.SetDevice(ue, d); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(100, cp.Phone) // zero events
	mustSet(101, cp.ConnectedCar)
	for i := 0; i < 5; i++ { // HO-only mover: fallback initial = CONNECTED
		tr.Append(trace.Event{T: cp.Millis(i+1) * cp.Minute, UE: 101, Type: cp.Handover})
	}
	mustSet(102, cp.Tablet)
	tr.Append(trace.Event{T: 10 * cp.Minute, UE: 102, Type: cp.TrackingAreaUpdate})
	tr.Append(trace.Event{T: 10 * cp.Minute, UE: 102, Type: cp.TrackingAreaUpdate}) // exact duplicate
	tr.Sort()
	return tr
}

// tiePermuted returns tr with three pairs of neighbouring events given one
// timestamp each (canon, in canonical order) and the same trace with those
// ties the other way round (perm): still sorted by time, no longer by the
// (UE, type) tie-break — what an exporter that orders by time alone writes.
func tiePermuted(t *testing.T, tr *trace.Trace) (canon, perm *trace.Trace) {
	t.Helper()
	canon = &trace.Trace{Device: tr.Device, Events: slices.Clone(tr.Events)}
	n := len(canon.Events)
	for _, i := range []int{n / 4, n / 2, 3 * n / 4} {
		canon.Events[i+1].T = canon.Events[i].T
	}
	canon.Sort()
	perm = &trace.Trace{Device: tr.Device, Events: slices.Clone(canon.Events)}
	swapped := 0
	for i := 0; i+1 < n && swapped < 3; i++ {
		if a, b := perm.Events[i], perm.Events[i+1]; a.T == b.T && a != b {
			perm.Events[i], perm.Events[i+1] = b, a
			swapped++
			i++
		}
	}
	if swapped != 3 || perm.Sorted() {
		t.Fatalf("swapped %d ties, want 3 and a trace out of canonical order", swapped)
	}
	return canon, perm
}

// TestFitStreamMatchesInMemory: the fit must be byte-identical for every
// source kind (in-memory trace, binary file) and worker count — the same
// discipline as worker determinism. There is one Fit over one PartialFit,
// so the load-bearing comparisons are the file source (scanner decode
// path) and the worker sweep. The third input is the file a stream cannot
// take, a text trace with three ties out of canonical order: FileSource
// says so with trace.ErrNotCanonical, and the fit of the same file read
// whole and sorted — the refit cmd/fitmodel falls back to — is the model of
// the canonical trace.
func TestFitStreamMatchesInMemory(t *testing.T) {
	traces := map[string]*trace.Trace{
		"toy":  toyTrace(t, 48, 3*cp.Hour, 7),
		"edge": edgeTrace(t),
	}
	fits := []FitOptions{
		{Cluster: clusterOptSmall()}, // "ours": two-level + quantile tables
		{Machine: sm.EMMECM(), SojournKind: SojournExp,
			FreeEvents:   []cp.EventType{cp.Handover, cp.TrackingAreaUpdate},
			NoClustering: true, Method: "base"}, // free processes + censored MLE
	}
	for name, tr := range traces {
		path := traceFile(t, tr)
		fileSrc, err := trace.NewFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		canon, perm := tiePermuted(t, tr)
		var permText bytes.Buffer
		if err := trace.WriteTrace(&permText, perm); err != nil { // keeps perm's order
			t.Fatal(err)
		}
		permPath := filepath.Join(t.TempDir(), "ties.txt")
		if err := os.WriteFile(permPath, permText.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		permSrc, err := trace.NewFileSource(permPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range fits {
			ref, err := Fit(tr, base)
			if err != nil {
				t.Fatal(err)
			}
			want := modelBytes(t, ref)
			sources := map[string]trace.EventSource{
				"trace": tr,
				"file":  fileSrc,
			}
			for srcName, src := range sources {
				for _, w := range []int{1, 8} {
					opt := base
					opt.Workers = w
					ms, err := Fit(src, opt)
					if err != nil {
						t.Fatalf("%s/%s/%s workers=%d: %v", name, base.Method, srcName, w, err)
					}
					if got := modelBytes(t, ms); !bytes.Equal(want, got) {
						t.Fatalf("%s: Fit(%s, method=%q, workers=%d) differs from Fit of the trace (%d vs %d bytes)",
							name, srcName, base.Method, w, len(got), len(want))
					}
				}
			}

			if _, err := Fit(permSrc, base); !errors.Is(err, trace.ErrNotCanonical) {
				t.Fatalf("%s method=%q: Fit of the tie-permuted file returned %v, want trace.ErrNotCanonical", name, base.Method, err)
			}
			sorted, err := trace.ReadAuto(bytes.NewReader(permText.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			sorted.Sort()
			refit, err := Fit(sorted, base)
			if err != nil {
				t.Fatal(err)
			}
			ref, err = Fit(canon, base)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(modelBytes(t, refit), modelBytes(t, ref)) {
				t.Fatalf("%s method=%q: the sorted refit of the tie-permuted file differs from the canonical trace's model", name, base.Method)
			}
		}
	}
}

func TestFitStreamEmptySourceFails(t *testing.T) {
	if _, err := Fit(trace.New(), FitOptions{}); err == nil {
		t.Fatal("want error for empty source")
	}
}

// peakHeap runs fn and returns the peak live-heap growth over the
// baseline, sampled concurrently (plus a final sample, so short-lived
// peaks between ticks still bound from below). An aggressive GC target
// keeps HeapAlloc tracking the live set rather than collection timing,
// so the two paths compare by what they actually retain.
func peakHeap(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop := make(chan struct{})
	peakCh := make(chan uint64, 1)
	go func() {
		var peak uint64
		var ms runtime.MemStats
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peakCh <- peak
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > peak {
					peak = ms.HeapAlloc
				}
			}
		}
	}()
	fn()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	close(stop)
	peak := <-peakCh
	if end.HeapAlloc > peak {
		peak = end.HeapAlloc
	}
	if peak <= base.HeapAlloc {
		return 0
	}
	return peak - base.HeapAlloc
}

// streamPeakBudget bounds the streamed fit's peak heap growth on
// TestFitStreamBoundedMemory's world (355 604 events, a 26 MB model),
// which reads 23.6–25.1 MiB since Build holds each device's samples as
// 4-byte milliseconds, fits every global fallback before any hour model
// and packs each hour's quantile grids into one allocation (25.4–26.1
// with 8-byte seconds under a 30 MiB budget; 42.1–45.4 with 16 B sample
// items that lived through Save, under 52 MiB).
const streamPeakBudget = 29 << 20

// heldMargin is how far, in percent, what a PartialFit holds may exceed
// what its sinks account for (TestPartialFitHeldMatchesSinks): 3.8 %
// measured.
const heldMargin = 10

// liveHeap returns the bytes still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapProbe is its source, and notes how far the live heap has grown over
// base when a scan of it ends — inside whatever is scanning it.
type heapProbe struct {
	trace.EventSource
	base, live uint64
}

func (p *heapProbe) ScanBatches(fn func(*trace.Batch) error) error {
	err := p.EventSource.ScanBatches(fn)
	p.live = liveHeap() - p.base
	return err
}

// TestFitStreamBoundedMemory: a fit from a file never holds the file's
// events. A peak cannot show that — on any world tier-1 can afford a fit
// peaks in Build, where samples and model outweigh an event slice that is
// dead by then — so the gate looks at the live heap when the source's one
// scan ends, inside Fit, where a materialized source is still reachable:
//
//   - from the FileSource it is below the same fit from the ReadAuto-ed
//     trace by at least ¾ of the event slice (16 B an event);
//   - from the FileSource it is, within ¼ of the event slice, what a
//     PartialFit holds once AddSource has returned — the sample logs and
//     tally rows.
//     More, and the events are still held; less, and they went somewhere
//     else first, to be ingested after the scan.
//
// Exact byte-identity forces the fit to retain every sojourn sample, so
// the logs still grow with the trace (TestPartialFitBytesPerSample gates
// their bytes a sample; FitOptions.SketchK bounds them, and
// TestFitSketchedBoundedMemory gates that). The peak gate stays beside the
// two: Fit from the file and Save must peak inside streamPeakBudget.
func TestFitStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory profile run skipped in -short mode")
	}
	tr := toyTrace(t, 256, 24*cp.Hour, 11)
	path := traceFile(t, tr)
	slice := uint64(16 * tr.Len())
	opt := FitOptions{Cluster: clusterOptSmall(), Workers: 1}

	// The fit from the file, to the saved model: hashed as it is written,
	// since Save streams and a buffer holding the file would be the test's
	// own memory — twice the 25 MB document while it grows, more than the
	// fit.
	var fileLive uint64
	peak := peakHeap(func() {
		src, err := trace.NewFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		probe := &heapProbe{EventSource: src, base: liveHeap()}
		ms, err := Fit(probe, opt)
		if err != nil {
			t.Fatal(err)
		}
		fileLive = probe.live
		if err := ms.Save(sha256.New()); err != nil {
			t.Fatal(err)
		}
	})

	base := liveHeap()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := trace.ReadAuto(f)
	if err != nil {
		t.Fatal(err)
	}
	probe := &heapProbe{EventSource: loaded, base: base}
	if _, err := Fit(probe, opt); err != nil {
		t.Fatal(err)
	}
	traceLive := probe.live

	base = liveHeap()
	pf, err := NewPartialFit(opt)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(src); err != nil {
		t.Fatal(err)
	}
	held := liveHeap() - base
	runtime.KeepAlive(pf)

	mib := func(b uint64) float64 { return float64(b) / (1 << 20) }
	t.Logf("%d events, an event slice of %.1f MiB; live when the scan ends: from the file %.1f MiB, from the read trace %.1f MiB; the partial %.1f MiB; peak of the fit from the file, saved, %.1f MiB",
		tr.Len(), mib(slice), mib(fileLive), mib(traceLive), mib(held), mib(peak))
	if fileLive+slice*3/4 > traceLive {
		t.Errorf("live when the scan ends: %d B from the file, %d B from the read trace — less than %d B (¾ of the event slice) apart",
			fileLive, traceLive, slice*3/4)
	}
	if fileLive > held+slice/4 || fileLive+slice/4 < held {
		t.Errorf("live when the file's scan ends: %d B, against %d B the partial holds — more than %d B (¼ of the event slice) apart",
			fileLive, held, slice/4)
	}
	if peak > streamPeakBudget {
		t.Errorf("fit from the file peaks at %d B, above the %d B budget", peak, streamPeakBudget)
	}
}

// TestPartialFitBytesPerSample gates what an exact partial retains per
// sample on TestFitStreamBoundedMemory's world once AddSource returns: the
// capacity of its UEs' logs and hour bytes, at most 6 B a sample. Build
// consumes the partial: it must leave no log, hour byte or tally row
// behind.
func TestPartialFitBytesPerSample(t *testing.T) {
	tr := toyTrace(t, 256, 24*cp.Hour, 11)
	pf, err := NewPartialFit(FitOptions{Cluster: clusterOptSmall(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(tr); err != nil {
		t.Fatal(err)
	}
	var sinks []*partialSink
	var samples, logs, hours int
	for _, s := range pf.exts {
		sinks = append(sinks, s)
		samples += int(s.seq)
		for _, l := range s.logs {
			logs += cap(l)
		}
		hours += cap(s.hours)
	}
	perSample := float64(logs+hours) / float64(samples)
	t.Logf("%d samples: %.2f B of logs and %.2f B of hour bytes a sample", samples,
		float64(logs)/float64(samples), float64(hours)/float64(samples))
	if samples == 0 || perSample > 6 {
		t.Errorf("exact partial retains %.2f B a sample over %d samples, above the 6 B budget", perSample, samples)
	}
	if _, err := pf.Build(); err != nil {
		t.Fatal(err)
	}
	for _, s := range sinks {
		for h := range HoursPerDay {
			if s.logs[h] != nil || s.rows[h] != nil || s.hours != nil {
				t.Fatalf("UE %d: hour %d's log or tally row, or the hour bytes, outlive Build", s.ue, h)
			}
		}
	}
}

// TestPartialFitBytesPerTally gates what an exact partial's tally rows
// hold on TestFitStreamBoundedMemory's world once AddSource returns: the
// rows' capacity, at most 11 B a count taken (9.55 measured since a row
// grows by half; 10.89 when it doubled). A count is an 8 B entry of its
// UE-hour's sparse row. Dense rows, a uint32 for each of the 105 slots,
// held 36.9 B a count here (11.4 counts a row), and ≈ 53 B on a world
// whose UE-hours take ≈ 8.
func TestPartialFitBytesPerTally(t *testing.T) {
	tr := toyTrace(t, 256, 24*cp.Hour, 11)
	pf, err := NewPartialFit(FitOptions{Cluster: clusterOptSmall(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(tr); err != nil {
		t.Fatal(err)
	}
	var rows, tallies, held int
	for _, s := range pf.exts {
		for _, r := range s.rows {
			if r != nil {
				rows++
				tallies += len(r)
				held += cap(r) * int(unsafe.Sizeof(r[0]))
			}
		}
	}
	perTally := float64(held) / float64(tallies)
	t.Logf("%d rows hold %d counts taken (%.1f a row): %.2f B a count", rows, tallies, float64(tallies)/float64(rows), perTally)
	if tallies == 0 || perTally > 11 {
		t.Errorf("exact partial's tally rows hold %.2f B a count over %d counts, above the 11 B budget", perTally, tallies)
	}
}

// TestPartialFitHeldMatchesSinks gates what an exact PartialFit holds
// once AddSource returns against what its sinks account for: each UE's
// sink struct, logs, hour bytes, tally rows and undecided walk prefix.
// The live heap the partial adds may exceed that by at most
// heldMargin — its maps, its device lists and the size classes the
// allocations round up to; 3.8 % measured. A partial that kept its
// events, 16 B each, would hold ≈ 126 % more on this world.
func TestPartialFitHeldMatchesSinks(t *testing.T) {
	if testing.Short() {
		t.Skip("memory profile run skipped in -short mode")
	}
	tr := toyTrace(t, 256, 24*cp.Hour, 11)
	base := liveHeap()
	pf, err := NewPartialFit(FitOptions{Cluster: clusterOptSmall(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(tr); err != nil {
		t.Fatal(err)
	}
	held := liveHeap() - base
	var accounted uint64
	for _, s := range pf.exts {
		accounted += uint64(unsafe.Sizeof(*s)) + uint64(cap(s.hours)) +
			uint64(cap(s.walk.Buf))*uint64(unsafe.Sizeof(trace.Event{}))
		for h := range HoursPerDay {
			accounted += uint64(cap(s.logs[h])) + uint64(cap(s.rows[h]))*uint64(unsafe.Sizeof(tally{}))
		}
	}
	runtime.KeepAlive(pf)
	ratio := float64(held) / float64(accounted)
	t.Logf("%d events: the partial holds %d B, its sinks account for %d B (%.3f×); the events would be %d B",
		tr.Len(), held, accounted, ratio, 16*tr.Len())
	if held > accounted+accounted*heldMargin/100 {
		t.Errorf("the partial holds %d B, more than %d%% above the %d B its sinks account for", held, heldMargin, accounted)
	}
}
