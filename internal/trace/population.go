package trace

import (
	"sync/atomic"

	"cptraffic/internal/cp"
	"cptraffic/internal/par"
)

// Population is N independent per-UE streams — the generator's (§7) and
// the ground-truth simulator's — and the one driver that orders them into
// a trace: Generate materializes it, Devices and ScanBatches stream it as
// an EventSource. A stream is a value of S, initialized in place, so a
// worker reuses one across its UEs and a scan holds one slab of them; the
// driver calls Init once per UE and Drain once per UE per window, never
// per event.
type Population[S any] struct {
	// N is the number of UEs, at least one; UE i's id is i.
	N int
	// T0 and TMax bound every event's time, T0 <= T <= TMax: the span the
	// packed key of Generate is laid out for.
	T0, TMax cp.Millis
	// Device returns UE i's device type.
	Device func(i int) cp.DeviceType
	// Init (re)initializes s in place as UE i's stream.
	Init func(s *S, i int)
	// Drain advances s up to limit: it appends every remaining event with
	// T < limit to run (run.Append(lay, ...)), in the stream's own time
	// order, and returns a lower bound on the time of its next event — at
	// least limit — or NoPending once it is exhausted. It must never hand
	// back an event older than one it has already delivered.
	Drain func(s *S, limit cp.Millis, lay *KeyLayout, run *KeyRun) cp.Millis

	// resorted counts the buckets (Generate) and windows (ScanBatches)
	// sorted a second time, on the whole key, because a Drain broke the
	// UE order the time-bits sort relies on (see Resorted).
	resorted struct{ buckets, windows atomic.Int64 }
}

// Generate runs the population and returns the sorted trace. Each of
// workers (0 means GOMAXPROCS) drains a contiguous block of UEs, each in
// one call, into one run of packed 8-byte keys laid out over [T0, TMax]
// before any event exists, and assembleKeys sorts the runs and decodes
// them into the event slice. Taken in worker order, the runs hold the
// keys UE after UE at every worker count, the order in which assembleKeys
// need sort only their time bits. The key's integer order is the
// canonical order and the key is the whole event, so the result is
// byte-identical to ScanBatches' and does not depend on workers. A key
// that cannot fit 64 bits (a span of centuries), or a run holding an
// event outside the span — a stream bug, but one the windows order
// correctly all the same — takes ScanBatches, whose keys are relative to
// each window, instead.
//
// Memory: no per-UE state is held but the runs. With one worker the run
// reserves twice its keys (KeyRun.forecast) and becomes the event slice's
// storage, so the peak is that one buffer, 18 B per event; with several,
// the runs, their partition and the event slice peak at 24 B. The
// registry is built after the runs: while a lone run's reservation is
// copied into, its old storage is live beside it, and the registry need
// not be.
func (p *Population[S]) Generate(workers int) (*Trace, error) {
	lay, fits := NewKeyLayout(p.T0, p.TMax, cp.UEID(p.N-1))
	if !fits {
		return Collect(p)
	}
	workers = par.Workers(workers, p.N)
	runs := make([]KeyRun, workers)
	par.Do(workers, func(w int) {
		// One stream and one run per worker, reused across its block; on
		// the heap (Drain is a func value), padded off other workers' lines.
		st := new(struct {
			s   S
			run KeyRun
			_   [64]byte
		})
		lo, hi := w*p.N/workers, (w+1)*p.N/workers
		for i := lo; i < hi; i++ {
			p.Init(&st.s, i)
			p.Drain(&st.s, NoPending, &lay, &st.run)
			st.run.forecast(i-lo+1, hi-lo, workers)
		}
		runs[w] = st.run
	})
	tr := &Trace{Device: make(map[cp.UEID]cp.DeviceType, p.N)}
	for i := 0; i < p.N; i++ {
		tr.Device[cp.UEID(i)] = p.Device(i)
	}
	evs, resorted, ok := assembleKeys(&lay, runs)
	if !ok {
		return Collect(p)
	}
	p.resorted.buckets.Add(int64(resorted))
	tr.Events = evs
	return tr, nil
}

// Devices reports every UE's device type in ascending UE order.
func (p *Population[S]) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	for i := 0; i < p.N; i++ {
		if err := fn(cp.UEID(i), p.Device(i)); err != nil {
			return err
		}
	}
	return nil
}

// ScanBatches delivers the population's events in canonical order through
// assembleWindows: one slab of N streams, initialized in place, advanced a
// time window at a time, each window's packed keys sorted in cache. Every
// scan starts the streams afresh, so successive scans agree.
func (p *Population[S]) ScanBatches(fn func(*Batch) error) error {
	streams := make([]S, p.N)
	for i := range streams {
		p.Init(&streams[i], i)
	}
	resorted, err := assembleWindows(fn, streams, cp.UEID(p.N-1), p.Drain)
	p.resorted.windows.Add(int64(resorted))
	return err
}

// Resorted reports how many buckets Generate and how many windows
// ScanBatches have sorted a second time, on the whole key, over the
// population's life. Both sort only the time bits of keys they receive
// UE after UE, each UE's in canonical order, and check the result; a
// Drain that breaks that order costs a second sort but never a byte, so
// this count is the only trace of it. The core and world tests hold the
// real populations to zero.
func (p *Population[S]) Resorted() (buckets, windows int64) {
	return p.resorted.buckets.Load(), p.resorted.windows.Load()
}
