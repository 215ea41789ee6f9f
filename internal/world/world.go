package world

import (
	"fmt"
	"math"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// Options configures the ground-truth simulation.
type Options struct {
	// NumUEs is the population size.
	NumUEs int
	// Duration is the trace length; the epoch is midnight, so hour-of-day
	// h covers [h*Hour, (h+1)*Hour).
	Duration cp.Millis
	// Offset warm-starts the simulation at an absolute time instead of
	// midnight: events cover [Offset, Offset+Duration) with the correct
	// diurnal phase. Use it to synthesize a busy hour without paying for
	// the whole day before it.
	Offset cp.Millis
	// Seed makes the world reproducible.
	Seed uint64
	// Mix optionally overrides the device composition (defaults to the
	// paper's 62.7/24.9/12.4% split).
	Mix []float64
	// MobilityScale multiplies every UE's handover rate; 0 means the
	// calibrated default of 1.0. Scenario files use it to express
	// mobility level (a highway rush hour is > 1, a stadium crowd < 1).
	// At exactly 1.0 the multiplication is an IEEE no-op, so default
	// output stays byte-identical.
	MobilityScale float64
	// ActivityScale multiplies every UE's session-arrival rate; 0 means
	// the calibrated default of 1.0. Same byte-identity property as
	// MobilityScale.
	ActivityScale float64
	// Workers bounds Generate's concurrency; 0 means GOMAXPROCS. The
	// streaming Source ignores it.
	Workers int
}

// resolveMix validates opt and returns the normalized device mix.
func resolveMix(opt Options) ([cp.NumDeviceTypes]float64, error) {
	mix := DefaultMix
	if opt.NumUEs <= 0 {
		return mix, fmt.Errorf("world: NumUEs must be positive")
	}
	if opt.Duration <= 0 {
		return mix, fmt.Errorf("world: Duration must be positive")
	}
	if opt.Offset < 0 {
		return mix, fmt.Errorf("world: Offset must be non-negative")
	}
	if opt.Duration > math.MaxInt64-opt.Offset {
		return mix, fmt.Errorf("world: Offset %d plus Duration %d ms ends past the largest time", opt.Offset, opt.Duration)
	}
	if opt.MobilityScale < 0 {
		return mix, fmt.Errorf("world: MobilityScale must be non-negative")
	}
	if opt.ActivityScale < 0 {
		return mix, fmt.Errorf("world: ActivityScale must be non-negative")
	}
	if opt.Mix != nil {
		if len(opt.Mix) != cp.NumDeviceTypes {
			return mix, fmt.Errorf("world: Mix must have %d entries", cp.NumDeviceTypes)
		}
		var sum float64
		for d, m := range opt.Mix {
			if m < 0 || math.IsNaN(m) || math.IsInf(m, 0) {
				return mix, fmt.Errorf("world: mix entry %v for %v is not a finite non-negative number", m, cp.DeviceType(d))
			}
			mix[d] = m
			sum += m
		}
		if !(sum > 0 && sum <= math.MaxFloat64) {
			return mix, fmt.Errorf("world: empty mix, or entries summing past the largest float")
		}
		for d := range mix {
			mix[d] /= sum
		}
	}
	return mix, nil
}

// simPlan derives UE i's RNG stream and device. The device pick consumes
// the stream's first draw, so the derivation is identical however many
// times it is repeated; the RNG travels by value so per-UE state can live
// in slabs.
func simPlan(mix [cp.NumDeviceTypes]float64, root *stats.RNG, i int) (stats.RNG, cp.DeviceType) {
	r := root.SplitVal(uint64(i) + 1)
	u := r.Float64()
	var acc float64
	dev := cp.Tablet
	for d, m := range mix {
		acc += m
		if u < acc {
			dev = cp.DeviceType(d)
			break
		}
	}
	return r, dev
}

// init (re)initializes the simulator in place for one UE, keeping the
// queue's backing array so a worker can reuse one ueSim — or a slab of
// them — across the population without per-UE allocations.
func (u *ueSim) init(opt Options, ue cp.UEID, dev cp.DeviceType, rng stats.RNG) {
	actScale := opt.ActivityScale
	if actScale == 0 {
		actScale = 1
	}
	mobScale := opt.MobilityScale
	if mobScale == 0 {
		mobScale = 1
	}
	q := u.queue[:0]
	*u = ueSim{
		ue:       ue,
		p:        &deviceParams[dev],
		rng:      rng,
		start:    opt.Offset,
		end:      opt.Offset + opt.Duration,
		actScale: actScale,
		mobScale: mobScale,
	}
	u.queue = q
}

// Generate simulates the UE population and returns the sorted trace,
// ordered by trace.Population, the driver core.Generate shares: assembly
// and memory are described there.
func Generate(opt Options) (*trace.Trace, error) {
	pop, err := population(opt)
	if err != nil {
		return nil, err
	}
	return pop.Generate(opt.Workers)
}

// Source is a simulation-backed trace.EventSource: scanning it runs the
// ground-truth behavioral simulation on the fly, a time window at a time,
// holding one ueSim and one pending time per UE instead of the whole
// trace. Devices and the scans re-derive the population from the seed, so
// the source is re-iterable and successive passes agree.
type Source struct {
	pop *trace.Population[ueSim]
}

// NewSource validates the options once and returns the lazy source; no
// simulation happens until Scan.
func NewSource(opt Options) (*Source, error) {
	pop, err := population(opt)
	if err != nil {
		return nil, err
	}
	return &Source{pop: pop}, nil
}

// Devices reports every UE's device type in ascending UE order.
func (s *Source) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	return s.pop.Devices(fn)
}

// ScanBatches simulates the population and delivers its events in
// canonical order, a time window at a time
// (trace.Population.ScanBatches), in reused struct-of-arrays batches.
func (s *Source) ScanBatches(fn func(*trace.Batch) error) error {
	return s.pop.ScanBatches(fn)
}

// population validates opt and returns the population as the trace
// driver's per-UE streams: one ueSim per UE, its stream and device derived
// from the seed (simPlan) whenever it is initialized.
func population(opt Options) (*trace.Population[ueSim], error) {
	mix, err := resolveMix(opt)
	if err != nil {
		return nil, err
	}
	root := stats.NewRNG(opt.Seed)
	return &trace.Population[ueSim]{
		N:    opt.NumUEs,
		T0:   opt.Offset,
		TMax: opt.Offset + opt.Duration - 1,
		Device: func(i int) cp.DeviceType {
			_, dev := simPlan(mix, root, i)
			return dev
		},
		Init: func(u *ueSim, i int) {
			rng, dev := simPlan(mix, root, i)
			u.init(opt, cp.UEID(i), dev, rng)
		},
		Drain: (*ueSim).drainUntil,
	}, nil
}

// ueSim is the behavioral simulation of one UE, exposed incrementally:
// drainUntil advances the simulation just far enough to produce the
// events asked for, so a population can be streamed without holding
// anyone's future.
type ueSim struct {
	ue    cp.UEID
	p     *params
	rng   stats.RNG // by value: self-contained, slab-friendly state
	start cp.Millis
	end   cp.Millis

	// queue holds events already decided but not yet delivered (one
	// connected phase produces several at once); qhead is the next to
	// deliver, so the backing array is reused across phases.
	queue []trace.Event
	qhead int

	// lastT is the last emitted event time (the monotonicity guard must
	// survive delivery, so it cannot live in the queue).
	lastT   cp.Millis
	hasLast bool

	started    bool
	done       bool
	t          float64 // simulation clock, seconds
	registered bool

	actMult float64 // per-UE activity level (heavy-tailed)
	sessLen float64 // actMult^0.3, the session-length factor
	mobMult float64 // per-UE mobility level

	// actScale and mobScale are the scenario-level rate multipliers
	// (Options.ActivityScale / MobilityScale, resolved to 1 when unset).
	// They are applied as the last factor of each rate product, so at
	// exactly 1.0 the product — and the whole trace — is unchanged.
	actScale float64
	mobScale float64

	burstOn    bool
	burstUntil float64 // seconds

	// followWait, when positive, is a pending follow-on session's think
	// time: the next session starts that many seconds after the last
	// one ended, bypassing the background arrival process.
	followWait float64
}

//cplint:hotpath appends into the reused per-UE queue
func (u *ueSim) emit(tSec float64, e cp.EventType) {
	t := cp.MillisFromSeconds(tSec)
	if t >= u.end {
		return
	}
	// Monotonicity guard: behavioral delays can round to the same
	// millisecond; nudge forward to keep per-UE event order strict.
	if u.hasLast && t <= u.lastT {
		t = u.lastT + 1
	}
	if t >= u.end {
		return
	}
	u.lastT, u.hasLast = t, true
	u.queue = append(u.queue, trace.Event{T: t, UE: u.ue, Type: e})
}

// drainUntil advances the simulation up to limit: it appends the packed
// key of every event with T < limit to run and returns the time of the
// UE's next event — at least limit — or trace.NoPending once the UE is
// done. It is the simulator's one delivery loop. The simulation runs one
// decision ahead: it steps whenever the queue is empty, and whatever a step
// stamps at or past limit waits in the queue (a connected phase queues a
// whole visit). So however the timeline is cut into rising limits the calls
// together deliver the sequence one unlimited call would, from the same RNG
// draws (TestDrainUntilMatchesNext). Generate's workers call it once per UE
// with no limit; the streaming Source calls it once per time window the UE
// has an event in.
//
//cplint:hotpath the simulator's steady state, one pack-and-append per decision; TestUESimSteadyStateAllocs gates it at exactly 0 allocs
func (u *ueSim) drainUntil(limit cp.Millis, lay *trace.KeyLayout, run *trace.KeyRun) cp.Millis {
	for {
		if u.qhead < len(u.queue) {
			q := u.queue[u.qhead:]
			n := len(q)
			if q[n-1].T >= limit { // time-ordered: otherwise all of it is due
				for n = 0; q[n].T < limit; n++ {
				}
			}
			run.Append(lay, q[:n]...)
			if n < len(q) {
				u.qhead += n
				return q[n].T
			}
			u.queue, u.qhead = u.queue[:0], 0
		}
		if u.done {
			return trace.NoPending
		}
		if !u.started {
			u.start0()
			continue
		}
		u.step()
	}
}

// start0 draws the UE's per-lifetime latent state and initial condition.
func (u *ueSim) start0() {
	u.started = true
	p := u.p
	r := &u.rng
	u.actMult = r.Lognormal(-p.actSigma*p.actSigma/2, p.actSigma) // mean 1
	u.sessLen = math.Pow(u.actMult, 0.3)
	u.mobMult = r.Lognormal(-p.mobSigma*p.mobSigma/2, p.mobSigma)
	startSec := u.start.Seconds()
	u.burstOn = r.Float64() < p.burstOnMean/(p.burstOnMean+p.burstOffMean)
	u.burstUntil = u.nextBurstSwitch(startSec)
	u.t = startSec
	u.registered = r.Float64() >= p.pStartOff
	if !u.registered {
		u.t += u.offDuration(r) * r.Float64() // mid-way through an off period
	}
}

// step advances the simulation by one decision, queueing the resulting
// event(s) or marking the UE done.
//
//cplint:hotpath the simulator step: runs once per behavioral decision
func (u *ueSim) step() {
	r := &u.rng
	endSec := u.end.Seconds()
	if u.t >= endSec {
		u.done = true
		return
	}
	if !u.registered {
		// Powered off: wait, then attach (attach enters CONNECTED).
		u.emit(u.t, cp.Attach)
		u.t = u.connectedPhase(u.t)
		u.registered = true
		return
	}
	// IDLE: race between next session, periodic TAU, and power-off.
	// A pending follow-on session preempts the background arrival
	// process.
	var tSess float64
	if u.followWait > 0 {
		tSess = u.t + u.followWait
		u.followWait = 0
	} else {
		tSess = u.t + u.sessionWait(u.t)
	}
	tTau := u.t + u.idleTauWait(r)
	tOff := u.t + u.powerOffWait(r, u.t)
	switch {
	case tOff <= tSess && tOff <= tTau:
		if tOff >= endSec {
			u.done = true
			return
		}
		u.emit(tOff, cp.Detach)
		u.registered = false
		u.t = tOff + u.offDuration(r)
	case tTau <= tSess:
		if tTau >= endSec {
			u.done = true
			return
		}
		// Periodic TAU in IDLE, released by an S1_CONN_REL shortly
		// after (Fig. 5, bottom right).
		u.emit(tTau, cp.TrackingAreaUpdate)
		rel := tTau + math.Max(r.Lognormal(u.p.tauRelMu, u.p.tauRelSigma), 0.01)
		u.emit(rel, cp.S1ConnRelease)
		u.t = rel
	default:
		if tSess >= endSec {
			u.done = true
			return
		}
		u.emit(tSess, cp.ServiceRequest)
		u.t = u.connectedPhase(tSess)
	}
}

// connectedPhase simulates one CONNECTED visit beginning at tSec (the
// connection-establishing event has already been emitted) and returns the
// time of the S1_CONN_REL that ends it. Handovers fire at the
// mobility-driven rate; a fraction of them cross tracking areas and are
// followed by a TAU.
func (u *ueSim) connectedPhase(tSec float64) float64 {
	p := u.p
	r := &u.rng
	var dur float64
	if p.paretoP > 0 && r.Float64() < p.paretoP {
		dur = r.ParetoSample(p.paretoXm, p.paretoAlpha)
	} else {
		dur = r.Lognormal(p.sessMu, p.sessSigma) * u.sessLen
	}
	if dur < 1 {
		dur = 1
	}
	endConn := tSec + dur
	h := cp.MillisFromSeconds(tSec).HourOfDay()
	hoRate := p.hoRate * p.mobility[h] * u.mobMult * weekendFactor(p, tSec) * u.mobScale
	t := tSec
	if hoRate > 0 {
		for {
			t += r.Exp(hoRate)
			if t >= endConn {
				break
			}
			u.emit(t, cp.Handover)
			if r.Float64() < p.tauPerHO {
				tau := t + 0.1 + r.Float64()*2
				if tau < endConn {
					u.emit(tau, cp.TrackingAreaUpdate)
					t = tau
				}
			}
		}
	}
	u.emit(endConn, cp.S1ConnRelease)
	// Roll the follow-on session: user behavior arrives in click trains.
	if r.Float64() < p.followP {
		u.followWait = r.Lognormal(p.followMu, p.followSigma)
	}
	return endConn
}

// sessionWait samples the time until the next session arrival from the
// piecewise-constant rate process (diurnal envelope x per-UE activity x
// burst phase), advancing through hour and burst-phase boundaries.
func (u *ueSim) sessionWait(tSec float64) float64 {
	p := u.p
	r := &u.rng
	t := tSec
	endSec := u.end.Seconds()
	// The burst clock only ticks inside this function; after a long
	// connected phase or power-off period it lags t, and a stale
	// burstUntil would otherwise drag the segment end — and with it the
	// simulation clock — into the past.
	u.advanceBurst(t)
	for steps := 0; steps < 100000; steps++ {
		if t >= endSec {
			return t - tSec
		}
		h := cp.MillisFromSeconds(t).HourOfDay()
		factor := p.loFactor
		if u.burstOn {
			factor = p.hiFactor
		}
		rate := p.sessRate * p.diurnal[h] * u.actMult * factor * weekendFactor(p, t) * u.actScale
		segEnd := math.Min(nextHourBoundary(t), u.burstUntil)
		if rate <= 1e-12 {
			t = segEnd
			u.advanceBurst(t)
			continue
		}
		dt := r.Exp(rate)
		if t+dt <= segEnd {
			return t + dt - tSec
		}
		t = segEnd
		u.advanceBurst(t)
	}
	return endSec - tSec
}

// weekendFactor returns the weekend activity multiplier for a time.
func weekendFactor(p *params, tSec float64) float64 {
	if p.weekend == 0 {
		return 1
	}
	day := int(tSec/86400) % 7
	if day < 0 {
		day += 7
	}
	if day >= 5 {
		return p.weekend
	}
	return 1
}

func nextHourBoundary(tSec float64) float64 {
	h := math.Floor(tSec/3600) + 1
	return h * 3600
}

func (u *ueSim) advanceBurst(tSec float64) {
	for u.burstUntil <= tSec {
		u.burstOn = !u.burstOn
		u.burstUntil = u.nextBurstSwitch(u.burstUntil)
	}
}

func (u *ueSim) nextBurstSwitch(fromSec float64) float64 {
	mean := u.p.burstOffMean
	if u.burstOn {
		mean = u.p.burstOnMean
	}
	return fromSec + u.rng.Exp(1/mean)
}

func (u *ueSim) idleTauWait(r *stats.RNG) float64 {
	return r.Lognormal(u.p.idleTauMu, u.p.idleTauSigma)
}

func (u *ueSim) powerOffWait(r *stats.RNG, tSec float64) float64 {
	if u.p.offRate <= 0 {
		return math.Inf(1)
	}
	// Power-off is diurnal too: devices switch off mostly when activity
	// winds down (night for phones, after the commute for cars), which
	// also keeps the REGISTERED sojourn away from a pure exponential.
	h := cp.MillisFromSeconds(tSec).HourOfDay()
	rate := u.p.offRate * (1.6 - 1.2*u.p.diurnal[h])
	if rate <= 0 {
		return math.Inf(1)
	}
	return r.Exp(rate)
}

func (u *ueSim) offDuration(r *stats.RNG) float64 {
	return r.Lognormal(u.p.offDurMu, u.p.offDurSigma)
}
