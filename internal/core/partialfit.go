package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/par"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// PartialFit is the fit pipeline's state as a first-class value: the
// per-(hour, device, cluster) accumulators, feature state, and sojourn
// sample pools of a fit over some subset of a population, held in a
// form that is
//
//   - mergeable: Merge folds another partial (over a disjoint UE set)
//     in, and Build on the result is byte-identical to one fit over the
//     union — for any shard count, merge order, or merge tree. A UE's
//     exact samples are logged on its own sink in emission order and
//     move with it, and a sketched sample is tagged with its (UE, per-UE
//     sequence) identity, so the serial fold order is the same at Build
//     time no matter how the UEs were scattered across partials;
//   - serializable: Encode/DecodePartial round-trip the full mid-scan
//     state (including each UE's walk) through the strict,
//     versioned partialfit/1 format, so a killed fit resumes from its
//     last checkpoint instead of restarting;
//   - boundable: with FitOptions.SketchK > 0, sample pools are backed
//     by mergeable bottom-k priority sketches (stats.Sketch) instead of
//     exact logs, capping per-pool memory at SketchK samples with the
//     quantile error bound of stats.SketchErrorBound. Sketch priorities
//     are deterministic hashes of the sample identity, so even sketched
//     fits are byte-identical sharded vs unsharded.
//
// Clustering is deferred to Build: the adaptive partition needs every
// UE's features, which only exist once all shards are merged. That is
// why counts and samples are held per-(UE, hour), on each UE's sink —
// Build splits them per cluster after assignment, freeing each hour as
// it finishes it — and why the partial's memory is O(UEs + tallies +
// samples): a count a UE-hour took is an 8 B entry of its sparse tally
// row (most are never taken and cost nothing), an exact sample about
// 5.5 B (a one-byte pool key and a uvarint of milliseconds in its hour's
// log, and one hour byte), the sketch bounds the sample term, and
// sharding bounds the UE term.
//
// Fit is the thin driver over this type (NewPartialFit → AddSource →
// Build); construct one directly to shard, checkpoint, or bound a fit.
type PartialFit struct {
	opt FitOptions
	m   *method // opt.Method's row of Table 3
	lay layout

	devOf map[cp.UEID]cp.DeviceType
	devs  [cp.NumDeviceTypes]*devPartial

	exts map[cp.UEID]*partialSink // per UE: its walk and fold, from its first event

	span       cp.Millis
	consumed   int64 // events ingested via AddEvent; -1 once merged (not resumable)
	violations int64
	restored   bool // decoded from a checkpoint: AddSource verifies the registry
	built      bool
}

// devPartial is one device type's share of a partial fit. Its tallies,
// exact samples and sketched-mode moments live on each UE's partialSink,
// so they move with the UE when partials merge.
type devPartial struct {
	ues []cp.UEID
	// sketches holds sketched mode's bottom-k sample pools, indexed by
	// layout.poolIndex of (hour, kind, state, event); each sample is
	// tagged (UE, seq), its value in whole milliseconds. nil: no samples
	// yet, or an exact partial.
	sketches []*stats.Sketch
}

// ---- tally rows ----

// Count kinds. A count record is keyed (UE, kind, hour, a, b); the a/b
// payload depends on the kind.
const (
	cntTop      = uint8(0) // a = cp.UEState, b = event: top transition count
	cntBot      = uint8(1) // a = sm.State, b = event: bottom transition count
	cntFirst    = uint8(2) // a = event, b = post-state: first-event category
	cntWithEv   = uint8(3) // cells of this (UE, hour) with >= 1 event
	cntEvt      = uint8(4) // b = event (SRV_REQ / S1_CONN_REL only): feature count
	numCntKinds = uint8(5)
)

// cntKey packs a count identity the way partialfit/1 writes it: kind(3)
// | hour(5) in bits 31..24, a in bits 15..8, b in the low byte. Bits
// 23..16 are zero.
func cntKey(kind, hour, a, b uint8) uint32 {
	return uint32(kind)<<29 | uint32(hour)<<24 | uint32(a)<<8 | uint32(b)
}

// cntShape is one count kind's key space: a in [0, na), b in [b0, b0+nb).
type cntShape struct{ na, b0, nb int }

// layout places a fit's count slots and its pool tables; both depend on
// the machine's state count. Slots run kind after kind in count-kind
// order, each kind's (a, b) keys a-major, so within one hour ascending
// slots are ascending packed keys: the order partialfit/1 writes a
// UE-hour's counts in, and decode appends them to its tally row in.
type layout struct {
	shape [numCntKinds]cntShape
	off   [numCntKinds + 1]int // first slot of each kind; the last is the slot count
	poolA int                  // pool-table stride of A: enough for a UE state and a machine state
}

func newLayout(states int) layout {
	l := layout{
		shape: [numCntKinds]cntShape{
			cntTop:    {na: cp.NumUEStates, nb: cp.NumEventTypes},
			cntBot:    {na: states, nb: cp.NumEventTypes},
			cntFirst:  {na: cp.NumEventTypes, nb: states},
			cntWithEv: {na: 1, nb: 1},
			// The two §5.3 feature counts; S1_CONN_REL follows SRV_REQ.
			cntEvt: {na: 1, b0: int(cp.ServiceRequest), nb: 2},
		},
		poolA: max(cp.NumUEStates, states),
	}
	for k, sh := range l.shape {
		l.off[k+1] = l.off[k] + sh.na*sh.nb
	}
	return l
}

// slot is the slot of count (kind, a, b), which must be valid.
func (l *layout) slot(kind, a, b uint8) int {
	sh := &l.shape[kind]
	return l.off[kind] + int(a)*sh.nb + int(b) - sh.b0
}

// valid reports whether (kind, a, b) names a slot.
func (l *layout) valid(kind, a, b uint8) bool {
	if kind >= numCntKinds {
		return false
	}
	sh := &l.shape[kind]
	return int(a) < sh.na && int(b) >= sh.b0 && int(b) < sh.b0+sh.nb
}

// key inverts slot.
func (l *layout) key(slot int) (kind, a, b uint8) {
	for slot >= l.off[kind+1] {
		kind++
	}
	sh := &l.shape[kind]
	i := slot - l.off[kind]
	return kind, uint8(i / sh.nb), uint8(sh.b0 + i%sh.nb)
}

// tally is one count of a tally row: its layout slot, and how many times
// it was taken.
type tally struct {
	slot uint16
	n    uint32
}

// ---- sample pools ----

// Pool kinds.
const (
	poolTop      = uint8(0) // A = cp.UEState, B = event: uncensored top sojourns
	poolBot      = uint8(1) // A = sm.State, B = event: uncensored bottom sojourns
	poolCensor   = uint8(2) // A = sm.State: right-censored bottom sojourns
	poolFree     = uint8(3) // B = event: free-process inter-arrivals
	poolFirst    = uint8(4) // first-event offsets within the hour
	numPoolKinds = 5
)

// poolKey addresses one sample pool.
type poolKey struct {
	Hour uint8
	Kind uint8
	A    uint8
	B    uint8
}

// poolSalt derives the sketch-priority salt of a pool. It depends only
// on the pool's identity — never on the process or shard — which is
// what makes sketched shards merge into the unsharded result exactly.
func poolSalt(k poolKey) uint64 {
	return uint64(k.Kind)<<24 | uint64(k.Hour)<<16 | uint64(k.A)<<8 | uint64(k.B)
}

// poolsPerHour is the pool table's stride of one hour. A pool's index
// within its hour is the key byte of its log records, so it stays below
// 256 (NewPartialFit refuses a machine for which it would not).
func (l *layout) poolsPerHour() int { return numPoolKinds * l.poolA * cp.NumEventTypes }

// poolTableLen is the length of a device's pool table.
func (l *layout) poolTableLen() int { return HoursPerDay * l.poolsPerHour() }

// poolIndex is k's slot in the pool table: (hour, kind, A, B) in mixed
// radix, so ascending indices are the canonical (hour, kind, A, B) pool
// order. A is below poolA and B below cp.NumEventTypes for every key
// ingest or decode admits.
func (l *layout) poolIndex(k poolKey) int {
	return ((int(k.Hour)*numPoolKinds+int(k.Kind))*l.poolA+int(k.A))*cp.NumEventTypes + int(k.B)
}

// poolKeyAt inverts poolIndex.
func (l *layout) poolKeyAt(i int) poolKey {
	b := i % cp.NumEventTypes
	i /= cp.NumEventTypes
	a := i % l.poolA
	i /= l.poolA
	return poolKey{Hour: uint8(i / numPoolKinds), Kind: uint8(i % numPoolKinds), A: uint8(a), B: uint8(b)}
}

// record reads the log record at b[i:]: the key byte of its pool (the
// pool's index within its hour), its value in milliseconds, and where the
// next record begins.
func record(b []byte, i int) (key byte, ms uint64, next int) {
	ms, n := binary.Uvarint(b[i+1:])
	return b[i], ms, i + 1 + n
}

// skip returns where the log record after the one at b[i] begins.
func skip(b []byte, i int) int {
	for i++; b[i] >= 0x80; i++ {
	}
	return i + 1
}

// seconds is a logged value as a sample: the bits ingest would have
// computed from the same milliseconds.
func seconds(ms uint64) float64 { return cp.Millis(ms).Seconds() }

// ---- streaming moments (sketched-mode clustering features) ----

// welford is a streaming mean/variance accumulator (Welford's update).
// Per-UE moments never merge across partials — a UE's samples all live
// in one shard — so the update order is the UE's emission order in
// every execution, keeping sketched fits byte-identical sharded vs
// unsharded.
type welford struct {
	n    int64
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// std is the sample standard deviation, 0 below two observations —
// mirroring stats.StdDev's convention, though not bit-identical to the
// two-pass computation (documented sketched-mode divergence).
func (w *welford) std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// ---- the per-UE sink ----

// partialSink is one UE's share of a partial fit: its walk, and the fold
// of the walk's moves into tallies and samples. seq counts the UE's
// retained samples, exactly like the serial fold retains them, so a
// sample's (UE, seq) identity is shard-invariant: the same UE under the
// same options numbers its samples alike in any process. The UE's
// tallies, samples and moments are the sink's own, so they move with it
// when partials merge and no per-event hash probe remains.
type partialSink struct {
	pf   *PartialFit
	d    cp.DeviceType
	ue   cp.UEID
	seq  uint32
	walk sm.Walk
	// rows holds the UE's tally row per hour-of-day: only the counts
	// taken, strictly ascending by PartialFit.lay slot (a UE-hour takes
	// ≈ 8 of ≈ 105), allocated at the hour's first tally.
	rows [HoursPerDay][]tally
	// logs holds the UE's exact samples per pool hour in emission order,
	// one record each: the pool's key byte, then the value in whole
	// milliseconds as a uvarint. hours holds each sample's pool hour, in
	// emission order too, so the i-th sample (seq i) is the next unread
	// record of logs[hours[i]]. A sketched partial logs its retained
	// samples only when Build starts.
	logs  [HoursPerDay][]byte
	hours []byte
	// mom holds sketched mode's per-hour IDLE ([h][0]) and CONNECTED
	// ([h][1]) sojourn moments — the clustering features, since the exact
	// per-UE sample lists are not recoverable from sketched pools — and
	// is allocated at the first one. A moment with n == 0 was never taken.
	mom *[HoursPerDay][2]welford
}

// tally counts one (kind, a, b) observation at hour h.
func (s *partialSink) tally(h, kind, a, b uint8) {
	s.count(h, s.pf.lay.slot(kind, a, b))
}

// count adds one to slot's count in hour h's row: the entry, or a new
// one inserted in slot order. A row starts with room for 8 entries and
// grows by half (8, 12, 18, …): rows are held whole until Build, and
// append's doubling would leave up to half of a long row spare.
func (s *partialSink) count(h uint8, slot int) {
	r := s.rows[h]
	i := 0
	for i < len(r) && int(r[i].slot) < slot {
		i++
	}
	if i < len(r) && int(r[i].slot) == slot {
		r[i].n++
		return
	}
	switch {
	case r == nil:
		r = make([]tally, 0, 8)
	case len(r) == cap(r):
		r = append(make([]tally, 0, cap(r)+cap(r)/2), r...)
	}
	s.rows[h] = slices.Insert(r, i, tally{slot: uint16(slot), n: 1})
}

// sample retains one sample of pool k: into the UE's logs, or in
// sketched mode into the device's sketch of the pool, tagged (UE, seq).
func (s *partialSink) sample(k poolKey, ms cp.Millis) {
	seq := s.seq
	s.seq++
	if s.pf.opt.SketchK == 0 {
		s.log(k, uint64(ms))
		return
	}
	sks := s.pf.devs[s.d].sketches
	i := s.pf.lay.poolIndex(k)
	if sks[i] == nil {
		sks[i] = stats.NewSketch(s.pf.opt.SketchK)
	}
	tag := uint64(s.ue)<<32 | uint64(seq)
	sks[i].Add(stats.SketchPriority(poolSalt(k), tag), tag, float64(ms))
}

// log appends a sample of pool k to the UE's logs.
func (s *partialSink) log(k poolKey, ms uint64) {
	l := grow(s.logs[k.Hour], 1+binary.MaxVarintLen64)
	l = append(l, byte(s.pf.lay.poolIndex(poolKey{Kind: k.Kind, A: k.A, B: k.B})))
	s.logs[k.Hour] = binary.AppendUvarint(l, ms)
	s.hours = append(grow(s.hours, 1), k.Hour)
}

// grow returns b with room for n more bytes. Logs are held whole until
// Build, so they grow by a third, not by append's doubling: their
// spare capacity is memory the fit holds.
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b
	}
	return append(make([]byte, 0, len(b)+len(b)/3+n+32), b...)
}

// eachSample calls fn on the UE's logged samples in emission order, with
// each one's seq, pool hour, key byte and milliseconds.
func (s *partialSink) eachSample(fn func(seq int, h, key byte, ms uint64)) {
	var at [HoursPerDay]int
	for seq, h := range s.hours {
		key, ms, next := record(s.logs[h], at[h])
		at[h] = next
		fn(seq, h, key, ms)
	}
}

// moment returns the UE's CONNECTED (conn) or IDLE moments at hour h.
func (s *partialSink) moment(h uint8, conn bool) *welford {
	if s.mom == nil {
		s.mom = new([HoursPerDay][2]welford)
	}
	c := 0
	if conn {
		c = 1
	}
	return &s.mom[h][c]
}

// push feeds the UE's next event to its walk and folds every event the
// walk makes ready. It reports false for an invalid event type.
func (s *partialSink) push(ev trace.Event) bool {
	ready, ok := s.walk.Push(ev)
	for _, ev := range ready {
		s.fold(ev, s.walk.Step(ev))
	}
	return ok
}

// finish folds the prefix of a UE that never had a Category-1 event.
func (s *partialSink) finish() {
	for _, ev := range s.walk.Finish() {
		s.fold(ev, s.walk.Step(ev))
	}
}

// entryHour is the hour a sojourn is filed under: the hour its state was
// entered at, because the generator draws a sojourn at entry; the
// event's own hour h when the entry precedes the UE's first event.
func entryHour(h uint8, at cp.Millis, known bool) uint8 {
	if known {
		return uint8(at.HourOfDay())
	}
	return h
}

// fold files what one event did: the §5.3 feature counts, the
// free-process gap, the transition's count and sojourn (a top exit also
// right-censors the bottom sojourn it cuts short, filed under that
// sojourn's entry hour), a violation, and the first event of a cell with
// the state after it.
func (s *partialSink) fold(ev trace.Event, mv sm.Move) {
	h, e := uint8(ev.T.HourOfDay()), ev.Type
	if e == cp.ServiceRequest || e == cp.S1ConnRelease {
		s.tally(h, cntEvt, 0, uint8(e))
	}
	// Only configured free-process events are retained; acc.build reads
	// no others.
	if mv.HasGap && s.pf.m.free[e] {
		s.sample(poolKey{Hour: h, Kind: poolFree, B: uint8(e)}, mv.Gap)
	}
	switch mv.Exit {
	case sm.ExitTop:
		eh := entryHour(h, mv.TopAt, mv.TopHas)
		s.tally(eh, cntTop, uint8(mv.Top), uint8(e))
		if mv.TopHas {
			soj := ev.T - mv.TopAt
			s.sample(poolKey{Hour: eh, Kind: poolTop, A: uint8(mv.Top), B: uint8(e)}, soj)
			// DEREGISTERED sojourns are not clustering features (§5.3).
			if s.pf.opt.SketchK > 0 && mv.Top != cp.StateDeregistered {
				s.moment(eh, mv.Top == cp.StateConnected).add(soj.Seconds())
			}
		}
		if mv.BotHas {
			s.sample(poolKey{Hour: uint8(mv.BotAt.HourOfDay()), Kind: poolCensor, A: uint8(mv.Bottom)}, ev.T-mv.BotAt)
		}
	case sm.ExitBottom:
		eh := entryHour(h, mv.BotAt, mv.BotHas)
		s.tally(eh, cntBot, uint8(mv.Bottom), uint8(e))
		if mv.BotHas {
			s.sample(poolKey{Hour: eh, Kind: poolBot, A: uint8(mv.Bottom), B: uint8(e)}, ev.T-mv.BotAt)
		}
	case sm.Stay:
		if mv.Violation {
			s.pf.violations++
		}
	}
	if mv.NewCell {
		s.tally(h, cntFirst, uint8(e), uint8(mv.State))
		s.tally(h, cntWithEv, 0, 0)
		s.sample(poolKey{Hour: h, Kind: poolFirst}, ev.T-cp.Millis(ev.T.HourIndex())*cp.Hour)
	}
}

// ---- construction and ingestion ----

// NewPartialFit returns an empty partial fit with the given options. An
// empty Method is "ours"; any other name outside Methods is an error.
// SketchK > 0 selects bounded-memory mode: every sample pool keeps at
// most SketchK observations in a mergeable bottom-k sketch.
func NewPartialFit(opt FitOptions) (*PartialFit, error) {
	if opt.Method == "" {
		opt.Method = "ours"
	}
	m, err := methodNamed(opt.Method)
	if err != nil {
		return nil, err
	}
	if opt.SketchK < 0 {
		return nil, fmt.Errorf("core: negative SketchK %d", opt.SketchK)
	}
	if m.noCluster {
		opt.Cluster = cluster.Options{}
	}
	return &PartialFit{
		opt:   opt,
		m:     m,
		lay:   newLayout(m.machine.NumStates()),
		devOf: make(map[cp.UEID]cp.DeviceType),
		exts:  make(map[cp.UEID]*partialSink),
	}, nil
}

func (pf *PartialFit) register(ue cp.UEID, d cp.DeviceType) {
	pf.devOf[ue] = d
	pf.dev(d).ues = append(pf.dev(d).ues, ue)
}

// dev returns device d's partial, creating it empty on first use.
func (pf *PartialFit) dev(d cp.DeviceType) *devPartial {
	dp := pf.devs[d]
	if dp == nil {
		dp = &devPartial{}
		if pf.opt.SketchK > 0 {
			dp.sketches = make([]*stats.Sketch, pf.lay.poolTableLen())
		}
		pf.devs[d] = dp
	}
	return dp
}

// AddEvent ingests one event of a registered UE. Events must arrive in
// canonical (time, UE, type) order across calls — the order every
// EventSource delivers.
func (pf *PartialFit) AddEvent(e trace.Event) error {
	if pf.built {
		return fmt.Errorf("core: partial fit already built")
	}
	s := pf.exts[e.UE]
	if s == nil { // the UE's first event: the one time its device is looked up
		d, ok := pf.devOf[e.UE]
		if !ok {
			return fmt.Errorf("core: event for unregistered UE %d", e.UE)
		}
		s = &partialSink{pf: pf, d: d, ue: e.UE, walk: sm.NewWalk(pf.m.machine)}
		pf.exts[e.UE] = s
	}
	if !s.push(e) {
		return fmt.Errorf("core: event of invalid type %d for UE %d", e.Type, e.UE)
	}
	if e.T > pf.span {
		pf.span = e.T
	}
	if pf.consumed >= 0 {
		pf.consumed++
	}
	return nil
}

// AddSource ingests a whole source: registrations, then one scan of the
// events. On a partial decoded from a checkpoint, the source's registry
// must match the checkpoint's and the first EventsConsumed events are
// skipped — pass the same source the checkpointed run was scanning and
// the fit resumes exactly where it stopped.
func (pf *PartialFit) AddSource(src trace.EventSource) error {
	return pf.AddSourceWithCheckpoints(src, 0, nil)
}

// AddSourceWithCheckpoints is AddSource with a checkpoint hook: after
// every multiple of `every` ingested events, checkpoint is called with
// the running total (its error aborts the scan). Checkpoint callbacks
// typically Encode the partial to a temporary file and rename it into
// place.
func (pf *PartialFit) AddSourceWithCheckpoints(src trace.EventSource, every int64, checkpoint func(consumed int64) error) error {
	if pf.built {
		return fmt.Errorf("core: partial fit already built")
	}
	if pf.consumed < 0 {
		return fmt.Errorf("core: merged partial fits cannot ingest a source; merge completed partials instead")
	}
	matched := 0
	err := src.Devices(func(ue cp.UEID, d cp.DeviceType) error {
		if !d.Valid() {
			return fmt.Errorf("core: invalid device type %d for UE %d", d, ue)
		}
		if prev, ok := pf.devOf[ue]; ok {
			if pf.restored && prev == d {
				matched++
				return nil
			}
			return fmt.Errorf("core: UE %d registered twice", ue)
		}
		if pf.restored {
			return fmt.Errorf("core: resume source registers UE %d absent from the checkpoint", ue)
		}
		pf.register(ue, d)
		return nil
	})
	if err != nil {
		return err
	}
	if pf.restored && matched != len(pf.devOf) {
		return fmt.Errorf("core: resume source registry mismatch: %d of %d checkpointed UEs present",
			matched, len(pf.devOf))
	}
	skip := pf.consumed // events of the source a restored partial has already ingested
	return src.ScanBatches(func(b *trace.Batch) error {
		i := int(min(skip, int64(b.Len())))
		skip -= int64(i)
		for ; i < b.Len(); i++ {
			if err := pf.AddEvent(b.At(i)); err != nil {
				return err
			}
			if every > 0 && checkpoint != nil && pf.consumed%every == 0 {
				if err := checkpoint(pf.consumed); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// EventsConsumed returns how many events this partial has ingested; -1
// once partials have been merged (a merged partial cannot resume a
// source scan).
func (pf *PartialFit) EventsConsumed() int64 { return pf.consumed }

// NumUEs returns the number of registered UEs.
func (pf *PartialFit) NumUEs() int { return len(pf.devOf) }

// ---- merging ----

// optionsMismatch explains why two partials cannot merge, or "".
func optionsMismatch(a, b FitOptions) string {
	switch {
	case a.Method != b.Method:
		return fmt.Sprintf("method %q vs %q", a.Method, b.Method)
	case a.Cluster != b.Cluster:
		return "cluster options differ"
	case a.SketchK != b.SketchK:
		return fmt.Sprintf("sketch k %d vs %d", a.SketchK, b.SketchK)
	}
	return ""
}

// Merge folds other into pf. The two partials must carry identical fit
// options and disjoint UE sets; other is consumed (sealed) by the
// merge. Merging is associative and commutative up to Build: any merge
// order or grouping of the same shards yields byte-identical models,
// because every tally and exact sample travels with its UE's sink and
// sketched samples carry their (UE, seq) identity.
func (pf *PartialFit) Merge(other *PartialFit) error {
	if other == pf {
		return fmt.Errorf("core: cannot merge a partial fit with itself")
	}
	if pf.built || other.built {
		return fmt.Errorf("core: cannot merge a built partial fit")
	}
	if why := optionsMismatch(pf.opt, other.opt); why != "" {
		return fmt.Errorf("core: merging incompatible partial fits: %s", why)
	}
	for _, d := range cp.DeviceTypes {
		odp := other.devs[d]
		if odp == nil {
			continue
		}
		for _, ue := range odp.ues {
			if _, dup := pf.devOf[ue]; dup {
				return fmt.Errorf("core: merging overlapping partial fits: UE %d in both", ue)
			}
		}
	}
	for _, d := range cp.DeviceTypes {
		odp := other.devs[d]
		if odp == nil {
			continue
		}
		dp := pf.dev(d)
		dp.ues = append(dp.ues, odp.ues...)
		for _, ue := range odp.ues {
			pf.devOf[ue] = d
		}
		// Sketch merge is commutative, so the fold order is free.
		for i, sk := range odp.sketches {
			switch {
			case sk == nil:
			case dp.sketches[i] == nil:
				dp.sketches[i] = sk
			default:
				dp.sketches[i].Merge(sk)
			}
		}
	}
	// Adopt other's sinks — and with them the UEs' walks, tallies, exact
	// samples and moments — re-pointed at the merged partial (ascending-UE order for
	// a deterministic walk).
	moved := make([]cp.UEID, 0, len(other.exts))
	for ue := range other.exts {
		moved = append(moved, ue)
	}
	slices.Sort(moved)
	for _, ue := range moved {
		s := other.exts[ue]
		s.pf = pf
		pf.exts[ue] = s
	}
	if other.span > pf.span {
		pf.span = other.span
	}
	pf.violations += other.violations
	pf.consumed = -1
	other.built = true // sealed: its state now lives in pf
	return nil
}

// ---- building ----

// buildPhaseDone is called on Build's goroutine at the end of each of its
// phases: the walks finished, each device's global fallback, each hour
// model. A finished phase's scratch is garbage then, so tests read the
// fit's live heap there. With Workers > 1 the hours call it concurrently.
var buildPhaseDone = func() {}

// Build finalizes the partial into a fitted ModelSet: it finishes every
// UE's walk, computes clustering features, runs the adaptive partition,
// splits the per-UE counts and samples per (hour, cluster) in (UE, seq)
// order, and fits every model with the same acc.build as always. Build
// consumes the partial — it frees each hour's samples and tallies once
// that hour is built, and a second call errors. A partial with no UE, or
// whose UEs have no event, is refused and left as it was.
func (pf *PartialFit) Build() (*ModelSet, error) {
	if pf.built {
		return nil, fmt.Errorf("core: partial fit already built")
	}
	total := len(pf.devOf)
	if total == 0 {
		return nil, fmt.Errorf("core: cannot fit an empty trace")
	}
	if len(pf.exts) == 0 { // a model fitted to silence would generate nothing
		return nil, fmt.Errorf("core: cannot fit a trace with no events (%d UEs registered, none has an event)", total)
	}
	pf.built = true
	// Finish every walk in ascending UE order; a UE whose stream
	// had no Category-1 event resolves and flushes its buffered prefix
	// here. (Samples are per-UE, so the finish order cannot leak into
	// the model — the sort just keeps the walk deterministic.)
	finishOrder := make([]cp.UEID, 0, len(pf.exts))
	for ue := range pf.exts {
		finishOrder = append(finishOrder, ue)
	}
	slices.Sort(finishOrder)
	for _, ue := range finishOrder {
		pf.exts[ue].finish()
	}
	buildPhaseDone()
	days := int((pf.span + cp.Day - 1) / cp.Day)
	if days < 1 {
		days = 1
	}
	ms := &ModelSet{
		MachineName: pf.m.machine.Name,
		Method:      pf.opt.Method,
		Devices:     make([]*DeviceModel, cp.NumDeviceTypes),
	}
	// Every device's global fallback comes before any hour model. The
	// hours free their logs and rows as the model grows, and a device's
	// sinks go once its hours are built, so the model never grows beside
	// a device's global lists or a finished device's sinks.
	plans := make([]*hourPlan, cp.NumDeviceTypes)
	for _, d := range cp.DeviceTypes {
		dp := pf.devs[d]
		if dp == nil || len(dp.ues) == 0 {
			continue
		}
		slices.Sort(dp.ues)
		dm, plan := dp.fitGlobal(pf, days)
		dm.Share = float64(len(dp.ues)) / float64(total)
		dm.TrainUEs = len(dp.ues)
		ms.Devices[d], plans[d] = dm, plan
		buildPhaseDone()
	}
	for d, p := range plans {
		switch {
		case p == nil:
			continue
		case p.wide:
			fitHours[int64](pf, p, days, ms.Devices[d])
		default:
			fitHours[uint32](pf, p, days, ms.Devices[d])
		}
		plans[d] = nil
		for _, ue := range pf.devs[d].ues {
			delete(pf.exts, ue)
		}
	}
	pf.exts = nil
	return ms, nil
}

// sinks returns, for every UE of ues, its sink — nil for a UE that never
// had an event, and so holds no tallies.
func (pf *PartialFit) sinks(ues []cp.UEID) []*partialSink {
	out := make([]*partialSink, len(ues))
	for i, ue := range ues {
		out[i] = pf.exts[ue]
	}
	return out
}

// logSketches turns a sketched device's retained samples into its UEs'
// logs, the one form Build reads: each UE's samples in seq order (a tie,
// which only a decoded partial can hold, in pool order). sinks are the
// sinks of dp.ues, which Build has sorted.
func (dp *devPartial) logSketches(pf *PartialFit, sinks []*partialSink) {
	type item struct {
		seq, pool uint32
		ms        uint64
	}
	byUE := make([][]item, len(dp.ues))
	for i, sk := range dp.sketches {
		if sk == nil {
			continue
		}
		for _, it := range sk.Items() {
			u, _ := slices.BinarySearch(dp.ues, cp.UEID(it.Tag>>32))
			byUE[u] = append(byUE[u], item{uint32(it.Tag), uint32(i), uint64(cp.Millis(it.V))})
		}
	}
	dp.sketches = nil
	for u, items := range byUE {
		slices.SortFunc(items, func(x, y item) int { return cmp.Or(cmp.Compare(x.seq, y.seq), cmp.Compare(x.pool, y.pool)) })
		for _, it := range items {
			sinks[u].log(pf.lay.poolKeyAt(int(it.pool)), it.ms)
		}
		byUE[u] = nil
	}
}

// hourPlan is what a device's hour models need of its first phase:
// its UEs' sinks, each hour's clustering, and its list width.
type hourPlan struct {
	sinks       []*partialSink
	clusterOf   [][]int32 // [h][i]: UE index i's cluster at hour h
	numClusters []int
	weights     [][]float64
	wide        bool // some sample lies outside [0, 2^32) ms: int64 lists
}

// fitGlobal runs a device's first phase: its clustering features, the
// adaptive partition, the personas and the global fallback, which frees
// the UEs' hour bytes. The plan it returns is fitHours' input.
func (dp *devPartial) fitGlobal(pf *PartialFit, days int) (*DeviceModel, *hourPlan) {
	p := &hourPlan{sinks: pf.sinks(dp.ues)}
	if dp.sketches != nil {
		dp.logSketches(pf, p.sinks)
	}
	p.clusterOf, p.numClusters, p.weights = clusterHours(dp.ues, pf, dp.featureFn(pf, p.sinks, days))
	dm := &DeviceModel{
		Personas: buildPersonas(p.clusterOf),
		Hours:    make([]HourModel, HoursPerDay),
	}
	dm.Global, p.wide = globalModel(pf, p.sinks, days)
	return dm, p
}

// fitHours fits a device's hour models from its UEs' logs and rows,
// freeing each hour's once that hour is built, in lists of T.
func fitHours[T sample](pf *PartialFit, p *hourPlan, days int, dm *DeviceModel) {
	lay := &pf.lay
	sinks := p.sinks
	nk, slots := lay.poolsPerHour(), lay.off[numCntKinds]
	par.For(HoursPerDay, pf.opt.Workers, func(h int) {
		var sc fitScratch[T] // this hour's buffers: its largest pool's worth
		nc := p.numClusters[h]
		accs := make([]acc[T], nc+1) // the clusters', then the aggregate
		counts := make([]int, len(accs)*slots)
		for c := range accs {
			accs[c].n = counts[c*slots : (c+1)*slots : (c+1)*slots]
		}
		agg := &accs[nc]
		// NumUEs/Cells are functions of the assignments alone — every
		// UE contributes whether or not it produced samples, exactly
		// like the serial per-UE fold.
		cl := p.clusterOf[h]
		for _, c := range cl {
			accs[c].NumUEs++
			accs[c].Cells += days
		}
		agg.NumUEs = len(sinks)
		agg.Cells = len(sinks) * days
		// Every sample goes to its cluster's list of its pool and to the
		// aggregate's: the lists are counted, then filled UE by UE, each
		// UE's samples in log order, so every list is in (UE, seq) order
		// and sized exactly. List (accs[a], key) is list a*nk+key of one
		// block, and accs[a]'s bounds are its run of the block's.
		bound := make([]int, len(accs)*nk+1)
		for i, s := range sinks {
			if s == nil {
				continue
			}
			accs[cl[i]].addRow(s.rows[h])
			agg.addRow(s.rows[h])
			for j, b := 0, s.logs[h]; j < len(b); j = skip(b, j) {
				bound[int(cl[i])*nk+int(b[j])+1]++
				bound[nc*nk+int(b[j])+1]++
			}
		}
		block := newBlock[T](bound)
		for i, s := range sinks {
			if s == nil {
				continue
			}
			for j, b := 0, s.logs[h]; j < len(b); {
				key, ms, next := record(b, j)
				x, y := int(cl[i])*nk+int(key)+1, nc*nk+int(key)+1
				block[bound[x]], block[bound[y]] = T(ms), T(ms)
				bound[x]++
				bound[y]++
				j = next
			}
			s.logs[h], s.rows[h] = nil, nil
		}
		for c := range accs {
			accs[c].block, accs[c].bound = block, bound[c*nk:(c+1)*nk+1]
		}
		hm := &dm.Hours[h]
		hm.Clusters = make([]ClusterModel, nc)
		cms := make([]*ClusterModel, nc+1)
		for c := range hm.Clusters {
			hm.Clusters[c] = accs[c].build(lay, pf.m, &sc)
			cms[c] = &hm.Clusters[c]
		}
		a := agg.build(lay, pf.m, &sc)
		hm.Aggregate, cms[nc] = &a, &a
		hm.Weights = p.weights[h]
		packGrids(cms...)
		buildPhaseDone()
	})
}

// newBlock lays out lists whose lengths are counted at bound[x+1]: it
// moves list x's start there and returns one block for every list. A
// fill that writes list x's values at bound[x+1], advancing it, leaves
// list x at block[bound[x]:bound[x+1]].
func newBlock[T sample](bound []int) []T {
	n := 0
	for x := 1; x < len(bound); x++ {
		n, bound[x] = n+bound[x], n
	}
	return make([]T, n)
}

// globalModel fits a device's hour-agnostic fallback: every tally of
// every hour, and each pool's samples across hours in (UE, seq) order —
// one walk of each UE's hour bytes, into one block whose lists are
// counted first. The count pass reads every value, so it also picks the
// device's list width, which it reports (wide: int64). The hour bytes
// are not read again, so it frees them.
func globalModel(pf *PartialFit, sinks []*partialSink, days int) (g *ClusterModel, wide bool) {
	bound := make([]int, pf.lay.poolsPerHour()+1)
	for _, s := range sinks {
		if s == nil {
			continue
		}
		for _, b := range s.logs {
			for j := 0; j < len(b); {
				key, ms, next := record(b, j)
				bound[int(key)+1]++
				wide = wide || ms >= 1<<32 // a negative value's two's complement too
				j = next
			}
		}
	}
	if wide {
		return globalOf[int64](pf, sinks, days, bound), true
	}
	return globalOf[uint32](pf, sinks, days, bound), false
}

// globalOf is globalModel's fit in lists of T, whose lengths bound
// counts as newBlock takes them.
func globalOf[T sample](pf *PartialFit, sinks []*partialSink, days int, bound []int) *ClusterModel {
	global := acc[T]{
		accCounts: accCounts{
			n:      make([]int, pf.lay.off[numCntKinds]),
			Cells:  len(sinks) * days * HoursPerDay,
			NumUEs: len(sinks),
		},
		block: newBlock[T](bound),
		bound: bound,
	}
	for _, s := range sinks {
		if s == nil {
			continue
		}
		for _, row := range s.rows {
			global.addRow(row)
		}
		s.eachSample(func(_ int, _, key byte, ms uint64) {
			global.block[bound[int(key)+1]] = T(ms)
			bound[int(key)+1]++
		})
		s.hours = nil
	}
	var sc fitScratch[T]
	g := global.build(&pf.lay, pf.m, &sc)
	packGrids(&g)
	return &g
}

// featureFn returns the §5.3 clustering-feature function for this
// device's UEs. Exact mode recovers each UE's per-hour CONNECTED/IDLE
// sojourn lists from its logs — in emission order, so the standard
// deviations are bit-identical to the reference fit. Sketched mode uses
// the per-UE streaming moments instead (the sketches are lossy), which is
// numerically equivalent but not bit-identical to the two-pass
// computation: sketched fits are self-consistent (sharded == unsharded)
// but intentionally diverge from exact fits.
func (dp *devPartial) featureFn(pf *PartialFit, sinks []*partialSink, days int) func(i, h int) cluster.Features {
	srvSlot := pf.lay.slot(cntEvt, 0, uint8(cp.ServiceRequest))
	relSlot := pf.lay.slot(cntEvt, 0, uint8(cp.S1ConnRelease))
	perDay := func(i, h, slot int) float64 {
		if sinks[i] == nil {
			return 0
		}
		for _, t := range sinks[i].rows[h] {
			if int(t.slot) == slot {
				return float64(t.n) / float64(days)
			}
		}
		return 0
	}
	if pf.opt.SketchK > 0 {
		return func(i, h int) cluster.Features {
			var mom [2]welford // IDLE, CONNECTED
			if sinks[i] != nil && sinks[i].mom != nil {
				mom = sinks[i].mom[h]
			}
			return cluster.Features{
				cluster.FSrvReqCount: perDay(i, h, srvSlot),
				cluster.FConnStd:     mom[1].std(),
				cluster.FS1RelCount:  perDay(i, h, relSlot),
				cluster.FIdleStd:     mom[0].std(),
			}
		}
	}
	var connStd, idleStd [HoursPerDay][]float64
	for h := 0; h < HoursPerDay; h++ {
		connStd[h], idleStd[h] = sojournStds(&pf.lay, sinks, h)
	}
	return func(i, h int) cluster.Features {
		return cluster.Features{
			cluster.FSrvReqCount: perDay(i, h, srvSlot),
			cluster.FConnStd:     connStd[h][i],
			cluster.FS1RelCount:  perDay(i, h, relSlot),
			cluster.FIdleStd:     idleStd[h][i],
		}
	}
}

// sojournStds returns, for every sink (nil: a UE without events), the
// standard deviations of its uncensored CONNECTED and IDLE sojourns at
// hour h in emission order — exactly the lists the per-UE extraction
// would have built; 0 for a UE with none.
func sojournStds(lay *layout, sinks []*partialSink, h int) (conn, idle []float64) {
	connKey := byte(lay.poolIndex(poolKey{Kind: poolTop, A: uint8(cp.StateConnected)}))
	idleKey := byte(lay.poolIndex(poolKey{Kind: poolTop, A: uint8(cp.StateIdle)}))
	conn, idle = make([]float64, len(sinks)), make([]float64, len(sinks))
	var cs, is []float64
	for i, sk := range sinks {
		if sk == nil {
			continue
		}
		cs, is = cs[:0], is[:0]
		for j, b := 0, sk.logs[h]; j < len(b); j = skip(b, j) {
			switch key := b[j]; {
			case key-connKey < byte(cp.NumEventTypes):
				_, ms, _ := record(b, j)
				cs = append(cs, seconds(ms))
			case key-idleKey < byte(cp.NumEventTypes):
				_, ms, _ := record(b, j)
				is = append(is, seconds(ms))
			}
		}
		conn[i], idle[i] = stats.StdDev(cs), stats.StdDev(is)
	}
	return conn, idle
}
