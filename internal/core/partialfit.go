package core

import (
	"cmp"
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
//     union — for any shard count, merge order, or merge tree. Every
//     retained sample is tagged with its (UE, per-UE sequence) identity,
//     so the serial fold order is reconstructed at Build time no matter
//     how the samples were scattered across partials;
//   - serializable: Encode/DecodePartial round-trip the full mid-scan
//     state (including each UE's walk) through the strict,
//     versioned partialfit/1 format, so a killed fit resumes from its
//     last checkpoint instead of restarting;
//   - boundable: with FitOptions.SketchK > 0, sample pools are backed
//     by mergeable bottom-k priority sketches (stats.Sketch) instead of
//     exact lists, capping per-pool memory at SketchK samples with the
//     quantile error bound of stats.SketchErrorBound. Sketch priorities
//     are deterministic hashes of the sample identity, so even sketched
//     fits are byte-identical sharded vs unsharded.
//
// Clustering is deferred to Build: the adaptive partition needs every
// UE's features, which only exist once all shards are merged. That is
// why counts are held per-(UE, hour), on each UE's sink — Build splits
// them per cluster after assignment — and why the partial's memory is
// O(UEs + samples),
// with the sample term bounded by the sketch and the UE term bounded by
// sharding.
//
// Fit is the thin driver over this type (NewPartialFit → AddSource →
// Build); construct one directly to shard, checkpoint, or bound a fit.
type PartialFit struct {
	opt     FitOptions
	freeSet [cp.NumEventTypes]bool
	lay     layout

	devOf map[cp.UEID]cp.DeviceType
	devs  [cp.NumDeviceTypes]*devPartial

	exts map[cp.UEID]*partialSink // per UE: its walk and fold, from its first event

	span       cp.Millis
	consumed   int64 // events ingested via AddEvent; -1 once merged (not resumable)
	violations int64
	restored   bool // decoded from a checkpoint: AddSource verifies the registry
	built      bool
}

// devPartial is one device type's share of a partial fit. Its integer
// tallies and sketched-mode moments live on each UE's partialSink, so
// they move with the UE when partials merge.
type devPartial struct {
	ues []cp.UEID
	// pools holds the float sample lists, indexed by layout.poolIndex of
	// (hour, kind, state, event); each sample is tagged (UE, seq), and a
	// pool is an exact list or a bottom-k sketch. nil: no samples yet.
	pools []*pool
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

// layout places a fit's per-UE tally rows and its pool tables; both
// depend on the machine's state count. A tally row holds one UE's counts
// of one hour-of-day: kind after kind in count-kind order, each kind's
// (a, b) keys a-major, so a walk of a kind's slots visits its keys in
// ascending packed order. A slot of zero is a count never taken.
type layout struct {
	shape [numCntKinds]cntShape
	off   [numCntKinds + 1]int // first slot of each kind; the last is the row length
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

// rowLen is the length of one tally row.
func (l *layout) rowLen() int { return l.off[numCntKinds] }

// slot is the row index of count (kind, a, b), which must be valid.
func (l *layout) slot(kind, a, b uint8) int {
	sh := &l.shape[kind]
	return l.off[kind] + int(a)*sh.nb + int(b) - sh.b0
}

// valid reports whether (kind, a, b) names a slot of the row.
func (l *layout) valid(kind, a, b uint8) bool {
	if kind >= numCntKinds {
		return false
	}
	sh := &l.shape[kind]
	return int(a) < sh.na && int(b) >= sh.b0 && int(b) < sh.b0+sh.nb
}

// key returns the (a, b) of the i-th slot of kind's stretch of the row.
func (l *layout) key(kind uint8, i int) (a, b uint8) {
	sh := &l.shape[kind]
	return uint8(i / sh.nb), uint8(sh.b0 + i%sh.nb)
}

// applyRow folds one tally row into an accumulator. cntEvt counts feed
// clustering features only, never the accumulators.
func (l *layout) applyRow(ac *acc, row []uint32) {
	for kind := cntTop; kind < cntEvt; kind++ {
		for i, n := range row[l.off[kind]:l.off[kind+1]] {
			if n == 0 {
				continue
			}
			a, b := l.key(kind, i)
			switch kind {
			case cntTop:
				ac.TopCount[topKey{S: cp.UEState(a), E: cp.EventType(b)}] += int(n)
			case cntBot:
				ac.BotCount[botKey{S: sm.State(a), E: cp.EventType(b)}] += int(n)
			case cntFirst:
				ac.FirstCnt[firstCatKey{E: cp.EventType(a), S: sm.State(b)}] += int(n)
			case cntWithEv:
				ac.WithEv += int(n)
			}
		}
	}
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

// ord packs the key so that ascending ords are the canonical
// (hour, kind, A, B) pool order; distinct keys have distinct ords.
func (k poolKey) ord() uint32 {
	return uint32(k.Hour)<<24 | uint32(k.Kind)<<16 | uint32(k.A)<<8 | uint32(k.B)
}

// poolTableLen is the length of a device's pool table.
func (l *layout) poolTableLen() int {
	return HoursPerDay * numPoolKinds * l.poolA * cp.NumEventTypes
}

// poolIndex is k's slot in the pool table: (hour, kind, A, B) in mixed
// radix, so ascending indices are ascending ords. A is below poolA and B
// below cp.NumEventTypes for every key ingest or decode admits.
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

// poolKeys returns the device's pool keys in canonical order.
func (dp *devPartial) poolKeys(l *layout) []poolKey {
	var keys []poolKey
	for i, p := range dp.pools {
		if p != nil {
			keys = append(keys, l.poolKeyAt(i))
		}
	}
	return keys
}

// pitem is one retained sample: the (UE, seq) identity that
// reconstructs the serial fold order, and the value.
type pitem struct {
	ue  cp.UEID
	seq uint32
	v   float64
}

// key packs the sample identity so that ascending keys are (UE, seq)
// order. A UE's sink numbers its retained samples 0, 1, 2, … across all
// pools and a UE lives in exactly one partial, so no two samples of a
// fit share a key: the order is total, and any correct sort — stable or
// not, comparison or radix — produces the same sequence.
func (it pitem) key() uint64 { return uint64(it.ue)<<32 | uint64(it.seq) }

// pitemRadixCutoff is the slice length below which sortPitems hands
// over to a comparison sort: a radix pass costs a 256-bucket histogram
// whatever the length.
const pitemRadixCutoff = 96

// sortPitems sorts items by key with an LSD radix sort, one byte per
// pass. The sweep that finds the already-sorted case (decoded
// checkpoints, single-UE pools) also finds which key bytes vary at all;
// passes over constant bytes — the high bytes of both halves, for the
// small UE ids and sequence numbers real pools hold — are skipped.
// *scratch is the ping-pong buffer, grown as needed and reusable across
// calls.
func sortPitems(items []pitem, scratch *[]pitem) {
	sorted := true
	and, or, prev := ^uint64(0), uint64(0), uint64(0)
	for i := range items {
		k := items[i].key()
		sorted = sorted && prev <= k
		and &= k
		or |= k
		prev = k
	}
	if sorted {
		return
	}
	if len(items) < pitemRadixCutoff {
		slices.SortFunc(items, func(x, y pitem) int { return cmp.Compare(x.key(), y.key()) })
		return
	}
	if cap(*scratch) < len(items) {
		*scratch = make([]pitem, len(items))
	}
	src, dst := items, (*scratch)[:len(items)]
	varying := and ^ or // bits that differ somewhere in the slice
	for shift := uint(0); shift < 64; shift += 8 {
		if varying>>shift&0xff == 0 {
			continue
		}
		var next [256]int
		for i := range src {
			next[src[i].key()>>shift&0xff]++
		}
		sum := 0
		for b, c := range next {
			next[b] = sum
			sum += c
		}
		for i := range src {
			b := src[i].key() >> shift & 0xff
			dst[next[b]] = src[i]
			next[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &items[0] {
		copy(items, src)
	}
}

// mergePitems merges lists, each already in key order, into *buf
// (overwritten, grown to the total length at once, reusable across
// calls) and returns the merged slice. It consumes the lists slice, not
// the items. Keys are unique across the lists, so there is no tie to
// break. Each round finds the list with the smallest head and the
// second-smallest head key, then moves the whole run below that bound —
// typically a UE's samples of one hour — rather than one item.
func mergePitems(buf *[]pitem, lists [][]pitem) []pitem {
	live, n := lists[:0], 0
	for _, l := range lists {
		if len(l) > 0 {
			live = append(live, l)
			n += len(l)
		}
	}
	if cap(*buf) < n {
		*buf = make([]pitem, 0, n)
	}
	dst := (*buf)[:0]
	for len(live) > 1 {
		best, bestKey, bound := 0, live[0][0].key(), uint64(math.MaxUint64)
		for i := 1; i < len(live); i++ {
			switch k := live[i][0].key(); {
			case k < bestKey:
				best, bestKey, bound = i, k, bestKey
			case k < bound:
				bound = k
			}
		}
		l := live[best]
		n := 1
		for n < len(l) && l[n].key() < bound {
			n++
		}
		dst = append(dst, l[:n]...)
		if n < len(l) {
			live[best] = l[n:]
		} else {
			live[best] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if len(live) == 1 {
		dst = append(dst, live[0]...)
	}
	*buf = dst
	return dst
}

// pool is one sample pool: an exact tagged list, or a bottom-k sketch
// when the partial runs in bounded-memory mode.
type pool struct {
	// items is the exact-mode list. Its order is not state — only the
	// multiset is — so canonicalItems is free to sort it in place.
	items []pitem
	sk    *stats.Sketch // sketched mode (items unused)
}

// count returns the total number of observations (kept or not).
func (p *pool) count() int64 {
	if p.sk != nil {
		return p.sk.N()
	}
	return int64(len(p.items))
}

// canonicalItems returns the retained samples in (UE, seq) order — the
// serial fold order within the pool. An exact pool is sorted in place
// and returned without a copy; scratch is sortPitems' buffer.
func (p *pool) canonicalItems(scratch *[]pitem) []pitem {
	items := p.items
	if p.sk != nil {
		ski := p.sk.Items()
		items = make([]pitem, len(ski))
		for i, it := range ski {
			items[i] = pitem{ue: cp.UEID(it.Tag >> 32), seq: uint32(it.Tag), v: it.V}
		}
	}
	sortPitems(items, scratch)
	return items
}

// addSample routes one tagged observation into pool k.
func (dp *devPartial) addSample(l *layout, k poolKey, sketchK int, ue cp.UEID, seq uint32, v float64) {
	i := l.poolIndex(k)
	p := dp.pools[i]
	if p == nil {
		p = &pool{}
		if sketchK > 0 {
			p.sk = stats.NewSketch(sketchK)
		}
		dp.pools[i] = p
	}
	if p.sk != nil {
		tag := uint64(ue)<<32 | uint64(seq)
		p.sk.Add(stats.SketchPriority(poolSalt(k), tag), tag, v)
		return
	}
	p.items = append(p.items, pitem{ue: ue, seq: seq, v: v})
}

// setPool installs vs as the accumulator's complete sample list for
// pool k; every (accumulator, pool) pair is written once. An empty list
// leaves the accumulator without an entry for the pool.
func (a *acc) setPool(k poolKey, vs []float64) {
	if len(vs) == 0 {
		return
	}
	switch k.Kind {
	case poolTop:
		a.TopSoj[topKey{S: cp.UEState(k.A), E: cp.EventType(k.B)}] = vs
	case poolBot:
		a.BotSoj[botKey{S: sm.State(k.A), E: cp.EventType(k.B)}] = vs
	case poolCensor:
		a.BotCensor[sm.State(k.A)] = vs
	case poolFree:
		a.FreeIA[cp.EventType(k.B)] = vs
	case poolFirst:
		a.FirstOff = vs
	}
}

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

// ---- the tagging sink ----

// partialSink is one UE's share of a partial fit: its walk, and the fold
// of the walk's moves into tallies and tagged samples. Every retained
// sample is tagged (UE, seq), seq counting retained samples only, exactly
// like the serial fold retains them, so (UE, seq) is shard-invariant: the
// same UE under the same options emits the same tags in any process. The
// UE's integer tallies and moments are the sink's own, so no per-event
// hash probe remains.
type partialSink struct {
	pf   *PartialFit
	d    cp.DeviceType
	ue   cp.UEID
	seq  uint32
	walk sm.Walk
	// rows holds the UE's tally row per hour-of-day (slots per
	// PartialFit.lay), allocated at the hour's first tally.
	rows [HoursPerDay][]uint32
	// mom holds sketched mode's per-hour IDLE ([h][0]) and CONNECTED
	// ([h][1]) sojourn moments — the clustering features, since the exact
	// per-UE sample lists are not recoverable from sketched pools — and
	// is allocated at the first one. A moment with n == 0 was never taken.
	mom *[HoursPerDay][2]welford
}

func (s *partialSink) nextSeq() uint32 {
	v := s.seq
	s.seq++
	return v
}

func (s *partialSink) dev() *devPartial { return s.pf.devs[s.d] }

// row returns the UE's tally row of hour h, allocating it at the hour's
// first tally.
func (s *partialSink) row(h uint8) []uint32 {
	r := s.rows[h]
	if r == nil {
		r = make([]uint32, s.pf.lay.rowLen())
		s.rows[h] = r
	}
	return r
}

// tally counts one (kind, a, b) observation at hour h.
func (s *partialSink) tally(h, kind, a, b uint8) {
	s.row(h)[s.pf.lay.slot(kind, a, b)]++
}

// sample routes one retained sample into the device's pool k.
func (s *partialSink) sample(k poolKey, v float64) {
	s.dev().addSample(&s.pf.lay, k, s.pf.opt.SketchK, s.ue, s.nextSeq(), v)
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
	if mv.HasGap && s.pf.freeSet[e] {
		s.sample(poolKey{Hour: h, Kind: poolFree, B: uint8(e)}, mv.Gap.Seconds())
	}
	switch mv.Exit {
	case sm.ExitTop:
		eh := entryHour(h, mv.TopAt, mv.TopHas)
		s.tally(eh, cntTop, uint8(mv.Top), uint8(e))
		if mv.TopHas {
			soj := (ev.T - mv.TopAt).Seconds()
			s.sample(poolKey{Hour: eh, Kind: poolTop, A: uint8(mv.Top), B: uint8(e)}, soj)
			// DEREGISTERED sojourns are not clustering features (§5.3).
			if s.pf.opt.SketchK > 0 && mv.Top != cp.StateDeregistered {
				s.moment(eh, mv.Top == cp.StateConnected).add(soj)
			}
		}
		if mv.BotHas {
			s.sample(poolKey{Hour: uint8(mv.BotAt.HourOfDay()), Kind: poolCensor, A: uint8(mv.Bottom)}, (ev.T - mv.BotAt).Seconds())
		}
	case sm.ExitBottom:
		eh := entryHour(h, mv.BotAt, mv.BotHas)
		s.tally(eh, cntBot, uint8(mv.Bottom), uint8(e))
		if mv.BotHas {
			s.sample(poolKey{Hour: eh, Kind: poolBot, A: uint8(mv.Bottom), B: uint8(e)}, (ev.T - mv.BotAt).Seconds())
		}
	case sm.Stay:
		if mv.Violation {
			s.pf.violations++
		}
	}
	if mv.NewCell {
		row := s.row(h)
		row[s.pf.lay.slot(cntFirst, uint8(e), uint8(mv.State))]++
		row[s.pf.lay.slot(cntWithEv, 0, 0)]++
		s.sample(poolKey{Hour: h, Kind: poolFirst}, (ev.T - cp.Millis(ev.T.HourIndex())*cp.Hour).Seconds())
	}
}

// ---- construction and ingestion ----

// NewPartialFit returns an empty partial fit with the given options
// (nil machine, empty sojourn kind and method default as in Fit).
// SketchK > 0 selects bounded-memory mode: every sample pool keeps at
// most SketchK observations in a mergeable bottom-k sketch.
func NewPartialFit(opt FitOptions) (*PartialFit, error) {
	opt = opt.withDefaults()
	if opt.SketchK < 0 {
		return nil, fmt.Errorf("core: negative SketchK %d", opt.SketchK)
	}
	pf := &PartialFit{
		opt:   opt,
		lay:   newLayout(opt.Machine.NumStates()),
		devOf: make(map[cp.UEID]cp.DeviceType),
		exts:  make(map[cp.UEID]*partialSink),
	}
	for _, e := range opt.FreeEvents {
		if e.Valid() {
			pf.freeSet[e] = true
		}
	}
	return pf, nil
}

func (pf *PartialFit) register(ue cp.UEID, d cp.DeviceType) {
	pf.devOf[ue] = d
	pf.dev(d).ues = append(pf.dev(d).ues, ue)
}

// dev returns device d's partial, creating it empty on first use.
func (pf *PartialFit) dev(d cp.DeviceType) *devPartial {
	dp := pf.devs[d]
	if dp == nil {
		dp = &devPartial{pools: make([]*pool, pf.lay.poolTableLen())}
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
		s = &partialSink{pf: pf, d: d, ue: e.UE, walk: sm.NewWalk(pf.opt.Machine)}
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
	case a.Machine != b.Machine && a.Machine.Name != b.Machine.Name:
		return fmt.Sprintf("machine %q vs %q", a.Machine.Name, b.Machine.Name)
	case a.SojournKind != b.SojournKind:
		return fmt.Sprintf("sojourn kind %q vs %q", a.SojournKind, b.SojournKind)
	case len(a.FreeEvents) != len(b.FreeEvents):
		return "free events differ"
	case a.NoClustering != b.NoClustering:
		return "clustering flag differs"
	case a.Cluster != b.Cluster:
		return "cluster options differ"
	case a.Method != b.Method:
		return fmt.Sprintf("method %q vs %q", a.Method, b.Method)
	case a.SketchK != b.SketchK:
		return fmt.Sprintf("sketch k %d vs %d", a.SketchK, b.SketchK)
	}
	for i := range a.FreeEvents {
		if a.FreeEvents[i] != b.FreeEvents[i] {
			return "free events differ"
		}
	}
	return ""
}

// Merge folds other into pf. The two partials must carry identical fit
// options and disjoint UE sets; other is consumed (sealed) by the
// merge. Merging is associative and commutative up to Build: any merge
// order or grouping of the same shards yields byte-identical models,
// because samples carry their serial-fold identity and every tally
// travels with its UE's sink.
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
		// Sketch merge is commutative and exact lists are sorted by
		// (UE, seq) at Build, so the fold order is free.
		for i, p := range odp.pools {
			mine := dp.pools[i]
			switch {
			case p == nil:
			case mine == nil:
				dp.pools[i] = p
			case mine.sk != nil:
				mine.sk.Merge(p.sk)
			default:
				mine.items = append(mine.items, p.items...)
			}
		}
	}
	// Adopt other's sinks — and with them the UEs' walks, tallies and
	// moments — re-pointed at the merged partial (ascending-UE order for
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

// Build finalizes the partial into a fitted ModelSet: it finishes every
// UE's walk, computes clustering features, runs the adaptive
// partition, splits the per-UE counts and (UE, seq)-ordered sample
// pools per (hour, cluster), and fits every model with the same
// acc.build as always. Build consumes the partial — a second call
// errors.
func (pf *PartialFit) Build() (*ModelSet, error) {
	if pf.built {
		return nil, fmt.Errorf("core: partial fit already built")
	}
	total := len(pf.devOf)
	if total == 0 {
		return nil, fmt.Errorf("core: cannot fit an empty trace")
	}
	pf.built = true
	// Finish every walk in ascending UE order; a UE whose stream
	// had no Category-1 event resolves and flushes its buffered prefix
	// here. (Sample identity is (UE, seq)-tagged, so the finish order
	// cannot leak into the model — the sort just keeps the walk
	// deterministic.)
	finishOrder := make([]cp.UEID, 0, len(pf.exts))
	for ue := range pf.exts {
		finishOrder = append(finishOrder, ue)
	}
	slices.Sort(finishOrder)
	for _, ue := range finishOrder {
		pf.exts[ue].finish()
	}
	days := int((pf.span + cp.Day - 1) / cp.Day)
	if days < 1 {
		days = 1
	}
	ms := &ModelSet{
		MachineName: pf.opt.Machine.Name,
		Method:      pf.opt.Method,
		Devices:     make([]*DeviceModel, cp.NumDeviceTypes),
	}
	for _, d := range cp.DeviceTypes {
		dp := pf.devs[d]
		if dp == nil || len(dp.ues) == 0 {
			continue
		}
		slices.Sort(dp.ues)
		dm := dp.build(pf, days)
		dm.Share = float64(len(dp.ues)) / float64(total)
		dm.TrainUEs = len(dp.ues)
		ms.Devices[d] = dm
	}
	return ms, nil
}

// ueCursor resolves UE ids to their index in an ascending UE list by a
// forward walk: the ids asked for must themselves ascend and be in the
// list, which holds for the UE-grouped records Build walks because
// AddEvent and DecodePartial admit only registered UEs.
type ueCursor struct {
	ues []cp.UEID
	i   int
}

func (c *ueCursor) index(ue cp.UEID) int {
	for c.ues[c.i] != ue {
		c.i++
	}
	return c.i
}

// ueRunEnd returns the end of the run of items[i]'s UE.
func ueRunEnd(items []pitem, i int) int {
	j := i + 1
	for j < len(items) && items[j].ue == items[i].ue {
		j++
	}
	return j
}

// pitemValues copies the items' values out, in order.
func pitemValues(items []pitem) []float64 {
	vs := make([]float64, len(items))
	for i := range items {
		vs[i] = items[i].v
	}
	return vs
}

// splitByCluster installs one canonical pool's values into the
// per-cluster accumulators: a stable counting split (count per cluster,
// then fill) into one block of exactly len(items) values, so each
// cluster's list keeps the (UE, seq) order and nothing grows by append.
// cl[i] is the cluster of ues[i]; the cluster is looked up once per UE
// run, not per sample.
func splitByCluster(accs []*acc, k poolKey, items []pitem, ues []cp.UEID, cl []int) {
	end := make([]int, len(accs)) // per cluster: count, then fill position
	cur := ueCursor{ues: ues}
	for i := 0; i < len(items); {
		j := ueRunEnd(items, i)
		end[cl[cur.index(items[i].ue)]] += j - i
		i = j
	}
	off := 0
	for c, n := range end {
		end[c] = off
		off += n
	}
	block := make([]float64, len(items))
	cur.i = 0
	for i := 0; i < len(items); {
		j := ueRunEnd(items, i)
		c := cl[cur.index(items[i].ue)]
		for ; i < j; i++ {
			block[end[c]] = items[i].v
			end[c]++
		}
	}
	start := 0
	for c, e := range end {
		accs[c].setPool(k, block[start:e:e])
		start = e
	}
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

// build fits one device type's model from its partial state.
func (dp *devPartial) build(pf *PartialFit, days int) *DeviceModel {
	opt := pf.opt
	lay := &pf.lay
	ues := dp.ues
	sinks := pf.sinks(ues)

	// Put every pool in (UE, seq) order — the one sort a sample ever
	// gets; everything downstream splits or merges these lists. pools is
	// indexed like dp.pools.
	pools := make([][]pitem, len(dp.pools))
	var scratch []pitem // the sort's and the merges' buffer: one pool's worth
	var hourKeys [HoursPerDay][]poolKey
	for i, p := range dp.pools {
		if p != nil {
			pools[i] = p.canonicalItems(&scratch)
			k := lay.poolKeyAt(i)
			hourKeys[k.Hour] = append(hourKeys[k.Hour], k)
		}
	}

	assignments, numClusters, weights := clusterHours(ues, opt, dp.featureFn(pf, sinks, pools, days, &scratch))

	dm := &DeviceModel{
		Personas: buildPersonas(ues, assignments),
		Hours:    make([]HourModel, HoursPerDay),
	}
	par.For(HoursPerDay, opt.Workers, func(h int) {
		var sortBuf []float64 // this hour's value-sort buffer: its largest pool's worth
		accs := make([]*acc, numClusters[h])
		for c := range accs {
			accs[c] = newAcc()
		}
		agg := newAcc()
		// NumUEs/Cells are functions of the assignments alone — every
		// UE contributes whether or not it produced samples, exactly
		// like the serial per-UE fold.
		cl := make([]int, len(ues))
		for i, ue := range ues {
			c := assignments[h][ue]
			cl[i] = c
			accs[c].NumUEs++
			accs[c].Cells += days
		}
		agg.NumUEs = len(ues)
		agg.Cells = len(ues) * days
		for i, s := range sinks {
			if s == nil || s.rows[h] == nil {
				continue
			}
			lay.applyRow(accs[cl[i]], s.rows[h])
			lay.applyRow(agg, s.rows[h])
		}
		// Pool items are UE-grouped in ascending UE order, so their
		// clusters come from cl by a forward walk.
		for _, k := range hourKeys[h] {
			items := pools[lay.poolIndex(k)]
			agg.setPool(k, pitemValues(items))
			splitByCluster(accs, k, items, ues, cl)
		}
		hm := &dm.Hours[h]
		hm.Clusters = make([]ClusterModel, numClusters[h])
		for c := range accs {
			hm.Clusters[c] = accs[c].build(opt.Machine, opt, &sortBuf)
		}
		a := agg.build(opt.Machine, opt, &sortBuf)
		hm.Aggregate = &a
		hm.Weights = weights[h]
	})

	// Global fallback: hour-agnostic sums, and each pool's per-hour
	// lists merged back into one (UE, seq)-ordered list across hours.
	global := newAcc()
	global.NumUEs = len(ues)
	global.Cells = len(ues) * days * HoursPerDay
	for _, s := range sinks {
		if s == nil {
			continue
		}
		for _, row := range s.rows {
			if row != nil {
				lay.applyRow(global, row)
			}
		}
		// Every tally is folded in and Build consumes the partial: the
		// rows go before the global merge, Build's high-water mark.
		s.rows = [HoursPerDay][]uint32{}
	}
	var lists [][]pitem
	for kind := uint8(0); kind < numPoolKinds; kind++ {
		for a := 0; a < lay.poolA; a++ {
			for b := 0; b < cp.NumEventTypes; b++ {
				lists = lists[:0]
				for h := 0; h < HoursPerDay; h++ {
					if l := pools[lay.poolIndex(poolKey{Hour: uint8(h), Kind: kind, A: uint8(a), B: uint8(b)})]; l != nil {
						lists = append(lists, l)
					}
				}
				if len(lists) > 0 {
					global.setPool(poolKey{Kind: kind, A: uint8(a), B: uint8(b)}, pitemValues(mergePitems(&scratch, lists)))
				}
			}
		}
	}
	var sortBuf []float64
	g := global.build(opt.Machine, opt, &sortBuf)
	dm.Global = &g
	return dm
}

// featureFn returns the §5.3 clustering-feature function for this
// device's UEs. Exact mode recovers each UE's per-hour CONNECTED/IDLE
// sojourn lists from the top pools — in emission order, so the standard
// deviations are bit-identical to the reference fit. Sketched mode uses
// the per-UE streaming moments instead (the pools are lossy), which is
// numerically equivalent but not bit-identical to the two-pass
// computation: sketched fits are self-consistent (sharded == unsharded)
// but intentionally diverge from exact fits.
func (dp *devPartial) featureFn(pf *PartialFit, sinks []*partialSink, pools [][]pitem, days int, scratch *[]pitem) func(i, h int) cluster.Features {
	ues := dp.ues
	srvSlot := pf.lay.slot(cntEvt, 0, uint8(cp.ServiceRequest))
	relSlot := pf.lay.slot(cntEvt, 0, uint8(cp.S1ConnRelease))
	perDay := func(i, h, slot int) float64 {
		if sinks[i] == nil || sinks[i].rows[h] == nil {
			return 0
		}
		return float64(sinks[i].rows[h][slot]) / float64(days)
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
		connStd[h] = sojournStds(&pf.lay, ues, pools, h, cp.StateConnected, scratch)
		idleStd[h] = sojournStds(&pf.lay, ues, pools, h, cp.StateIdle, scratch)
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

// sojournStds recovers, for every UE (by index in ues) with uncensored
// sojourns of macro state s at hour h, the standard deviation of those
// sojourns in emission order — exactly the list the per-UE extraction
// would have built; 0 for a UE with none. The per-event pools are
// already canonical, so merging them restores the UE's emission order.
func sojournStds(lay *layout, ues []cp.UEID, pools [][]pitem, h int, s cp.UEState, scratch *[]pitem) []float64 {
	lists := make([][]pitem, 0, cp.NumEventTypes)
	for _, e := range cp.EventTypes {
		lists = append(lists, pools[lay.poolIndex(poolKey{Hour: uint8(h), Kind: poolTop, A: uint8(s), B: uint8(e)})])
	}
	all := mergePitems(scratch, lists)
	out := make([]float64, len(ues))
	cur := ueCursor{ues: ues}
	var vs []float64
	for i := 0; i < len(all); {
		j := ueRunEnd(all, i)
		vs = vs[:0]
		for _, it := range all[i:j] {
			vs = append(vs, it.v)
		}
		out[cur.index(all[i].ue)] = stats.StdDev(vs)
		i = j
	}
	return out
}
