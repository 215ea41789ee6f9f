package core

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"cptraffic/internal/cluster"
	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// PartialFormatV1 is the format tag every partialfit/1 file must carry.
// The format is strict like scenario/1: unknown fields and unknown
// format tags are rejected, and Encode emits one canonical byte stream
// per partial state (devices in device-type order, UEs ascending,
// counts by packed key, pool items by (UE, seq)), so a file round-trips
// byte-identically through DecodePartial and Encode. The normative
// field reference lives in PARTIALFIT.md at the repo root.
const PartialFormatV1 = "partialfit/1"

// partialFile is the top-level partialfit/1 document.
type partialFile struct {
	// Format must be "partialfit/1".
	Format string `json:"format"`
	// Options pins the fit options; partials only merge when they agree.
	Options partialOptions `json:"options"`
	// SpanMS is the maximum event timestamp seen, in ms.
	SpanMS int64 `json:"span_ms"`
	// EventsConsumed counts ingested events (resume skips that many),
	// or -1 for a merged partial, which cannot resume a source.
	EventsConsumed int64 `json:"events_consumed"`
	// Violations counts machine-violation events observed so far.
	Violations int64 `json:"violations,omitempty"`
	// Devices holds one block per device type with registered UEs, in
	// device-type order.
	Devices []partialDevice `json:"devices"`
}

// partialOptions is the serialized form of FitOptions. Workers is
// deliberately absent: it never affects the fitted bytes. Machine,
// SojournKind, FreeEvents and NoClustering follow from Method (Table 3):
// Encode writes its method's, and DecodePartial refuses any other.
type partialOptions struct {
	// Machine is the method's state-machine name ("LTE-2LEVEL", "EMM-ECM").
	Machine string `json:"machine"`
	// Method is the fitting method ("ours", "base", "v1", "v2").
	Method string `json:"method"`
	// SojournKind is the method's sojourn family ("table" or "exp"
	// spellings of SojournTable / SojournExp).
	SojournKind string `json:"sojourn_kind"`
	// FreeEvents lists the method's free-process event types by name, in
	// event-type order.
	FreeEvents []string `json:"free_events,omitempty"`
	// NoClustering is set for a method that does not cluster (base).
	NoClustering bool `json:"no_clustering,omitempty"`
	// ThetaF carries the four per-feature split thresholds (raw option
	// values; zeros mean the cluster package defaults).
	ThetaF []float64 `json:"theta_f"`
	// ThetaN is the minimum cluster size before a split is considered.
	ThetaN int `json:"theta_n"`
	// MaxDepth bounds the partition tree depth.
	MaxDepth int `json:"max_depth"`
	// SketchK is the bounded-memory pool size; 0 means exact pools.
	SketchK int `json:"sketch_k,omitempty"`
}

// partialDevice is one device type's state.
type partialDevice struct {
	// Device is the device-type name ("phone", "connected_car", "tablet").
	Device string `json:"device"`
	// UEs lists the registered UE IDs, strictly ascending.
	UEs []cp.UEID `json:"ues"`
	// Extractors holds the in-flight per-UE walk states, by UE ascending.
	Extractors []partialExtractor `json:"extractors,omitempty"`
	// Counts holds every integer tally in packed-column form.
	Counts partialCounts `json:"counts"`
	// Pools holds the tagged sample pools in canonical key order.
	Pools []partialPool `json:"pools,omitempty"`
	// Moments holds the sketched-mode per-UE feature moments, sorted by
	// (ue, hour, conn).
	Moments []partialMoment `json:"moments,omitempty"`
}

// partialCounts is a column-oriented dump of the per-UE tally rows, sorted
// by (ue, key) ascending, one entry per nonzero tally. Entry i is
// (UE[i], Key[i]) -> N[i], where Key packs kind<<29 | hour<<24 | a<<8 | b
// and 0 < N[i] <= MaxUint32.
type partialCounts struct {
	UE  []cp.UEID `json:"ue,omitempty"`
	Key []uint32  `json:"key,omitempty"`
	N   []int64   `json:"n,omitempty"`
}

// partialPool is one sample pool. The kind decides which of state/event
// are meaningful: "top" (state = cp.UEState, event), "bot" (state =
// machine state, event), "censor" (state only), "free" (event only),
// "first" (neither). Items are column-oriented in (ue, seq) order; n is
// the total number of observations, which exceeds len(ue) when the pool
// is a bottom-k sketch (sketch priorities are recomputed on decode, so
// they never appear on the wire).
type partialPool struct {
	Hour  int       `json:"hour"`
	Kind  string    `json:"kind"`
	State int       `json:"state,omitempty"`
	Event string    `json:"event,omitempty"`
	N     int64     `json:"n"`
	UE    []cp.UEID `json:"ue,omitempty"`
	Seq   []uint32  `json:"seq,omitempty"`
	V     []float64 `json:"v,omitempty"`
}

// partialMoment is one UE's streaming sojourn moments at one hour
// (conn=true for CONNECTED, false for IDLE): count, mean, and the
// Welford M2 sum of squared deviations.
type partialMoment struct {
	UE    cp.UEID `json:"ue"`
	Hour  int     `json:"hour"`
	Conn  bool    `json:"conn,omitempty"`
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	M2    float64 `json:"m2"`
}

// partialExtractor is one UE's in-flight sm.Walk, field by field — the
// buffered undecided prefix, the two machine levels, and the
// per-event-type recency state — and its sink's sample count (Seq).
// The fixed-length arrays are indexed by event type; their length is
// pinned to the event-type count (a new event type is a format break).
type partialExtractor struct {
	UE             cp.UEID        `json:"ue"`
	Seq            uint32         `json:"seq,omitempty"`
	Decided        bool           `json:"decided,omitempty"`
	Buf            []partialEvent `json:"buf,omitempty"`
	Macro          int            `json:"macro"`
	Bottom         int            `json:"bottom"`
	MacroAtMS      int64          `json:"macro_at_ms"`
	BotAtMS        int64          `json:"bot_at_ms"`
	MacroHas       bool           `json:"macro_has,omitempty"`
	BotHas         bool           `json:"bot_has,omitempty"`
	LastOfTypeMS   []int64        `json:"last_of_type_ms"`
	LastCellOfType []int          `json:"last_cell_of_type"`
	SeenType       []bool         `json:"seen_type"`
	LastCell       int            `json:"last_cell"`
}

// partialEvent is one buffered event of the extractor's own UE.
type partialEvent struct {
	TMS  int64  `json:"t_ms"`
	Type string `json:"type"`
}

var poolKindNames = [numPoolKinds]string{
	poolTop:    "top",
	poolBot:    "bot",
	poolCensor: "censor",
	poolFree:   "free",
	poolFirst:  "first",
}

func poolKindByName(s string) (uint8, bool) {
	for k, n := range poolKindNames {
		if n == s {
			return uint8(k), true
		}
	}
	return 0, false
}

// Encode writes the partial's full state as one canonical partialfit/1
// JSON document. A built partial cannot be encoded (Build consumes the
// state).
func (pf *PartialFit) Encode(w io.Writer) error {
	if pf.built {
		return fmt.Errorf("core: cannot encode a built partial fit")
	}
	f := partialFile{
		Format:         PartialFormatV1,
		SpanMS:         int64(pf.span),
		EventsConsumed: pf.consumed,
		Violations:     pf.violations,
	}
	f.Options = pf.m.fileOptions()
	f.Options.ThetaF = append([]float64(nil), pf.opt.Cluster.ThetaF[:]...)
	f.Options.ThetaN = pf.opt.Cluster.ThetaN
	f.Options.MaxDepth = pf.opt.Cluster.MaxDepth
	f.Options.SketchK = pf.opt.SketchK
	for _, d := range cp.DeviceTypes {
		dp := pf.devs[d]
		if dp == nil || len(dp.ues) == 0 {
			continue
		}
		pd := partialDevice{Device: d.String()}
		pd.UEs = append([]cp.UEID(nil), dp.ues...)
		slices.Sort(pd.UEs)

		pools := make([]*partialPool, pf.lay.poolTableLen()) // by layout.poolIndex
		pool := func(i int) *partialPool {
			if pools[i] == nil {
				pools[i] = newPartialPool(pf.lay.poolKeyAt(i))
			}
			return pools[i]
		}
		for _, ue := range pd.UEs {
			sink := pf.exts[ue]
			if sink == nil {
				continue
			}
			pd.Extractors = append(pd.Extractors, encodeExtractor(ue, sink))
			pf.lay.encodeCounts(&pd.Counts, ue, sink)
			pd.Moments = encodeMoments(pd.Moments, ue, sink)
			// A sample's seq is its position among the UE's hour bytes.
			sink.eachSample(func(seq int, h, key byte, ms uint64) {
				pp := pool(int(h)*pf.lay.poolsPerHour() + int(key))
				pp.N++
				pp.UE = append(pp.UE, ue)
				pp.Seq = append(pp.Seq, uint32(seq))
				pp.V = append(pp.V, seconds(ms))
			})
		}
		for i, sk := range dp.sketches {
			if sk == nil {
				continue
			}
			pp := pool(i)
			pp.N = sk.N()
			items := sk.Items()
			slices.SortFunc(items, func(x, y stats.SketchItem) int { return cmp.Compare(x.Tag, y.Tag) })
			for _, it := range items {
				pp.UE = append(pp.UE, cp.UEID(it.Tag>>32))
				pp.Seq = append(pp.Seq, uint32(it.Tag))
				pp.V = append(pp.V, cp.Millis(it.V).Seconds())
			}
		}
		for _, pp := range pools {
			if pp != nil {
				pd.Pools = append(pd.Pools, *pp)
			}
		}
		f.Devices = append(f.Devices, pd)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// newPartialPool returns pool k's entry, without samples.
func newPartialPool(k poolKey) *partialPool {
	pp := &partialPool{Hour: int(k.Hour), Kind: poolKindNames[k.Kind]}
	switch k.Kind {
	case poolTop, poolBot:
		pp.State = int(k.A)
		pp.Event = cp.EventType(k.B).String()
	case poolCensor:
		pp.State = int(k.A)
	case poolFree:
		pp.Event = cp.EventType(k.B).String()
	}
	return pp
}

// encodeCounts appends the UE's nonzero tallies to c in packed-key
// order: kind-major, then hour, then each kind's slots ascending.
func (l *layout) encodeCounts(c *partialCounts, ue cp.UEID, s *partialSink) {
	for kind := uint8(0); kind < numCntKinds; kind++ {
		for h, row := range s.rows {
			for _, t := range row {
				if k, a, b := l.key(int(t.slot)); k == kind {
					c.UE = append(c.UE, ue)
					c.Key = append(c.Key, cntKey(kind, uint8(h), a, b))
					c.N = append(c.N, int64(t.n))
				}
			}
		}
	}
}

// encodeMoments appends the UE's taken moments to ms in (hour, conn)
// order, IDLE before CONNECTED.
func encodeMoments(ms []partialMoment, ue cp.UEID, s *partialSink) []partialMoment {
	if s.mom == nil {
		return ms
	}
	for h := range s.mom {
		for c, w := range s.mom[h] {
			if w.n > 0 {
				ms = append(ms, partialMoment{UE: ue, Hour: h, Conn: c == 1, Count: w.n, Mean: w.mean, M2: w.m2})
			}
		}
	}
	return ms
}

// encodeExtractor writes the UE's walk, field by field, and its sink's
// sample sequence number.
func encodeExtractor(ue cp.UEID, s *partialSink) partialExtractor {
	w := &s.walk
	px := partialExtractor{
		UE:             ue,
		Seq:            s.seq,
		Decided:        w.Decided,
		Macro:          int(w.Macro),
		Bottom:         int(w.Bottom),
		MacroAtMS:      int64(w.MacroAt),
		BotAtMS:        int64(w.BotAt),
		MacroHas:       w.MacroHas,
		BotHas:         w.BotHas,
		LastOfTypeMS:   make([]int64, cp.NumEventTypes),
		LastCellOfType: w.LastCellOfType[:],
		SeenType:       w.SeenType[:],
		LastCell:       w.LastCell,
	}
	for _, ev := range w.Buf {
		px.Buf = append(px.Buf, partialEvent{TMS: int64(ev.T), Type: ev.Type.String()})
	}
	for i, t := range w.LastOfType {
		px.LastOfTypeMS[i] = int64(t)
	}
	return px
}

// DecodePartial reads one partialfit/1 document and reconstructs the
// partial fit, mid-scan walk state included. Decoding is strict:
// unknown fields, unknown format tags, unknown names, unsorted or
// inconsistent columns are all errors. The result behaves exactly like
// the encoded partial — resume its source scan with AddSource, Merge it
// with sibling shards, or Build it.
func DecodePartial(r io.Reader) (*PartialFit, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f partialFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding partial fit: %w", err)
	}
	// Encode ends the document with one newline and writes nothing after
	// it: anything else is a truncated file, or more than one.
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), r))
	if err != nil {
		return nil, fmt.Errorf("core: decoding partial fit: %w", err)
	}
	if string(rest) != "\n" {
		return nil, fmt.Errorf("core: partial fit: the document must end in one newline, with nothing after it")
	}
	if f.Format != PartialFormatV1 {
		return nil, fmt.Errorf("core: unknown partial-fit format %q (want %q)", f.Format, PartialFormatV1)
	}
	pf, err := decodePartialOptions(f.Options)
	if err != nil {
		return nil, err
	}
	if f.EventsConsumed < -1 {
		return nil, fmt.Errorf("core: partial fit: invalid events_consumed %d", f.EventsConsumed)
	}
	pf.span = cp.Millis(f.SpanMS)
	pf.consumed = f.EventsConsumed
	pf.violations = f.Violations
	pf.restored = true

	seenDev := map[string]bool{}
	for _, pd := range f.Devices {
		d, err := cp.ParseDeviceType(pd.Device)
		if err != nil {
			return nil, fmt.Errorf("core: partial fit: %w", err)
		}
		if seenDev[pd.Device] {
			return nil, fmt.Errorf("core: partial fit: device %q appears twice", pd.Device)
		}
		seenDev[pd.Device] = true
		if len(pd.UEs) == 0 {
			return nil, fmt.Errorf("core: partial fit: device %q has no UEs", pd.Device)
		}
		for i, ue := range pd.UEs {
			if i > 0 && pd.UEs[i-1] >= ue {
				return nil, fmt.Errorf("core: partial fit: device %q UE list not strictly ascending", pd.Device)
			}
			if _, dup := pf.devOf[ue]; dup {
				return nil, fmt.Errorf("core: partial fit: UE %d registered twice", ue)
			}
			pf.register(ue, d)
		}
		// Counts and moments live on the UEs' sinks, which the
		// extractors create, so those come first.
		if err := decodeExtractors(d, pf, pd); err != nil {
			return nil, err
		}
		if err := decodeCounts(d, pf, pd); err != nil {
			return nil, err
		}
		if err := decodePools(d, pf, pd); err != nil {
			return nil, err
		}
		if err := decodeMoments(d, pf, pd); err != nil {
			return nil, err
		}
	}
	return pf, nil
}

// fileOptions returns the options fields that follow from the method.
func (m *method) fileOptions() partialOptions {
	po := partialOptions{Machine: m.machine.Name, Method: m.name, SojournKind: m.sojourn, NoClustering: m.noCluster}
	for _, e := range cp.EventTypes {
		if m.free[e] {
			po.FreeEvents = append(po.FreeEvents, e.String())
		}
	}
	return po
}

// decodePartialOptions returns an empty partial fit with the file's
// options, which must name a method and carry that method's machine,
// sojourn family, free events and clustering flag.
func decodePartialOptions(po partialOptions) (*PartialFit, error) {
	m, err := methodNamed(po.Method)
	if err != nil {
		return nil, fmt.Errorf("core: partial fit: %w", err)
	}
	want := m.fileOptions()
	mismatch := func(field string, got, want any) error {
		return fmt.Errorf("core: partial fit: %s %v is not method %q's %v", field, got, m.name, want)
	}
	switch {
	case po.Machine != want.Machine:
		return nil, mismatch("machine", po.Machine, want.Machine)
	case po.SojournKind != want.SojournKind:
		return nil, mismatch("sojourn_kind", po.SojournKind, want.SojournKind)
	case !slices.Equal(po.FreeEvents, want.FreeEvents):
		return nil, mismatch("free_events", po.FreeEvents, want.FreeEvents)
	case po.NoClustering != want.NoClustering:
		return nil, mismatch("no_clustering", po.NoClustering, want.NoClustering)
	}
	var tf cluster.Features
	if len(po.ThetaF) != len(tf) {
		return nil, fmt.Errorf("core: partial fit: theta_f needs %d entries, got %d", len(tf), len(po.ThetaF))
	}
	copy(tf[:], po.ThetaF)
	opt := FitOptions{
		Method:  m.name,
		Cluster: cluster.Options{ThetaF: tf, ThetaN: po.ThetaN, MaxDepth: po.MaxDepth},
		SketchK: po.SketchK,
	}
	pf, err := NewPartialFit(opt)
	if err != nil {
		return nil, fmt.Errorf("core: partial fit: %w", err)
	}
	if pf.opt.Cluster != opt.Cluster {
		return nil, fmt.Errorf("core: partial fit: theta_f, theta_n and max_depth must be zero for method %q, which does not cluster", m.name)
	}
	return pf, nil
}

// sinkOf returns the sink of a UE of device d, or an error naming what
// (a count, a moment) the document attached to a UE without one.
func sinkOf(pf *PartialFit, d cp.DeviceType, pd partialDevice, ue cp.UEID, what string) (*partialSink, error) {
	if dev, ok := pf.devOf[ue]; !ok || dev != d {
		return nil, fmt.Errorf("core: partial fit: %s for UE %d not of device %q", what, ue, pd.Device)
	}
	sink := pf.exts[ue]
	if sink == nil {
		return nil, fmt.Errorf("core: partial fit: %s for UE %d, which has no extractor", what, ue)
	}
	return sink, nil
}

func decodeCounts(d cp.DeviceType, pf *PartialFit, pd partialDevice) error {
	c := pd.Counts
	if len(c.UE) != len(c.Key) || len(c.UE) != len(c.N) {
		return fmt.Errorf("core: partial fit: device %q count columns differ in length", pd.Device)
	}
	var prev uint64
	for i := range c.UE {
		sink, err := sinkOf(pf, d, pd, c.UE[i], "count")
		if err != nil {
			return err
		}
		k := uint64(c.UE[i])<<32 | uint64(c.Key[i])
		if i > 0 && k <= prev {
			return fmt.Errorf("core: partial fit: device %q counts not strictly ascending", pd.Device)
		}
		prev = k
		key := c.Key[i]
		kind, hour, a, b := uint8(key>>29), uint8(key>>24)&31, uint8(key>>8), uint8(key)
		if kind >= numCntKinds {
			return fmt.Errorf("core: partial fit: unknown count kind %d", kind)
		}
		if int(hour) >= HoursPerDay {
			return fmt.Errorf("core: partial fit: count hour %d out of range", hour)
		}
		if key != cntKey(kind, hour, a, b) || !pf.lay.valid(kind, a, b) {
			return fmt.Errorf("core: partial fit: count key %#08x out of range for kind %d", key, kind)
		}
		if c.N[i] <= 0 || c.N[i] > math.MaxUint32 {
			return fmt.Errorf("core: partial fit: count %d out of range (0, %d]", c.N[i], uint32(math.MaxUint32))
		}
		// (ue, key) order puts each UE-hour's slots in ascending order.
		sink.rows[hour] = append(sink.rows[hour], tally{slot: uint16(pf.lay.slot(kind, a, b)), n: uint32(c.N[i])})
	}
	return nil
}

// decodePools restores the device's sketches, or rebuilds its UEs' logs
// from the exact pools' columns: every item is one sample of its UE, and
// a UE's seqs across the pools must be exactly 0, 1, …, up to the seq
// its extractor carries, so the samples are gathered in (UE, seq) order
// first and logged once all pools are read. The pools must hold as many
// items as the extractors' seqs add up to; with no seq held twice and
// none at or above its extractor's, that leaves no gap.
func decodePools(d cp.DeviceType, pf *PartialFit, pd partialDevice) error {
	exact := pf.opt.SketchK == 0
	off := make([]int, len(pd.UEs)+1) // per UE of pd.UEs: where its samples start
	for i, ue := range pd.UEs {
		off[i+1] = off[i]
		if s := pf.exts[ue]; s != nil && exact {
			off[i+1] += int(s.seq)
		}
	}
	// The extractors' seqs are the file's claim of how many samples it
	// holds: check it against the items before sizing anything by it.
	items := 0
	for _, pp := range pd.Pools {
		items += len(pp.UE)
	}
	if exact && items != off[len(pd.UEs)] {
		return fmt.Errorf("core: partial fit: device %q pools hold %d items, its extractors' seqs %d", pd.Device, items, off[len(pd.UEs)])
	}
	pool := make([]int32, off[len(pd.UEs)]) // per sample: its pool's index, -1 until an item names it
	for i := range pool {
		pool[i] = -1
	}
	msOf := make([]uint64, len(pool))
	var prev poolKey
	for pi, pp := range pd.Pools {
		kind, ok := poolKindByName(pp.Kind)
		if !ok {
			return fmt.Errorf("core: partial fit: unknown pool kind %q", pp.Kind)
		}
		if pp.Hour < 0 || pp.Hour >= HoursPerDay {
			return fmt.Errorf("core: partial fit: pool hour %d out of range", pp.Hour)
		}
		k := poolKey{Hour: uint8(pp.Hour), Kind: kind}
		needState := kind == poolTop || kind == poolBot || kind == poolCensor
		needEvent := kind == poolTop || kind == poolBot || kind == poolFree
		if needState {
			max := pf.m.machine.NumStates()
			if kind == poolTop {
				max = cp.NumUEStates
			}
			if pp.State < 0 || pp.State >= max {
				return fmt.Errorf("core: partial fit: pool state %d out of range for kind %q", pp.State, pp.Kind)
			}
			k.A = uint8(pp.State)
		} else if pp.State != 0 {
			return fmt.Errorf("core: partial fit: pool kind %q takes no state", pp.Kind)
		}
		if needEvent {
			e, err := cp.ParseEventType(pp.Event)
			if err != nil {
				return fmt.Errorf("core: partial fit: %w", err)
			}
			k.B = uint8(e)
		} else if pp.Event != "" {
			return fmt.Errorf("core: partial fit: pool kind %q takes no event", pp.Kind)
		}
		if pi > 0 && pf.lay.poolIndex(prev) >= pf.lay.poolIndex(k) {
			return fmt.Errorf("core: partial fit: device %q pools not in canonical order", pd.Device)
		}
		prev = k
		if len(pp.UE) != len(pp.Seq) || len(pp.UE) != len(pp.V) {
			return fmt.Errorf("core: partial fit: pool %q/%d columns differ in length", pp.Kind, pp.Hour)
		}
		n := len(pp.UE)
		switch {
		case !exact && n > pf.opt.SketchK:
			return fmt.Errorf("core: partial fit: pool %q/%d holds %d items, over sketch_k %d", pp.Kind, pp.Hour, n, pf.opt.SketchK)
		case !exact && pp.N < int64(n):
			return fmt.Errorf("core: partial fit: pool %q/%d n=%d below %d retained items", pp.Kind, pp.Hour, pp.N, n)
		case exact && (pp.N != int64(n) || n == 0):
			return fmt.Errorf("core: partial fit: exact pool %q/%d n=%d, %d items", pp.Kind, pp.Hour, pp.N, n)
		}
		ski := make([]stats.SketchItem, 0, n)
		salt := poolSalt(k)
		for i, ue := range pp.UE {
			seq := pp.Seq[i]
			if dev, ok := pf.devOf[ue]; !ok || dev != d {
				return fmt.Errorf("core: partial fit: pool sample for UE %d not of device %q", ue, pd.Device)
			}
			if i > 0 && (pp.UE[i-1] > ue || (pp.UE[i-1] == ue && pp.Seq[i-1] >= seq)) {
				return fmt.Errorf("core: partial fit: pool %q/%d items not in (ue, seq) order", pp.Kind, pp.Hour)
			}
			ms, ok := millisOf(pp.V[i])
			if !ok {
				return fmt.Errorf("core: partial fit: pool %q/%d value %v is not a whole, non-negative number of milliseconds", pp.Kind, pp.Hour, pp.V[i])
			}
			if s := pf.exts[ue]; s == nil || seq >= s.seq {
				return fmt.Errorf("core: partial fit: pool item seq %d for UE %d not below its extractor's seq", seq, ue)
			}
			if !exact {
				tag := uint64(ue)<<32 | uint64(seq)
				ski = append(ski, stats.SketchItem{Pri: stats.SketchPriority(salt, tag), Tag: tag, V: float64(ms)})
				continue
			}
			u, _ := slices.BinarySearch(pd.UEs, ue)
			x := off[u] + int(seq)
			if pool[x] >= 0 {
				return fmt.Errorf("core: partial fit: UE %d has two pool items of seq %d", ue, seq)
			}
			pool[x], msOf[x] = int32(pf.lay.poolIndex(k)), ms
		}
		if !exact {
			pf.devs[d].sketches[pf.lay.poolIndex(k)] = stats.RestoreSketch(pf.opt.SketchK, pp.N, ski)
		}
	}
	// Every item took its own slot below its UE's extractor's seq, and
	// there are as many items as slots: every slot is taken.
	for u, ue := range pd.UEs {
		for x := off[u]; x < off[u+1]; x++ {
			pf.exts[ue].log(pf.lay.poolKeyAt(int(pool[x])), msOf[x])
		}
	}
	return nil
}

// millisOf returns the whole number of milliseconds ms in [0, 2^53) for
// which v is cp.Millis(ms).Seconds(), bit for bit, if there is one — the
// values ingest retains.
func millisOf(v float64) (uint64, bool) {
	ms := math.Round(v * 1000)
	if !(ms >= 0 && ms < 1<<53) || math.Float64bits(cp.Millis(ms).Seconds()) != math.Float64bits(v) {
		return 0, false
	}
	return uint64(ms), true
}

func decodeMoments(d cp.DeviceType, pf *PartialFit, pd partialDevice) error {
	if len(pd.Moments) > 0 && pf.opt.SketchK == 0 {
		return fmt.Errorf("core: partial fit: exact-mode device %q carries moments", pd.Device)
	}
	for i, m := range pd.Moments {
		sink, err := sinkOf(pf, d, pd, m.UE, "moment")
		if err != nil {
			return err
		}
		if m.Hour < 0 || m.Hour >= HoursPerDay {
			return fmt.Errorf("core: partial fit: moment hour %d out of range", m.Hour)
		}
		if m.Count < 1 || m.M2 < 0 {
			return fmt.Errorf("core: partial fit: moment for UE %d has count %d, m2 %v", m.UE, m.Count, m.M2)
		}
		if i > 0 && !momentLess(pd.Moments[i-1], m) {
			return fmt.Errorf("core: partial fit: device %q moments not in (ue, hour, conn) order", pd.Device)
		}
		*sink.moment(uint8(m.Hour), m.Conn) = welford{n: m.Count, mean: m.Mean, m2: m.M2}
	}
	return nil
}

// momentLess orders moments by (ue, hour, conn), IDLE before CONNECTED.
func momentLess(x, y partialMoment) bool {
	if x.UE != y.UE {
		return x.UE < y.UE
	}
	if x.Hour != y.Hour {
		return x.Hour < y.Hour
	}
	return !x.Conn && y.Conn
}

func decodeExtractors(d cp.DeviceType, pf *PartialFit, pd partialDevice) error {
	var prev cp.UEID
	for i, px := range pd.Extractors {
		if dev, ok := pf.devOf[px.UE]; !ok || dev != d {
			return fmt.Errorf("core: partial fit: extractor for UE %d not of device %q", px.UE, pd.Device)
		}
		if i > 0 && px.UE <= prev {
			return fmt.Errorf("core: partial fit: device %q extractors not strictly ascending", pd.Device)
		}
		prev = px.UE
		if _, dup := pf.exts[px.UE]; dup {
			return fmt.Errorf("core: partial fit: duplicate extractor for UE %d", px.UE)
		}
		if px.Macro < 0 || px.Macro >= cp.NumUEStates {
			return fmt.Errorf("core: partial fit: extractor macro state %d out of range", px.Macro)
		}
		if px.Bottom < 0 || px.Bottom >= pf.m.machine.NumStates() {
			return fmt.Errorf("core: partial fit: extractor bottom state %d out of range", px.Bottom)
		}
		if len(px.LastOfTypeMS) != cp.NumEventTypes ||
			len(px.LastCellOfType) != cp.NumEventTypes ||
			len(px.SeenType) != cp.NumEventTypes {
			return fmt.Errorf("core: partial fit: extractor per-type arrays need %d entries", cp.NumEventTypes)
		}
		if px.Decided && len(px.Buf) != 0 {
			return fmt.Errorf("core: partial fit: decided extractor for UE %d still buffers events", px.UE)
		}
		sink := &partialSink{pf: pf, d: d, ue: px.UE, seq: px.Seq, walk: sm.NewWalk(pf.m.machine)}
		w := &sink.walk
		w.Decided = px.Decided
		w.Macro = cp.UEState(px.Macro)
		w.Bottom = sm.State(px.Bottom)
		w.MacroAt = cp.Millis(px.MacroAtMS)
		w.BotAt = cp.Millis(px.BotAtMS)
		w.MacroHas = px.MacroHas
		w.BotHas = px.BotHas
		w.LastCell = px.LastCell
		for _, pe := range px.Buf {
			e, err := cp.ParseEventType(pe.Type)
			if err != nil {
				return fmt.Errorf("core: partial fit: %w", err)
			}
			w.Buf = append(w.Buf, trace.Event{T: cp.Millis(pe.TMS), UE: px.UE, Type: e})
		}
		for j := range w.LastOfType {
			w.LastOfType[j] = cp.Millis(px.LastOfTypeMS[j])
		}
		copy(w.LastCellOfType[:], px.LastCellOfType)
		copy(w.SeenType[:], px.SeenType)
		pf.exts[px.UE] = sink
	}
	return nil
}
