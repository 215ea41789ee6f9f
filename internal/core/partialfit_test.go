package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/stats"
	"cptraffic/internal/trace"
)

// partialFitOptVariants are the option sets the sharding tests sweep:
// the paper method, the free-process baseline, and bounded-memory mode.
func partialFitOptVariants() []FitOptions {
	return []FitOptions{
		{Cluster: clusterOptSmall()},
		{Machine: sm.EMMECM(), SojournKind: SojournExp,
			FreeEvents:   []cp.EventType{cp.Handover, cp.TrackingAreaUpdate},
			NoClustering: true, Method: "base"},
		{Cluster: clusterOptSmall(), SketchK: 64, Method: "v2"},
	}
}

// shardPartials fits one PartialFit per hash shard of tr.
func shardPartials(t *testing.T, tr *trace.Trace, shards int, opt FitOptions) []*PartialFit {
	t.Helper()
	parts := make([]*PartialFit, shards)
	for s := range parts {
		pf, err := NewPartialFit(opt)
		if err != nil {
			t.Fatal(err)
		}
		src, err := trace.ShardSource(tr, shards, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.AddSource(src); err != nil {
			t.Fatal(err)
		}
		parts[s] = pf
	}
	return parts
}

func mergeAndBuild(t *testing.T, parts []*PartialFit, order []int) []byte {
	t.Helper()
	root := parts[order[0]]
	for _, i := range order[1:] {
		if err := root.Merge(parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := root.Build()
	if err != nil {
		t.Fatal(err)
	}
	return modelBytes(t, ms)
}

// TestShardedFitMatchesUnsharded is the tentpole property: fitting N
// hash shards independently and merging the partials — in any order or
// grouping — produces byte-identical model JSON to the unsharded fit,
// for exact and sketched modes alike, at any worker count.
func TestShardedFitMatchesUnsharded(t *testing.T) {
	traces := map[string]*trace.Trace{
		"toy":  toyTrace(t, 48, 3*cp.Hour, 7),
		"edge": edgeTrace(t),
	}
	const shards = 4
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}}
	for name, tr := range traces {
		for _, base := range partialFitOptVariants() {
			for _, w := range []int{1, 8} {
				opt := base
				opt.Workers = w
				ref, err := Fit(tr, opt)
				if err != nil {
					t.Fatal(err)
				}
				want := modelBytes(t, ref)
				for _, order := range orders {
					got := mergeAndBuild(t, shardPartials(t, tr, shards, opt), order)
					if !bytes.Equal(want, got) {
						t.Fatalf("%s method=%q sketch=%d workers=%d: merge order %v differs from unsharded",
							name, opt.Method, opt.SketchK, w, order)
					}
				}
				// Tree merge: (0+1) + (2+3).
				parts := shardPartials(t, tr, shards, opt)
				if err := parts[0].Merge(parts[1]); err != nil {
					t.Fatal(err)
				}
				if err := parts[2].Merge(parts[3]); err != nil {
					t.Fatal(err)
				}
				if err := parts[0].Merge(parts[2]); err != nil {
					t.Fatal(err)
				}
				ms, err := parts[0].Build()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, modelBytes(t, ms)) {
					t.Fatalf("%s method=%q sketch=%d workers=%d: tree merge differs from unsharded",
						name, opt.Method, opt.SketchK, w)
				}
			}
		}
	}
}

// TestPartialFitCheckpointResume kills a fit mid-scan at a checkpoint,
// restores the partial from the checkpoint bytes, resumes the same
// source, and requires the final model to be byte-identical to the
// uninterrupted fit — for exact and sketched modes.
func TestPartialFitCheckpointResume(t *testing.T) {
	tr := toyTrace(t, 48, 3*cp.Hour, 7)
	// AddSource ingests 256-event batches. Neither interval divides one:
	// 500 puts every checkpoint inside a batch, and 100 puts two or three
	// in each — the kill after the seventh lands 188 events into the third
	// batch, where the resumed scan must pick up.
	for _, c := range []struct{ every, kills int64 }{{500, 3}, {100, 7}} {
		for _, base := range partialFitOptVariants() {
			opt := base
			opt.Workers = 1
			ref, err := Fit(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			want := modelBytes(t, ref)

			pf, err := NewPartialFit(opt)
			if err != nil {
				t.Fatal(err)
			}
			killed := errors.New("killed")
			var ckpt bytes.Buffer
			nCkpt := int64(0)
			err = pf.AddSourceWithCheckpoints(tr, c.every, func(consumed int64) error {
				nCkpt++
				if consumed != nCkpt*c.every || pf.EventsConsumed() != consumed {
					t.Fatalf("method=%q every=%d: checkpoint %d called at %d events with %d ingested",
						opt.Method, c.every, nCkpt, consumed, pf.EventsConsumed())
				}
				ckpt.Reset()
				if err := pf.Encode(&ckpt); err != nil {
					return err
				}
				if nCkpt == c.kills {
					return killed // simulate the process dying right after a checkpoint
				}
				return nil
			})
			if !errors.Is(err, killed) {
				t.Fatalf("method=%q every=%d: scan ended with %v, want the kill sentinel", opt.Method, c.every, err)
			}
			if nCkpt != c.kills {
				t.Fatalf("method=%q every=%d: %d checkpoints, want %d", opt.Method, c.every, nCkpt, c.kills)
			}

			resumed, err := DecodePartial(bytes.NewReader(ckpt.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if resumed.EventsConsumed() != c.kills*c.every {
				t.Fatalf("method=%q every=%d: checkpoint consumed %d events, want %d",
					opt.Method, c.every, resumed.EventsConsumed(), c.kills*c.every)
			}
			if err := resumed.AddSource(tr); err != nil {
				t.Fatal(err)
			}
			ms, err := resumed.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, modelBytes(t, ms)) {
				t.Fatalf("method=%q every=%d: resumed fit differs from uninterrupted fit", opt.Method, c.every)
			}
		}
	}
}

// TestPartialFitResumeEveryCheckpoint resumes from every checkpoint one
// run takes, on TestPartialFitCheckpointResume's trace and option
// variants, and requires each resumed fit's model bytes to equal the
// uninterrupted Fit's. A decoded tally row takes further counts as the
// resumed scan goes on, so decode's order and ingest's must agree at
// every cut.
func TestPartialFitResumeEveryCheckpoint(t *testing.T) {
	tr := toyTrace(t, 48, 3*cp.Hour, 7)
	// 28 checkpoints, each 44 events further into its 256-event batch
	// than the one before, modulo the batch.
	const every = 300
	for _, base := range partialFitOptVariants() {
		opt := base
		opt.Workers = 1
		ref, err := Fit(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		want := modelBytes(t, ref)
		pf, err := NewPartialFit(opt)
		if err != nil {
			t.Fatal(err)
		}
		var ckpts [][]byte
		err = pf.AddSourceWithCheckpoints(tr, every, func(int64) error {
			var b bytes.Buffer
			err := pf.Encode(&b)
			ckpts = append(ckpts, b.Bytes())
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := int64(len(ckpts)); n != int64(tr.Len())/every || n < 4 {
			t.Fatalf("method=%q: %d checkpoints of a %d-event trace at every %d", opt.Method, n, tr.Len(), every)
		}
		for i, ckpt := range ckpts {
			resumed, err := DecodePartial(bytes.NewReader(ckpt))
			if err != nil {
				t.Fatal(err)
			}
			if err := resumed.AddSource(tr); err != nil {
				t.Fatal(err)
			}
			ms, err := resumed.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, modelBytes(t, ms)) {
				t.Fatalf("method=%q: fit resumed from checkpoint %d (%d events) differs from the uninterrupted fit",
					opt.Method, i+1, int64(i+1)*every)
			}
		}
	}
}

// TestPartialCodecRoundTrip: a mid-scan or completed partial encodes to
// one canonical byte stream that survives decode/encode byte-for-byte,
// and the decoded partial builds the same model as the original fit.
// The edge trace keeps one extractor undecided to the end (an HO-only
// UE), so the in-flight buffered-prefix state is on the wire too.
func TestPartialCodecRoundTrip(t *testing.T) {
	tr := edgeTrace(t)
	for _, base := range partialFitOptVariants() {
		opt := base
		opt.Workers = 1
		pf, err := NewPartialFit(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.AddSource(tr); err != nil {
			t.Fatal(err)
		}
		var b1 bytes.Buffer
		if err := pf.Encode(&b1); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodePartial(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var b2 bytes.Buffer
		if err := decoded.Encode(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("method=%q: encode/decode/encode not byte-stable", opt.Method)
		}
		ref, err := Fit(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := decoded.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(modelBytes(t, ref), modelBytes(t, ms)) {
			t.Fatalf("method=%q: decoded partial builds a different model", opt.Method)
		}
	}
}

// TestPartialCodecStrict: the decoder rejects unknown fields, unknown
// tags and names, broken canonical orders, and inconsistent columns.
func TestPartialCodecStrict(t *testing.T) {
	tr := edgeTrace(t)
	pf, err := NewPartialFit(FitOptions{Cluster: clusterOptSmall()})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pf.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	canonical := buf.Bytes()

	tamper := func(mut func(doc map[string]any)) []byte {
		var doc map[string]any
		if err := json.Unmarshal(canonical, &doc); err != nil {
			t.Fatal(err)
		}
		mut(doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n') // as Encode ends it, so only the tampering is refused
	}
	dev := func(doc map[string]any) map[string]any {
		return doc["devices"].([]any)[0].(map[string]any)
	}
	cases := map[string][]byte{
		"unknown field": tamper(func(d map[string]any) { d["surprise"] = 1 }),
		"bad format":    tamper(func(d map[string]any) { d["format"] = "partialfit/99" }),
		"bad machine":   tamper(func(d map[string]any) { d["options"].(map[string]any)["machine"] = "NOPE" }),
		"bad sojourn":   tamper(func(d map[string]any) { d["options"].(map[string]any)["sojourn_kind"] = "gamma" }),
		"short theta_f": tamper(func(d map[string]any) { d["options"].(map[string]any)["theta_f"] = []any{1.0} }),
		"bad consumed":  tamper(func(d map[string]any) { d["events_consumed"] = -2 }),
		"bad device":    tamper(func(d map[string]any) { dev(d)["device"] = "toaster" }),
		"unsorted ues":  tamper(func(d map[string]any) { ues := dev(d)["ues"].([]any); ues[0], ues[1] = ues[1], ues[0] }),
		"count columns": tamper(func(d map[string]any) { c := dev(d)["counts"].(map[string]any); c["n"] = c["n"].([]any)[1:] }),
		"bad pool kind": tamper(func(d map[string]any) { dev(d)["pools"].([]any)[0].(map[string]any)["kind"] = "median" }),
		"bad pool hour": tamper(func(d map[string]any) { dev(d)["pools"].([]any)[0].(map[string]any)["hour"] = 24 }),
		"exact moments": tamper(func(d map[string]any) {
			dev(d)["moments"] = []any{map[string]any{"ue": dev(d)["ues"].([]any)[0], "hour": 0, "count": 2, "mean": 1.0, "m2": 1.0}}
		}),
		"extractor array": tamper(func(d map[string]any) {
			x := dev(d)["extractors"].([]any)[0].(map[string]any)
			x["seen_type"] = x["seen_type"].([]any)[1:]
		}),
	}
	for name, doc := range cases {
		if _, err := DecodePartial(bytes.NewReader(doc)); err == nil {
			t.Errorf("%s: decoder accepted the tampered document", name)
		}
	}
	// The canonical document itself must still decode.
	if _, err := DecodePartial(bytes.NewReader(canonical)); err != nil {
		t.Fatalf("canonical document rejected: %v", err)
	}
}

// TestDecodePartialRefusesBadCounts: every count record Build could not
// survive is refused at decode — the first row is a top-level count
// whose state byte was set to 200, which the decoder used to accept and
// Build then indexed out of range. Each tampering keeps the counts in
// strictly ascending (ue, key) order, so the refusal is for the range
// and not for the order. A count of exactly MaxUint32 is accepted and
// builds.
func TestDecodePartialRefusesBadCounts(t *testing.T) {
	tr := toyTrace(t, 24, 2*cp.Hour, 5)
	pf, err := NewPartialFit(FitOptions{Cluster: clusterOptSmall()})
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	var buf bytes.Buffer
	err = pf.AddSourceWithCheckpoints(tr, int64(tr.Len()/2), func(int64) error {
		if err := pf.Encode(&buf); err != nil {
			return err
		}
		return stop
	})
	if !errors.Is(err, stop) {
		t.Fatal(err)
	}
	canonical := buf.Bytes()
	counts := func(doc map[string]any) map[string]any {
		return doc["devices"].([]any)[0].(map[string]any)["counts"].(map[string]any)
	}
	edit := func(mut func(doc map[string]any)) []byte {
		var doc map[string]any
		if err := json.Unmarshal(canonical, &doc); err != nil {
			t.Fatal(err)
		}
		mut(doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return append(out, '\n') // as Encode ends it, so only the tampering is refused
	}
	// rekey rewrites the first count of the kind whose new key keeps the
	// column order strictly ascending.
	rekey := func(kind uint8, key func(hour, a, b uint8) uint32) []byte {
		done := false
		out := edit(func(doc map[string]any) {
			c := counts(doc)
			ues, keys := c["ue"].([]any), c["key"].([]any)
			at := func(i int) uint64 { return uint64(ues[i].(float64))<<32 | uint64(keys[i].(float64)) }
			for i := range keys {
				k := uint32(keys[i].(float64))
				if uint8(k>>29) != kind {
					continue
				}
				nk := key(uint8(k>>24)&31, uint8(k>>8), uint8(k))
				next := uint64(ues[i].(float64))<<32 | uint64(nk)
				if (i == 0 || at(i-1) < next) && (i == len(keys)-1 || next < at(i+1)) {
					keys[i] = float64(nk)
					done = true
					return
				}
			}
		})
		if !done {
			t.Fatalf("no count of kind %d can take the tampered key in order", kind)
		}
		return out
	}
	states := uint8(sm.LTE2Level().NumStates())
	bad := map[string][]byte{
		"top state 200": rekey(cntTop, func(h, a, b uint8) uint32 { return cntKey(cntTop, h, 200, b) }),
		"top event 6":   rekey(cntTop, func(h, a, b uint8) uint32 { return cntKey(cntTop, h, a, 6) }),
		"bot state":     rekey(cntBot, func(h, a, b uint8) uint32 { return cntKey(cntBot, h, states, b) }),
		"bot event 6":   rekey(cntBot, func(h, a, b uint8) uint32 { return cntKey(cntBot, h, a, 6) }),
		"first event 6": rekey(cntFirst, func(h, a, b uint8) uint32 { return cntKey(cntFirst, h, 6, b) }),
		"first state":   rekey(cntFirst, func(h, a, b uint8) uint32 { return cntKey(cntFirst, h, a, states) }),
		"with-ev a=1":   rekey(cntWithEv, func(h, a, b uint8) uint32 { return cntKey(cntWithEv, h, 1, 0) }),
		"feature HO":    rekey(cntEvt, func(h, a, b uint8) uint32 { return cntKey(cntEvt, h, 0, uint8(cp.Handover)) }),
		"feature a=1":   rekey(cntEvt, func(h, a, b uint8) uint32 { return cntKey(cntEvt, h, 1, b) }),
		"bits 23..16":   rekey(cntTop, func(h, a, b uint8) uint32 { return cntKey(cntTop, h, a, b) | 1<<16 }),
		"n over uint32": edit(func(doc map[string]any) { counts(doc)["n"].([]any)[0] = float64(math.MaxUint32) + 1 }),
		"UE without extractor": edit(func(doc map[string]any) {
			d := doc["devices"].([]any)[0].(map[string]any)
			d["ues"] = append(d["ues"].([]any), float64(1000))
			c := counts(doc)
			c["ue"] = append(c["ue"].([]any), float64(1000))
			c["key"] = append(c["key"].([]any), float64(cntKey(cntWithEv, 0, 0, 0)))
			c["n"] = append(c["n"].([]any), float64(1))
		}),
	}
	for name, doc := range bad {
		if _, err := DecodePartial(bytes.NewReader(doc)); err == nil {
			t.Errorf("%s: decoder accepted the tampered counts", name)
		}
	}
	pf, err = DecodePartial(bytes.NewReader(edit(func(doc map[string]any) {
		counts(doc)["n"].([]any)[0] = float64(math.MaxUint32)
	})))
	if err != nil {
		t.Fatalf("count of MaxUint32 refused: %v", err)
	}
	if _, err := pf.Build(); err != nil {
		t.Fatal(err)
	}
}

// TestPartialFitMergeRejects pins the merge misuse errors.
func TestPartialFitMergeRejects(t *testing.T) {
	tr := toyTrace(t, 12, 2*cp.Hour, 3)
	mk := func(opt FitOptions) *PartialFit {
		pf, err := NewPartialFit(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.AddSource(tr); err != nil {
			t.Fatal(err)
		}
		return pf
	}
	opt := FitOptions{Cluster: clusterOptSmall()}
	a := mk(opt)
	if err := a.Merge(a); err == nil {
		t.Fatal("self-merge accepted")
	}
	if err := a.Merge(mk(FitOptions{Cluster: clusterOptSmall(), SketchK: 8})); err == nil {
		t.Fatal("sketch-k mismatch accepted")
	}
	if err := a.Merge(mk(FitOptions{Cluster: clusterOptSmall(), Method: "base"})); err == nil {
		t.Fatal("method mismatch accepted")
	}
	if err := a.Merge(mk(opt)); err == nil {
		t.Fatal("overlapping UE sets accepted")
	}

	// Disjoint halves merge fine; a merged partial refuses sources, and
	// built partials refuse everything.
	shards := shardPartials(t, tr, 2, opt)
	if err := shards[0].Merge(shards[1]); err != nil {
		t.Fatal(err)
	}
	if shards[0].EventsConsumed() != -1 {
		t.Fatalf("merged partial consumed=%d, want -1", shards[0].EventsConsumed())
	}
	if err := shards[0].AddSource(tr); err == nil {
		t.Fatal("merged partial accepted a source")
	}
	if _, err := shards[0].Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := shards[0].Build(); err == nil {
		t.Fatal("second Build accepted")
	}
	if err := shards[0].Merge(mk(opt)); err == nil {
		t.Fatal("merge into built partial accepted")
	}
}

// TestPartialFitRegistrationErrors pins the ingestion misuse errors.
func TestPartialFitRegistrationErrors(t *testing.T) {
	pf, err := NewPartialFit(FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	one := trace.New()
	if err := one.SetDevice(1, cp.Phone); err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(one); err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(one); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	bad := trace.New()
	bad.Device[2] = cp.DeviceType(250)
	if err := pf.AddSource(bad); err == nil {
		t.Fatal("invalid device type accepted")
	}
	if err := pf.AddEvent(trace.Event{T: 1, UE: 99, Type: cp.Attach}); err == nil {
		t.Fatal("event for unregistered UE accepted")
	}
	if _, err := NewPartialFit(FitOptions{SketchK: -1}); err == nil {
		t.Fatal("negative SketchK accepted")
	}
	empty, err := NewPartialFit(FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.Build(); err == nil {
		t.Fatal("empty build accepted")
	}
}

// TestFitSketchedErrorBound: on the bounded-memory workload, every pool
// the sketch actually truncates stays within the documented DKW bound
// of the exact pool's ECDF — measured pool by pool against the exact
// partial's retained samples.
func TestFitSketchedErrorBound(t *testing.T) {
	if testing.Short() {
		t.Skip("bound measurement skipped in -short mode")
	}
	tr := toyTrace(t, 256, 24*cp.Hour, 11)
	const k = 64
	eps := stats.SketchErrorBound(k)

	fill := func(opt FitOptions) *PartialFit {
		pf, err := NewPartialFit(opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.AddSource(tr); err != nil {
			t.Fatal(err)
		}
		return pf
	}
	exact := fill(FitOptions{Cluster: clusterOptSmall(), Workers: 1})
	sketched := fill(FitOptions{Cluster: clusterOptSmall(), Workers: 1, SketchK: k})

	truncated := 0
	for _, d := range cp.DeviceTypes {
		edp, sdp := exact.devs[d], sketched.devs[d]
		if edp == nil {
			continue
		}
		pools := make([][]float64, exact.lay.poolTableLen()) // the exact pools, from the UEs' logs
		for _, ue := range edp.ues {
			if s := exact.exts[ue]; s != nil {
				s.eachSample(func(_ int, h, key byte, ms uint64) {
					i := int(h)*exact.lay.poolsPerHour() + int(key)
					pools[i] = append(pools[i], seconds(ms))
				})
			}
		}
		for i, ev := range pools {
			if len(ev) <= k {
				continue
			}
			truncated++
			key := exact.lay.poolKeyAt(i)
			sk := sdp.sketches[i]
			if sk == nil {
				t.Fatalf("pool %+v missing from the sketched partial", key)
			}
			kept := sk.Items()
			if len(kept) != k {
				t.Fatalf("pool %+v retained %d, want %d", key, len(kept), k)
			}
			sv := make([]float64, len(kept))
			for i, it := range kept {
				sv[i] = cp.Millis(it.V).Seconds()
			}
			if dist := stats.MaxYDistance(sv, ev); dist > eps {
				t.Errorf("pool %+v: K-S distance %v exceeds bound %v (n=%d)", key, dist, eps, len(ev))
			}
		}
	}
	if truncated == 0 {
		t.Fatal("no pool exceeded k — the bound was never exercised; shrink k or grow the workload")
	}
	t.Logf("checked %d truncated pools against eps=%.3f", truncated, eps)
}

// TestSketchedLogsMatchExact: with k above every pool's size, the logs
// Build makes from a sketched partial's pools are the exact partial's
// logs, record for record — a UE's events out of order included, whose
// negative sojourns both modes keep as they are.
func TestSketchedLogsMatchExact(t *testing.T) {
	events := []trace.Event{
		{T: 10, UE: 1, Type: cp.Attach},
		{T: 20, UE: 2, Type: cp.Attach},
		{T: 900, UE: 1, Type: cp.ServiceRequest},
		{T: 2500, UE: 1, Type: cp.S1ConnRelease},
		{T: 1500, UE: 1, Type: cp.ServiceRequest}, // before UE 1's last event
		{T: 3000, UE: 2, Type: cp.TrackingAreaUpdate},
		{T: 3100, UE: 1, Type: cp.S1ConnRelease},
		{T: 2 * cp.Hour, UE: 1, Type: cp.ServiceRequest},
	}
	type rec struct {
		h, key byte
		ms     uint64
	}
	logsOf := func(k int) [][]rec {
		pf, err := NewPartialFit(FitOptions{SketchK: k})
		if err != nil {
			t.Fatal(err)
		}
		pf.register(1, cp.Phone)
		pf.register(2, cp.Phone)
		for _, e := range events {
			if err := pf.AddEvent(e); err != nil {
				t.Fatal(err)
			}
		}
		dp := pf.devs[cp.Phone]
		slices.Sort(dp.ues)
		sinks := pf.sinks(dp.ues)
		if dp.sketches != nil {
			dp.logSketches(pf, sinks)
		}
		out := make([][]rec, len(sinks))
		for i, s := range sinks {
			s.eachSample(func(_ int, h, key byte, ms uint64) { out[i] = append(out[i], rec{h, key, ms}) })
		}
		return out
	}
	exact, sketched := logsOf(0), logsOf(1<<10)
	if !reflect.DeepEqual(exact, sketched) {
		t.Fatalf("sketched logs %v, exact %v", sketched, exact)
	}
	negative := false
	for _, l := range exact {
		for _, r := range l {
			negative = negative || int64(r.ms) < 0
		}
	}
	if !negative {
		t.Fatal("no sample is negative — the out-of-order event no longer exercises the case")
	}
}

// TestFitSketchedBoundedMemory: bounded-memory mode must peak below the
// exact streamed fit on the same workload — the sample pools are the
// exact fit's unbounded term, and the sketch caps them at k items each.
func TestFitSketchedBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory profile run skipped in -short mode")
	}
	tr := toyTrace(t, 256, 24*cp.Hour, 11)
	path := traceFile(t, tr)

	run := func(opt FitOptions) uint64 {
		return peakHeap(func() {
			src, err := trace.NewFileSource(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Fit(src, opt); err != nil {
				t.Fatal(err)
			}
		})
	}
	exactPeak := run(FitOptions{Cluster: clusterOptSmall(), Workers: 1})
	sketchPeak := run(FitOptions{Cluster: clusterOptSmall(), Workers: 1, SketchK: 64})
	t.Logf("peak heap growth: exact %.1f MiB, sketched %.1f MiB (%.0f%%)",
		float64(exactPeak)/(1<<20), float64(sketchPeak)/(1<<20),
		100*float64(sketchPeak)/float64(exactPeak))
	if sketchPeak >= exactPeak {
		t.Fatalf("sketched fit peak (%d B) not below exact streamed peak (%d B)", sketchPeak, exactPeak)
	}
}
