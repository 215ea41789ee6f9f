package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
)

// partialSeed encodes a PartialFit to bytes for the fuzz seed corpus,
// failing the fuzz setup if construction or encoding breaks.
func partialSeed(f *testing.F, build func(pf *PartialFit)) []byte {
	f.Helper()
	pf, err := NewPartialFit(FitOptions{})
	if err != nil {
		f.Fatal(err)
	}
	if build != nil {
		build(pf)
	}
	var buf bytes.Buffer
	if err := pf.Encode(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodePartial feeds arbitrary bytes through the partial-fit
// decoder, seeded with encodings of an empty fit and a small populated
// one, and the populated one with a sample invariant broken. The
// invariants under test are round-trip stability — any input
// DecodePartial accepts must Encode to bytes that decode and re-encode
// identically, because the mergeable-checkpoint protocol (DESIGN.md)
// depends on shards resuming from byte-for-byte reproducible snapshots —
// and that an accepted input builds: decoded afresh, Build may refuse it
// but must not panic.
func FuzzDecodePartial(f *testing.F) {
	f.Add(partialSeed(f, nil))
	populated := partialSeed(f, func(pf *PartialFit) {
		tr := &trace.Trace{
			Device: map[cp.UEID]cp.DeviceType{1: cp.Phone, 2: cp.Phone, 3: cp.Phone},
			Events: []trace.Event{
				{T: 10, UE: 1, Type: cp.Attach},
				{T: 20, UE: 2, Type: cp.Attach},
				{T: 900, UE: 1, Type: cp.ServiceRequest},
				{T: 2500, UE: 1, Type: cp.S1ConnRelease},
				{T: 4000, UE: 2, Type: cp.TrackingAreaUpdate},
			},
		}
		if err := pf.AddSource(tr); err != nil {
			f.Fatal(err)
		}
	})
	f.Add(populated)
	f.Add([]byte{})
	f.Add([]byte("cppf"))
	// The populated seed with each sample invariant DecodePartial checks
	// broken once: a value that is not a whole number of milliseconds, an
	// extractor whose seq runs one past its UE's items, and one claiming
	// 2^32−1 samples, which decode must refuse before sizing anything by
	// it.
	tamper := func(mut func(dev map[string]any)) []byte {
		var doc map[string]any
		if err := json.Unmarshal(populated, &doc); err != nil {
			f.Fatal(err)
		}
		mut(doc["devices"].([]any)[0].(map[string]any))
		out, err := json.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		return append(out, '\n')
	}
	f.Add(tamper(func(dev map[string]any) { dev["pools"].([]any)[0].(map[string]any)["v"].([]any)[0] = 0.0005 }))
	f.Add(tamper(func(dev map[string]any) {
		x := dev["extractors"].([]any)[0].(map[string]any)
		x["seq"] = x["seq"].(float64) + 1
	}))
	f.Add(tamper(func(dev map[string]any) {
		dev["extractors"].([]any)[0].(map[string]any)["seq"] = math.MaxUint32
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := DecodePartial(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not crash
		}
		var out1 bytes.Buffer
		if err := pf.Encode(&out1); err != nil {
			t.Fatalf("accepted partial fit does not encode: %v", err)
		}
		pf2, err := DecodePartial(bytes.NewReader(out1.Bytes()))
		if err != nil {
			t.Fatalf("encoded partial fit does not re-decode: %v", err)
		}
		var out2 bytes.Buffer
		if err := pf2.Encode(&out2); err != nil {
			t.Fatalf("re-decoded partial fit does not encode: %v", err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("encode not stable across a round trip: %d bytes vs %d bytes",
				out1.Len(), out2.Len())
		}
		fresh, err := DecodePartial(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("accepted input refused on a second decode: %v", err)
		}
		_, _ = fresh.Build() // a refusal is fine; a panic fails the target
	})
}

// FuzzLoadModel feeds arbitrary bytes to Load, seeded with tiny fits of
// the four methods (as saved, indented and key-sorted), the writer's
// hand-built edge models, a string with escapes, the two documents
// TestLoadRefusesModelsGenerateCannotRun holds, and a bad global state
// every hour's aggregate shadows. Load must not panic, and its decoder
// must be sound on every input: what it accepts, encoding/json accepts to
// the same model. On every model the decoder accepts, compile (Load) and
// validateOracle must agree on whether it is valid, and NewSource on the
// decoded model must return Load's error. A model Load accepts must be
// loadOracle's too; it must save — to exactly encoding/json's bytes — and
// the saved file must load and save to itself, so what a fit writes and
// what a generator later reads are the same model; and it must generate:
// 20 UEs over 2 h from hour 23, streamed and cut off after a million
// events, so a model that fires every millisecond cannot take the
// fuzzer's memory.
// The seeds are kept near 1 KB (two UEs, no Kaplan–Meier table, the first
// hour-of-day only — still a valid model; the shadowed global needs its
// 24 aggregates, 2 KB): the fuzzer minimizes every
// input that finds new coverage at a cost quadratic in its length, and a
// 20 KB seed stalls it for a minute at a time.
func FuzzLoadModel(f *testing.F) {
	tr := trace.New()
	for ue := cp.UEID(1); ue <= 2; ue++ {
		if err := tr.SetDevice(ue, cp.Phone); err != nil {
			f.Fatal(err)
		}
	}
	for _, e := range []trace.Event{
		{T: 10, UE: 1, Type: cp.Attach},
		{T: 20, UE: 2, Type: cp.Attach},
		{T: 2500, UE: 1, Type: cp.S1ConnRelease},
		{T: 4000, UE: 2, Type: cp.S1ConnRelease},
		{T: 9000, UE: 1, Type: cp.ServiceRequest},
		{T: 21500, UE: 1, Type: cp.S1ConnRelease},
		{T: 30000, UE: 2, Type: cp.ServiceRequest},
		{T: 40240, UE: 2, Type: cp.S1ConnRelease},
		{T: 50000, UE: 1, Type: cp.ServiceRequest},
	} {
		tr.Append(e)
	}
	for _, method := range []string{"base", "v1", "v2", "ours"} {
		ms, err := Fit(tr, pinnedFitOptions(method))
		if err != nil {
			f.Fatal(err)
		}
		dm := ms.Devices[cp.Phone]
		dm.Hours = dm.Hours[:1]
		for i := range dm.Personas {
			dm.Personas[i].Cluster = dm.Personas[i].Cluster[:1]
		}
		var buf bytes.Buffer
		if err := ms.Save(&buf); err != nil {
			f.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil || buf.Len() > 2048 {
			f.Fatalf("seed model of method %s: %d bytes, Load returned %v", method, buf.Len(), err)
		}
		if method == "base" {
			for _, doc := range modelForms(f, buf.Bytes()) {
				f.Add(doc)
			}
			dm.Global = nil
			saved := modelBytes(f, ms)
			for _, g := range []string{unrunnableGlobal(`{"kind":"bogus"}`, ""), unrunnableGlobal(`{"kind":"const","value":1}`, `"cats":[{"event":77,"state":99,"p":1}],`)} {
				f.Add(bytes.Replace(saved, []byte(`"share":`), []byte(g+`"share":`), 1))
			}
			continue
		}
		f.Add(buf.Bytes())
	}
	for _, ms := range edgeModels() {
		var buf bytes.Buffer
		if err := saveOracle(&buf, ms); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(shadowedGlobalSeed(f))
	f.Add([]byte(`{"machine":"EMM-ECM","method":"","devices":null}` + "\n\n"))
	f.Add([]byte(`{"machine":"5G-SA","devices":[null]}{}`))
	f.Add([]byte(`{"machine":"LTE-2LEVEL","method":"o\"u\\r\u0073\n\u00e9<>&\u2028","devices":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if checkDecodeSound(t, "input", data) != nil {
			return // rejected inputs only need to not crash
		}
		unchecked, err := decodeModel(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("decoded once, refused the second time: %v", err)
		}
		ms, err := Load(bytes.NewReader(data))
		if oerr := validateOracle(unchecked); (err == nil) != (oerr == nil) {
			t.Fatalf("Load returned %v, validateOracle %v", err, oerr)
		}
		src, serr := NewSource(unchecked, GenOptions{NumUEs: 20, StartHour: 23, Duration: 2 * cp.Hour, Seed: 1})
		if err != nil {
			if serr == nil || serr.Error() != err.Error() {
				t.Fatalf("NewSource on the decoded model returned %v, Load %v", serr, err)
			}
			return
		}
		if want, err := loadOracle(bytes.NewReader(data)); err != nil || !reflect.DeepEqual(declared(ms), declared(want)) {
			t.Fatalf("Load accepted the input; loadOracle returned %v (or a different model)", err)
		}
		var saved, oracle bytes.Buffer
		if err := ms.Save(&saved); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		if err := saveOracle(&oracle, ms); err != nil || !bytes.Equal(saved.Bytes(), oracle.Bytes()) {
			t.Fatalf("Save wrote %d bytes, encoding/json %d (error %v)", saved.Len(), oracle.Len(), err)
		}
		again, err := Load(bytes.NewReader(saved.Bytes()))
		if err != nil {
			t.Fatalf("saved model does not load: %v", err)
		}
		var resaved bytes.Buffer
		if err := again.Save(&resaved); err != nil || !bytes.Equal(saved.Bytes(), resaved.Bytes()) {
			t.Fatalf("Load∘Save is not a fixed point: %d bytes, then %d (error %v)", saved.Len(), resaved.Len(), err)
		}
		if serr != nil {
			return // a model with no device to generate is refused, not run
		}
		events := 0
		_ = src.ScanBatches(func(b *trace.Batch) error {
			if events += b.Len(); events > 1_000_000 {
				return errEnoughEvents
			}
			return nil
		})
	})
}

var errEnoughEvents = errors.New("enough events")

// shadowedGlobalSeed is a model whose global holds a bad top state that
// every hour's aggregate shadows: no cell resolves to it, and Load must
// refuse it all the same. It is written by hand, without the keys Save
// always writes: saved, its 24 aggregates made 4 KB, and minimizing
// inputs grown from it stalled the fuzzer for whole smoke runs.
func shadowedGlobalSeed(f *testing.F) []byte {
	deregistered := func(p string) string { // ATCH out of DEREGISTERED with probability p
		return `{"top":[{"out":[{"event":0,"p":` + p + `,"sojourn":{"kind":"const"}}]}]}`
	}
	hour := `{"aggregate":` + deregistered("1") + `}`
	doc := []byte(`{"machine":"LTE-2LEVEL","devices":[{"hours":[` + strings.Repeat(hour+",", HoursPerDay-1) + hour +
		`],"global":` + deregistered("5") + `,"share":1}]}`)
	if _, err := Load(bytes.NewReader(doc)); err == nil || err.Error() != "core: device 0 global top state 0: probability 5 out of range" {
		f.Fatalf("the shadowed global: Load returned %v", err)
	}
	return doc
}
