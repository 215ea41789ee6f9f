package core

import (
	"bytes"
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
// one. The invariants under test are round-trip stability — any input
// DecodePartial accepts must Encode to bytes that decode and re-encode
// identically, because the mergeable-checkpoint protocol (DESIGN.md)
// depends on shards resuming from byte-for-byte reproducible snapshots —
// and that an accepted input builds: decoded afresh, Build may refuse it
// but must not panic.
func FuzzDecodePartial(f *testing.F) {
	f.Add(partialSeed(f, nil))
	f.Add(partialSeed(f, func(pf *PartialFit) {
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
	}))
	f.Add([]byte{})
	f.Add([]byte("cppf"))

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
// the four methods and the writer's hand-built edge models. Load must not
// panic; a model it accepts must save — to exactly encoding/json's bytes —
// and the saved file must load and save to itself, so what a fit writes
// and what a generator later reads are the same model. The seeds are kept
// near 1 KB (two UEs, no Kaplan–Meier table, the first hour-of-day only —
// still a valid model): the fuzzer minimizes every input that finds new
// coverage at a cost quadratic in its length, and a 20 KB seed stalls it
// for a minute at a time.
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
		f.Add(buf.Bytes())
	}
	for _, ms := range edgeModels() {
		var buf bytes.Buffer
		if err := saveOracle(&buf, ms); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"machine":"EMM-ECM","method":"","devices":null}` + "\n\n"))
	f.Add([]byte(`{"machine":"5G-SA","devices":[null]}{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejected inputs only need to not crash
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
	})
}
