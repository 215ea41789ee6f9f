package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"cptraffic/internal/cp"
)

// midScanPartial ingests the first half of a small toy world, so the
// partial holds samples of every pool kind and walks in flight.
func midScanPartial(t *testing.T, opt FitOptions) *PartialFit {
	t.Helper()
	tr := toyTrace(t, 24, 2*cp.Hour, 5)
	pf, err := NewPartialFit(opt)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	err = pf.AddSourceWithCheckpoints(tr, int64(tr.Len()/2), func(int64) error { return stop })
	if !errors.Is(err, stop) {
		t.Fatal(err)
	}
	return pf
}

func encodePartial(t *testing.T, pf *PartialFit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pf.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// editPartial applies mut to doc as generic JSON and ends the result in a
// newline, as Encode does, so a refusal is for the edit alone.
func editPartial(t *testing.T, doc []byte, mut func(doc map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	mut(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// firstDevice returns the document's first device block.
func firstDevice(doc map[string]any) map[string]any {
	return doc["devices"].([]any)[0].(map[string]any)
}

// extractorOf returns the first device's extractor of UE ue.
func extractorOf(doc map[string]any, ue any) map[string]any {
	for _, x := range firstDevice(doc)["extractors"].([]any) {
		if x := x.(map[string]any); x["ue"] == ue {
			return x
		}
	}
	panic("no extractor for the UE")
}

// TestDecodePartialRefusesBadSamples: a pool value that is not a whole,
// non-negative number of milliseconds — which no sample is — is refused in
// both modes, as is an item whose seq is not below its UE's extractor's.
// In exact mode a UE's items must number its samples exactly 0, 1, …,
// seq−1: a gap or a seq held twice is refused, and a device whose
// extractors claim more samples than its pools hold is refused before
// decode sizes anything by the claim. Encode writes none of these.
func TestDecodePartialRefusesBadSamples(t *testing.T) {
	for _, k := range []int{0, 64} {
		doc := encodePartial(t, midScanPartial(t, FitOptions{Cluster: clusterOptSmall(), SketchK: k}))
		pool := func(d map[string]any, i int) map[string]any {
			return firstDevice(d)["pools"].([]any)[i].(map[string]any)
		}
		value := func(v float64) []byte {
			return editPartial(t, doc, func(d map[string]any) { pool(d, 0)["v"].([]any)[0] = v })
		}
		cases := map[string]struct {
			doc  []byte
			want string
		}{
			"half a millisecond": {value(0.0005), "milliseconds"},
			"negative":           {value(-1), "milliseconds"},
			"negative zero":      {value(math.Copysign(0, -1)), "milliseconds"},
			"a fraction of a ms": {value(1.0000001), "milliseconds"},
			"2^53 ms and more":   {value((1 << 53) / 1000.0), "milliseconds"},
			"seq beyond the extractor's": {editPartial(t, doc, func(d map[string]any) {
				// Pool 0's last item takes its UE's extractor's seq: still
				// in (ue, seq) order, and as many items as before.
				p := pool(d, 0)
				last := len(p["ue"].([]any)) - 1
				p["seq"].([]any)[last] = extractorOf(d, p["ue"].([]any)[last])["seq"]
			}), "not below its extractor's seq"},
		}
		if k == 0 {
			cases["a seq missing"] = struct {
				doc  []byte
				want string
			}{editPartial(t, doc, func(d map[string]any) {
				x := extractorOf(d, pool(d, 0)["ue"].([]any)[0])
				x["seq"] = x["seq"].(float64) + 1
			}), "its extractors' seqs"}
			cases["a seq of 2^32-1"] = struct {
				doc  []byte
				want string
			}{editPartial(t, doc, func(d map[string]any) {
				extractorOf(d, pool(d, 0)["ue"].([]any)[0])["seq"] = math.MaxUint32
			}), "its extractors' seqs"}
			cases["a seq twice"] = struct {
				doc  []byte
				want string
			}{editPartial(t, doc, func(d map[string]any) {
				// Copy pool 0's first item into pool 1, in (ue, seq) order,
				// and count it in its UE's extractor's seq.
				from, to := pool(d, 0), pool(d, 1)
				x := extractorOf(d, from["ue"].([]any)[0])
				x["seq"] = x["seq"].(float64) + 1
				ue, seq, v := from["ue"].([]any)[0].(float64), from["seq"].([]any)[0].(float64), from["v"].([]any)[0]
				ues, seqs := to["ue"].([]any), to["seq"].([]any)
				at := 0
				for at < len(ues) && (ues[at].(float64) < ue || ues[at].(float64) == ue && seqs[at].(float64) < seq) {
					at++
				}
				to["ue"] = slices.Insert(ues, at, any(ue))
				to["seq"] = slices.Insert(seqs, at, any(seq))
				to["v"] = slices.Insert(to["v"].([]any), at, v)
				to["n"] = to["n"].(float64) + 1
			}), "two pool items of seq"}
		}
		for name, c := range cases {
			_, err := DecodePartial(bytes.NewReader(c.doc))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("sketch_k=%d %s: decode returned %v, want a refusal naming %q", k, name, err, c.want)
			}
		}
		if _, err := DecodePartial(bytes.NewReader(doc)); err != nil {
			t.Fatalf("sketch_k=%d: the canonical document is refused: %v", k, err)
		}
	}
}

var errShortWrite = errors.New("short write")

// shortWriter takes n bytes, then fails.
type shortWriter struct{ n int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errShortWrite
	}
	w.n -= len(p)
	return len(p), nil
}

// TestPartialEncodeShortWrites: Encode to a writer that fails after N
// bytes returns the writer's error for every N short of the encoding, at
// a stride over it, and the failure leaves the partial as it was — it
// encodes to the identical bytes afterwards.
func TestPartialEncodeShortWrites(t *testing.T) {
	for _, opt := range partialFitOptVariants() {
		pf := midScanPartial(t, opt)
		want := encodePartial(t, pf)
		for n := 0; n < len(want); n += max(1, len(want)/211) {
			if err := pf.Encode(&shortWriter{n: n}); !errors.Is(err, errShortWrite) {
				t.Fatalf("method=%q: Encode to a writer failing after %d of %d bytes returned %v", opt.Method, n, len(want), err)
			}
		}
		if got := encodePartial(t, pf); !bytes.Equal(got, want) {
			t.Fatalf("method=%q: the partial encodes differently after failed writes", opt.Method)
		}
	}
}

// TestDecodePartialRefusesPrefixes: a truncated checkpoint never decodes.
// Every strict prefix of a valid encoding is refused — every one of a
// small partial's, and of each option variant's mid-scan checkpoint a
// stride of them plus the last 64, where a cut leaves the most of the
// document intact (without its final newline it is still whole JSON).
func TestDecodePartialRefusesPrefixes(t *testing.T) {
	refuses := func(name string, doc []byte, n int) {
		t.Helper()
		if _, err := DecodePartial(bytes.NewReader(doc[:n])); err == nil {
			t.Fatalf("%s: the first %d of %d bytes decode", name, n, len(doc))
		}
	}
	small, err := NewPartialFit(FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := toyTrace(t, 3, cp.Hour, 2)
	if err := small.AddSource(tr); err != nil {
		t.Fatal(err)
	}
	doc := encodePartial(t, small)
	for n := range len(doc) {
		refuses("small", doc, n)
	}
	for _, opt := range partialFitOptVariants() {
		doc := encodePartial(t, midScanPartial(t, opt))
		for n := 0; n < len(doc); n += max(1, len(doc)/509) {
			refuses(opt.Method, doc, n)
		}
		for n := max(0, len(doc)-64); n < len(doc); n++ {
			refuses(opt.Method, doc, n)
		}
		if _, err := DecodePartial(bytes.NewReader(doc)); err != nil {
			t.Fatalf("method=%q: the whole document is refused: %v", opt.Method, err)
		}
	}
}
