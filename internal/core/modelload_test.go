package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// oracleDecode is the reference Load's decoder is held to: a
// json.Decoder over the struct tags, then the demand that only
// whitespace follows the model.
func oracleDecode(r io.Reader) (*ModelSet, error) {
	var ms ModelSet
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ms); err != nil {
		return nil, fmt.Errorf("core: decoding model set: %w", err)
	}
	// Decode reads one value and stops; the stream must end there too.
	if _, err := dec.Token(); err == nil || errors.As(err, new(*json.SyntaxError)) {
		return nil, errors.New("core: decoding model set: trailing data")
	} else if err != io.EOF {
		return nil, fmt.Errorf("core: decoding model set: %w", err)
	}
	return &ms, nil
}

// loadOracle is the reference Load is held to — the role saveOracle
// plays for Save: encoding/json's decoding, the trailing-data check,
// then validateOracle. Neither step shares code with Load.
func loadOracle(r io.Reader) (*ModelSet, error) {
	ms, err := oracleDecode(r)
	if err != nil {
		return nil, err
	}
	if err := validateOracle(ms); err != nil {
		return nil, err
	}
	return ms, nil
}

// validateOracle is the structural check as a walk of the declarative
// structs, written apart from compile: probabilities in [0,1] summing to
// ~1 per state, valid sojourn models and event types, persona vectors
// covering all hours, and every ClusterModel the generator can resolve to
// — the clusters, the hour aggregates and the device global. compile
// (Validate) must refuse exactly the models it refuses, with the same
// error for a single fault (TestCompileRefusals, FuzzLoadModel).
func validateOracle(ms *ModelSet) error {
	if _, err := ms.Machine(); err != nil {
		return err
	}
	for d, dm := range ms.Devices {
		if dm == nil {
			continue
		}
		var wsum float64
		for _, p := range dm.Personas {
			wsum += p.Weight
			if len(p.Cluster) != len(dm.Hours) {
				return fmt.Errorf("core: device %d persona covers %d hours, model has %d",
					d, len(p.Cluster), len(dm.Hours))
			}
		}
		if len(dm.Personas) > 0 && math.Abs(wsum-1) > 1e-6 {
			return fmt.Errorf("core: device %d persona weights sum to %v", d, wsum)
		}
		for h := range dm.Hours {
			hm := &dm.Hours[h]
			if len(hm.Clusters) > math.MaxInt16 { // compile stores cluster ids as int16
				return fmt.Errorf("core: device %d hour %d: %d clusters", d, h, len(hm.Clusters))
			}
			for c := range hm.Clusters {
				if err := validateClusterOracle(&hm.Clusters[c]); err != nil {
					return fmt.Errorf("core: device %d hour %d cluster %d %w", d, h, c, err)
				}
			}
			if hm.Aggregate != nil {
				if err := validateClusterOracle(hm.Aggregate); err != nil {
					return fmt.Errorf("core: device %d hour %d aggregate %w", d, h, err)
				}
			}
		}
		if dm.Global != nil {
			if err := validateClusterOracle(dm.Global); err != nil {
				return fmt.Errorf("core: device %d global %w", d, err)
			}
		}
	}
	return nil
}

// validateClusterOracle checks one cluster model: its states, its free
// processes and its first-event model. A first category's state may lie
// outside the machine (compile maps it to the event's forced state); its
// event may not, nor may any other event. The error names the part of the
// model, for validateOracle to prefix with the model's place.
func validateClusterOracle(cm *ClusterModel) error {
	if err := checkStatesOracle("top", cm.Top); err != nil {
		return err
	}
	if err := checkStatesOracle("bottom", cm.Bottom); err != nil {
		return err
	}
	for _, fp := range cm.Free {
		if !fp.Event.Valid() {
			return fmt.Errorf("free process: invalid event %d", fp.Event)
		}
		if !fp.Inter.Valid() {
			return fmt.Errorf("free %v process: invalid inter-arrival model", fp.Event)
		}
	}
	if cm.First.Offset.Kind != "" && !cm.First.Offset.Valid() {
		return errors.New("first event: invalid offset model")
	}
	if len(cm.First.Cats) > 0 {
		var sum float64
		for _, cat := range cm.First.Cats {
			if !cat.Event.Valid() {
				return fmt.Errorf("first event: invalid event %d", cat.Event)
			}
			if cat.P < 0 || cat.P > 1+1e-9 {
				return fmt.Errorf("first event: probability %v out of range", cat.P)
			}
			sum += cat.P
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("first event: probabilities sum to %v", sum)
		}
	}
	return nil
}

// checkStatesOracle checks the outgoing transitions of each state of one level.
func checkStatesOracle(level string, sp []StateParam) error {
	for si, s := range sp {
		if len(s.Out) == 0 {
			continue
		}
		var sum float64
		if s.PExit < 0 || s.PExit > 1 {
			return fmt.Errorf("%s state %d: PExit %v out of range", level, si, s.PExit)
		}
		if s.Sojourn != nil && !s.Sojourn.Valid() {
			return fmt.Errorf("%s state %d: invalid state-level sojourn", level, si)
		}
		for _, tp := range s.Out {
			if !tp.Event.Valid() {
				return fmt.Errorf("%s state %d: transition on invalid event %d", level, si, tp.Event)
			}
			if tp.P < 0 || tp.P > 1+1e-9 {
				return fmt.Errorf("%s state %d: probability %v out of range", level, si, tp.P)
			}
			if !tp.Sojourn.Valid() {
				return fmt.Errorf("%s state %d event %v: invalid sojourn", level, si, tp.Event)
			}
			sum += tp.P
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("%s state %d: probabilities sum to %v", level, si, sum)
		}
	}
	return nil
}

// declared is ms's declarative part: ms without the compiled form Load
// caches, for comparing a loaded model with the oracle's.
func declared(ms *ModelSet) *ModelSet {
	if ms == nil {
		return nil
	}
	return &ModelSet{MachineName: ms.MachineName, Method: ms.Method, Devices: ms.Devices}
}

// checkDecodeSound demands that what the decoder accepts, encoding/json
// accepts too, and to the same model — nil against empty slices
// included. It returns the decoder's error.
func checkDecodeSound(t *testing.T, name string, data []byte) error {
	t.Helper()
	got, err := decodeModel(bytes.NewReader(data))
	if err != nil {
		return err
	}
	want, oerr := oracleDecode(bytes.NewReader(data))
	if oerr != nil {
		t.Fatalf("%s: the decoder accepted what encoding/json refuses (%v)", name, oerr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the decoder's model differs from encoding/json's", name)
	}
	return nil
}

// modelForms returns a document in the three forms Load must read to the
// same model: as written, indented, and re-marshalled through
// map[string]any — keys sorted, strings HTML-escaped, number text kept.
func modelForms(t testing.TB, doc []byte) map[string][]byte {
	t.Helper()
	var indented bytes.Buffer
	if err := json.Indent(&indented, doc, "", "\t "); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"as saved": doc, "indented": indented.Bytes(), "key-sorted": sorted}
}

// TestLoadMatchesEncodingJSON holds the streaming decoder to
// encoding/json: fitted models of every method, exact and sketched, the
// writer's edge models and a reflect-filled model, each as saved,
// indented and key-sorted, decode to exactly the oracle's model; Load and
// loadOracle agree on which of them validate.
func TestLoadMatchesEncodingJSON(t *testing.T) {
	models := map[string]*ModelSet{"reflect-filled": filledModel()}
	tr := toyTrace(t, 60, 6*cp.Hour, 11)
	for _, method := range []string{"base", "v1", "v2", "ours"} {
		for _, k := range []int{0, 256} {
			opt := pinnedFitOptions(method)
			opt.SketchK = k
			ms, err := Fit(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			models[fmt.Sprintf("fit %s/%d", method, k)] = ms
		}
	}
	for name, ms := range edgeModels() {
		models["edge "+name] = ms
	}
	// A string longer than the 64 KiB window grows it.
	models["long string"] = &ModelSet{MachineName: "LTE-2LEVEL", Method: strings.Repeat("v2", 70_000), Devices: []*DeviceModel{}}
	for name, ms := range models {
		var saved bytes.Buffer
		if err := ms.Save(&saved); err != nil {
			t.Fatal(err)
		}
		for form, doc := range modelForms(t, saved.Bytes()) {
			where := name + ", " + form
			if err := checkDecodeSound(t, where, doc); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
			got, err := Load(bytes.NewReader(doc))
			want, oerr := loadOracle(bytes.NewReader(doc))
			if (err == nil) != (oerr == nil) || !reflect.DeepEqual(declared(got), declared(want)) {
				t.Fatalf("%s: Load returned %v, loadOracle %v", where, err, oerr)
			}
			if len(doc) < 64<<10 { // a refill between any two bytes
				if bytewise, err := Load(iotest.OneByteReader(bytes.NewReader(doc))); !reflect.DeepEqual(declared(bytewise), declared(got)) {
					t.Fatalf("%s, read a byte at a time: Load returned %v", where, err)
				}
			}
			if strings.HasPrefix(name, "fit ") && err != nil {
				t.Fatalf("%s: a fitted model does not load: %v", where, err)
			}
		}
	}
	// What Save never writes: an empty array where it omits the field, and
	// null for slices, pointers, structs and numbers.
	for _, doc := range []string{
		`{"machine":"LTE-2LEVEL","method":null,"devices":[null,{"personas":[],"hours":[{"clusters":[],"aggregate":null,"weights":[]},{"clusters":null,"weights":null}],` +
			`"global":{"top":[],"bottom":[{"out":[],"pExit":0,"sojourn":null}],"free":[],"first":{"pNone":null,"cats":[],"offset":{"kind":"const","q":[],"lambda":null,"value":1}},"numUEs":null},"share":1,"trainUEs":0}]}`,
		`{"machine":"LTE-2LEVEL","devices":[{"personas":null,"hours":[{"clusters":[{"top":null,"first":null}]}],"global":null,"share":1}]}`,
	} {
		if err := checkDecodeSound(t, doc, []byte(doc)); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		got, err := Load(strings.NewReader(doc))
		want, oerr := loadOracle(strings.NewReader(doc))
		if err != nil || oerr != nil || !reflect.DeepEqual(declared(got), declared(want)) {
			t.Fatalf("%s: Load returned %v, loadOracle %v", doc, err, oerr)
		}
	}
}

// TestLoadRefusesTruncatedModels: every proper prefix of a model is
// refused by both decoders.
func TestLoadRefusesTruncatedModels(t *testing.T) {
	doc := bytes.TrimSpace(modelBytes(t, edgeModels()["pexit-small"]))
	for n := 0; n < len(doc); n++ {
		if err := checkDecodeSound(t, fmt.Sprintf("prefix %d", n), doc[:n]); err == nil {
			t.Fatalf("the first %d of %d bytes decoded", n, len(doc))
		}
		if _, err := oracleDecode(bytes.NewReader(doc[:n])); err == nil {
			t.Fatalf("the first %d of %d bytes decoded under encoding/json", n, len(doc))
		}
	}
}

// TestLoadRefusals has one document per class of input Load refuses, with
// the error it gives; loose says encoding/json accepts it.
func TestLoadRefusals(t *testing.T) {
	const (
		head = `{"machine":"LTE-2LEVEL","method":"ours","devices":[`
		tail = `]}`
		free = `{"global":{"free":[{"event":%s,"inter":{"kind":"const","value":1}}],"first":{"pNone":0},"numUEs":1},"share":1,"trainUEs":%s}`
	)
	ok := head + fmt.Sprintf(free, "3", "2") + tail
	if _, err := Load(strings.NewReader(ok)); err != nil {
		t.Fatalf("the base document: %v", err)
	}
	for _, c := range []struct {
		name, doc, err string
		loose          bool
	}{
		{"unknown key", strings.Replace(ok, `"method"`, `"bogus":[1],"method"`, 1), `unknown key "bogus" at byte 24`, true},
		{"duplicate key", strings.Replace(ok, `"devices"`, `"method":"v2","devices"`, 1), `duplicate key "method" at byte 40`, true},
		{"case-variant key", strings.Replace(ok, `"method"`, `"Method"`, 1), `key "Method" differs from "method" only in case at byte 24`, true},
		{"leading zero", head + fmt.Sprintf(free, "3", "02") + tail, `invalid number "02" at byte 171`, false},
		{"float out of range", strings.Replace(ok, `"share":1`, `"share":1e400`, 1), `number 1e400 does not fit float64 at byte 158`, false},
		{"fraction into an int", head + fmt.Sprintf(free, "3", "1.5") + tail, `number 1.5 does not fit int at byte 171`, false},
		{"256 into an event", head + fmt.Sprintf(free, "256", "2") + tail, `number 256 does not fit cp.EventType at byte 79`, false},
		{"trailing data", ok + " x", `trailing data`, false},
	} {
		_, err := Load(strings.NewReader(c.doc))
		if want := "core: decoding model set: " + c.err; err == nil || err.Error() != want {
			t.Errorf("%s: Load returned %v, want %s", c.name, err, want)
		}
		if _, err := loadOracle(strings.NewReader(c.doc)); (err == nil) != c.loose {
			t.Errorf("%s: loadOracle returned %v", c.name, err)
		}
	}
}

// TestLoadRefusesModelsGenerateCannotRun: compile checks the hour
// aggregates and the device global, not only the clusters, so a model
// whose global holds a sojourn kind compile cannot lower, or a first
// event past the event types, is refused — both documents load under
// encoding/json, and Generate on the decoded model returns Load's error.
func TestLoadRefusesModelsGenerateCannotRun(t *testing.T) {
	ms := fitToy(t, 12, cp.Hour, 3, FitOptions{})
	for _, dm := range ms.Devices {
		if dm != nil {
			dm.Global = nil // the document brings its own
		}
	}
	saved := string(modelBytes(t, ms))
	for name, g := range map[string]string{
		"bogus free kind":          unrunnableGlobal(`{"kind":"bogus"}`, ""),
		"first event out of range": unrunnableGlobal(`{"kind":"const","value":1}`, `"cats":[{"event":77,"state":99,"p":1}],`),
	} {
		doc := strings.Replace(saved, `"share":`, g+`"share":`, 1)
		_, lerr := Load(strings.NewReader(doc))
		if lerr == nil || !strings.Contains(lerr.Error(), "global") {
			t.Fatalf("%s: Load returned %v, want an error about the global model", name, lerr)
		}
		if _, err := loadOracle(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: loadOracle accepted it", name)
		}
		unchecked, err := decodeModel(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := Generate(unchecked, GenOptions{NumUEs: 20, StartHour: 23, Duration: 2 * cp.Hour, Seed: 1}); err == nil || err.Error() != lerr.Error() {
			t.Errorf("%s: Generate returned %v, want Load's error %v", name, err, lerr)
		}
	}
}

// TestValidateRefusesClusterIDsPastInt16: compile stores a persona's
// cluster id as an int16 and indexes the hour's cells with id+1, so it
// refuses an hour of 32 768 clusters, one of them a persona's, and
// Generate returns that error.
func TestValidateRefusesClusterIDsPastInt16(t *testing.T) {
	model := func() *ModelSet {
		return &ModelSet{MachineName: "LTE-2LEVEL", Devices: []*DeviceModel{{
			Personas: []Persona{{Cluster: []int{math.MaxInt16}, Weight: 1}},
			Hours:    []HourModel{{Clusters: make([]ClusterModel, math.MaxInt16+1)}},
			Share:    1,
		}}}
	}
	const want = "core: device 0 hour 0: 32768 clusters"
	if err := model().Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate returned %v, want %s", err, want)
	}
	if _, err := Generate(model(), GenOptions{NumUEs: 1, Duration: cp.Hour, Seed: 1}); err == nil || err.Error() != want {
		t.Errorf("Generate returned %v, want %s", err, want)
	}
}

// unrunnableGlobal is a device-global member Load used to accept and
// Generate panics on when its free process's inter-arrival model or its
// first-event categories are bad.
func unrunnableGlobal(inter, cats string) string {
	return `"global":{"free":[{"event":3,"inter":` + inter + `}],"first":{"pNone":0,` + cats +
		`"offset":{"kind":"const","value":1}},"numUEs":1},`
}

// TestModelLoadAllocs: decoding allocates each slice and pointer of the
// model once, at its exact size, and a constant besides — the window,
// scratch growth, the two strings — never one per number, though the file
// holds many times more numbers than slices. Load adds one compile and
// nothing else.
func TestModelLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, n := range []int{60, 400} {
		doc := modelBytes(t, fitToy(t, n, 6*cp.Hour, 11, FitOptions{}))
		ms, err := decodeModel(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		parts := countAllocated(reflect.ValueOf(ms).Elem())
		numbers := bytes.Count(doc, []byte(",")) // a floor on the number count
		decode := testing.AllocsPerRun(3, func() {
			if _, err := decodeModel(bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		})
		if decode > float64(parts+96) || numbers < 4*parts {
			t.Fatalf("%d-UE model: decoding allocated %v times for %d slices and pointers (%d numbers or more)", n, decode, parts, numbers)
		}
		machine, err := ms.Machine()
		if err != nil {
			t.Fatal(err)
		}
		lower := testing.AllocsPerRun(3, func() {
			if _, err := compile(ms, machine); err != nil {
				t.Fatal(err)
			}
		})
		load := testing.AllocsPerRun(3, func() {
			if _, err := Load(bytes.NewReader(doc)); err != nil {
				t.Fatal(err)
			}
		})
		if load > float64(parts+96)+lower {
			t.Fatalf("%d-UE model: Load allocated %v times, %d slices and pointers + 96 + compile's %v", n, load, parts, lower)
		}
	}
}

// countAllocated counts the non-empty slices and non-nil pointers under
// v: what Load must allocate one by one.
func countAllocated(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n = 1 + countAllocated(v.Elem())
		}
	case reflect.Slice:
		if v.Len() > 0 {
			n = 1
		}
		for i := 0; i < v.Len(); i++ {
			n += countAllocated(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				n += countAllocated(v.Field(i))
			}
		}
	}
	return n
}

// TestLoadFloatsMatchParseFloat holds the decoder's float reading — the
// exact-product shortcut, the strconv fallback, the repeat of the
// previous token — to strconv.ParseFloat, value for value and refusal
// for refusal, over random bit patterns in every form JSON allows and
// the boundaries of the shortcut.
func TestLoadFloatsMatchParseFloat(t *testing.T) {
	texts := []string{"0", "-0", "0.0", "-0.0e5", "0e500", "1e-400", "1e22", "1e23", "-1e22", "9007199254740992",
		"9007199254740993", "9007199254740993e-5", "0.1", "1234567890123456789", "12345678901234567890",
		"0.00000000000000000001", "123456789012345678901234567890e-10", "4.9e-324", "2e-324",
		"1.7976931348623157e308", "1.7976931348623159e308", "1E2", "1e+2", "1.5E-3", "-12.5e-0"}
	r := stats.NewRNG(30)
	for i := 0; i < 100_000; i++ {
		x := math.Float64frombits(r.Uint64())
		if i%2 == 1 {
			x = float64(r.Intn(1_000_000_000)) / 1000
		}
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		b, _ := json.Marshal(x)
		texts = append(texts, string(b), strconv.FormatFloat(x, 'e', r.Intn(20), 64),
			strings.ToUpper(strconv.FormatFloat(x, 'g', -1, 64)))
	}
	for _, s := range texts {
		want, werr := strconv.ParseFloat(s, 64)
		d := modelDecoder{r: strings.NewReader("[" + s + "," + s + "]"), buf: make([]byte, 80)}
		got := d.floats()
		if werr != nil {
			if d.err == nil {
				t.Fatalf("%s: ParseFloat refuses it (%v), the decoder read %v", s, werr, got)
			}
			continue
		}
		if d.err != nil || len(got) != 2 || math.Float64bits(got[0]) != math.Float64bits(want) || math.Float64bits(got[1]) != math.Float64bits(want) {
			t.Fatalf("%s: the decoder read %v (error %v), ParseFloat %v", s, got, d.err, want)
		}
	}
}
