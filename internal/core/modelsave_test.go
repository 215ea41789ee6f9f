package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

// saveOracle is the reference ModelSet.Save is held to — the role
// WriteTrace plays for TextWriter: encoding/json over the struct tags.
// loadOracle (modelload_test.go) is its read-side twin.
func saveOracle(w io.Writer, ms *ModelSet) error {
	return json.NewEncoder(w).Encode(ms)
}

// checkSaveMatchesOracle demands Save's bytes equal the oracle's, or that
// both refuse the model.
func checkSaveMatchesOracle(t *testing.T, name string, ms *ModelSet) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr, wantErr := ms.Save(&got), saveOracle(&want, ms)
	if (gotErr == nil) != (wantErr == nil) {
		t.Errorf("%s: Save returned %v, encoding/json %v", name, gotErr, wantErr)
		return
	}
	if wantErr != nil || bytes.Equal(got.Bytes(), want.Bytes()) {
		return
	}
	g, w := got.Bytes(), want.Bytes()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(i-40, 0)
	t.Errorf("%s: Save wrote %d bytes, encoding/json %d; first difference at byte %d:\n  Save: …%s\n  json: …%s",
		name, len(g), len(w), i, g[lo:min(i+40, len(g))], w[lo:min(i+40, len(w))])
}

// edgeModels are hand-built models on the writer's branches no fitted
// model reaches: nil against empty, omitted against present, every float
// format, and strings encoding/json escapes.
func edgeModels() map[string]*ModelSet {
	negZero := math.Copysign(0, -1)
	table := func(q ...float64) SojournModel { return SojournModel{Kind: SojournTable, Q: q} }
	floats := []float64{0, negZero, 1e-7, 1e-6, 999999e-12, 1e21, 999999999999999868928, 5e-324, math.MaxFloat64,
		-math.MaxFloat64, -1e-7, 0.1, 1.0 / 3, 10.24, 123456789, 1e20, 1.5e-9, 2.5e-10, 1e-300, 1e300}
	states := func(pExit float64) []StateParam {
		return []StateParam{
			{}, // encodes as {}
			{PExit: pExit},
			{Out: []TransitionParam{{Event: cp.Handover, P: 1, Sojourn: table(0, 0, 0, negZero, negZero, 0, 1.5, 1.5)}}, PExit: pExit,
				Sojourn: &SojournModel{Kind: SojournExp, Lambda: 1e-7}},
			{Sojourn: &SojournModel{Kind: SojournConst, Value: negZero}},
		}
	}
	cluster := func(pExit float64) ClusterModel {
		return ClusterModel{
			Top:    states(pExit),
			Bottom: []StateParam{},
			Free:   []FreeProcess{{Event: cp.TrackingAreaUpdate, Inter: table(floats...)}},
			First:  FirstEventModel{PNone: negZero, Cats: []FirstCat{{Event: cp.Attach, State: 3, P: 1e21}}, Offset: table()},
			NumUEs: -7,
		}
	}
	return map[string]*ModelSet{
		"zero":        {},
		"nil-device":  {MachineName: "LTE-2LEVEL", Method: "ours", Devices: []*DeviceModel{nil, {}, nil}},
		"empty-lists": {Devices: []*DeviceModel{{Personas: []Persona{}, Hours: []HourModel{}}, {Personas: []Persona{{}, {Cluster: []int{}}}, Hours: []HourModel{{}, {Clusters: []ClusterModel{}, Weights: []float64{}}}}}},
		"pexit-zero":  {Devices: []*DeviceModel{{Hours: []HourModel{{Clusters: []ClusterModel{cluster(0), cluster(negZero)}}}}}},
		"pexit-small": {Devices: []*DeviceModel{{Hours: []HourModel{{Clusters: []ClusterModel{cluster(1e-7)}, Aggregate: &ClusterModel{}, Weights: floats}}, Global: &ClusterModel{}, Share: 5e-324, TrainUEs: math.MinInt}}},
		"strings":     {MachineName: "<LTE>&\u2028\u2029\xff", Method: "a\"b\\c\n\x01\x7f é", Devices: []*DeviceModel{}},
	}
}

// filledModel returns a model in which every field of every model struct
// is non-zero, set by reflection: a field added to model.go later and
// forgotten in the writer makes the two encodings differ.
func filledModel() *ModelSet {
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		n++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).IsExported() {
					fill(v.Field(i))
				}
			}
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem())
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.String:
			v.SetString(fmt.Sprint("s", n))
		case reflect.Int:
			v.SetInt(int64(n))
		case reflect.Uint8:
			v.SetUint(uint64(n%7 + 1))
		case reflect.Float64:
			v.SetFloat(float64(n) + 0.25)
		default:
			panic("filledModel: model struct field of unhandled kind " + v.Kind().String())
		}
	}
	ms := &ModelSet{}
	fill(reflect.ValueOf(ms).Elem())
	return ms
}

// TestSaveMatchesEncodingJSON holds the hand-written writer to
// encoding/json, byte for byte.
func TestSaveMatchesEncodingJSON(t *testing.T) {
	tr := toyTrace(t, 60, 6*cp.Hour, 11)
	for _, method := range []string{"base", "v1", "v2", "ours"} {
		for _, k := range []int{0, 256} {
			opt := pinnedFitOptions(method)
			opt.SketchK = k
			ms, err := Fit(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkSaveMatchesOracle(t, fmt.Sprintf("fit %s/%d", method, k), ms)
		}
	}
	for name, ms := range edgeModels() {
		checkSaveMatchesOracle(t, "edge model "+name, ms)
	}
	checkSaveMatchesOracle(t, "reflect-filled model", filledModel())

	// Every float format: random bit patterns (nearly all far outside
	// [1e-6, 1e21)), and the magnitudes models hold.
	r := stats.NewRNG(21)
	var buf bytes.Buffer
	e := modelEncoder{w: bufio.NewWriter(&buf)}
	for i := 0; i < 200_000; i++ {
		x := math.Float64frombits(r.Uint64())
		switch i % 4 {
		case 1:
			x = r.Lognormal(0, 12)
		case 2:
			x = float64(r.Intn(100_000_000)) / 1000
		}
		if math.IsInf(x, 0) || math.IsNaN(x) {
			continue
		}
		buf.Reset()
		e.float(x)
		if err := e.w.Flush(); err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(x); !bytes.Equal(buf.Bytes(), want) || e.err != nil {
			t.Fatalf("float %#x: writer %q (error %v), encoding/json %q", math.Float64bits(x), buf.Bytes(), e.err, want)
		}
	}
}

// TestSaveRejectsNonFinite: a NaN or an infinity anywhere a model holds a
// float is an error from Save, as from encoding/json, never output.
func TestSaveRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, where := range []string{"Q", "P", "Weight", "repeated in Q"} {
			ms := filledModel()
			cm := &ms.Devices[0].Hours[1].Clusters[0]
			switch where {
			case "Q":
				cm.Bottom[1].Sojourn.Q[1] = bad
			case "P":
				cm.Top[0].Out[1].P = bad
			case "Weight":
				ms.Devices[1].Personas[0].Weight = bad
			default: // the run of equal values must not hide it
				cm.First.Offset.Q = []float64{bad, bad}
			}
			err := ms.Save(io.Discard)
			if err == nil {
				t.Errorf("%v in %s: Save returned no error", bad, where)
			}
			if oracleErr := saveOracle(io.Discard, ms); oracleErr == nil {
				t.Errorf("%v in %s: encoding/json returned no error", bad, where)
			}
		}
	}
}

// failAfter is an io.Writer that accepts n bytes and then fails.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, errDiskFull
}

// TestSaveSurfacesWriteErrors: a destination that fails after N bytes —
// every N short of a small model, which sits in the buffer until the
// final flush, and a spread of N across one several buffers long — makes
// Save return that failure, never swallow it.
func TestSaveSurfacesWriteErrors(t *testing.T) {
	small := filledModel()
	large := fitToy(t, 30, 2*cp.Hour, 5, FitOptions{})
	for name, ms := range map[string]*ModelSet{"small": small, "large": large} {
		size := len(modelBytes(t, ms))
		step := 1
		if ms == large {
			if size < 3*64<<10 {
				t.Fatalf("the large model is %d bytes: it must outgrow the 64 KiB buffer several times", size)
			}
			step = size/97 + 1
		}
		for n := 0; n < size; n += step {
			if err := ms.Save(&failAfter{n: n}); !errors.Is(err, errDiskFull) {
				t.Fatalf("%s model: destination failed after %d of %d bytes, Save returned %v", name, n, size, err)
			}
		}
		if err := ms.Save(&failAfter{n: size}); err != nil {
			t.Fatalf("%s model: destination with room for all %d bytes: %v", name, size, err)
		}
	}
}

// TestModelSaveSteadyStateAllocs: Save allocates its buffer and nothing
// per model, table or value — the same few allocations for a fit of 60
// UEs and one of 400, whose file is several times larger.
func TestModelSaveSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	allocs := func(ms *ModelSet) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := ms.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := fitToy(t, 60, 6*cp.Hour, 11, FitOptions{}), fitToy(t, 400, 6*cp.Hour, 11, FitOptions{})
	if s, l := len(modelBytes(t, small)), len(modelBytes(t, large)); l < 3*s {
		t.Fatalf("the 400-UE model is %d bytes against %d: not several times larger", l, s)
	}
	a, b := allocs(small), allocs(large)
	if a != b || a > 4 {
		t.Fatalf("Save allocated %v times for the 60-UE model and %v for the 400-UE model; want the same count, at most 4", a, b)
	}
}
