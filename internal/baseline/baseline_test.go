package baseline

import (
	"strings"
	"testing"

	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/world"
)

// TestOptionsMatchTable3 holds each method's fitted phone global
// fallback to its Table 3 row: the machine, the sojourn family of the
// top-level transitions, the free-running HO and TAU processes, and
// clustering (Base fits one cluster an hour even at a θn that splits the
// other methods'). Options passes the name and the clustering through
// and refuses any other name.
func TestOptionsMatchTable3(t *testing.T) {
	tr, err := world.Generate(world.Options{NumUEs: 150, Duration: 12 * cp.Hour, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	co := cluster.Options{ThetaN: 10}
	cases := []struct {
		method  string
		machine string
		kind    string
		free    int
		cluster bool
	}{
		{"base", "EMM-ECM", core.SojournExp, 2, false},
		{"v1", "EMM-ECM", core.SojournExp, 2, true},
		{"v2", "LTE-2LEVEL", core.SojournExp, 0, true},
		{"ours", "LTE-2LEVEL", core.SojournTable, 0, true},
	}
	for _, c := range cases {
		opt, err := Options(c.method, co)
		if err != nil {
			t.Fatal(err)
		}
		if opt != (core.FitOptions{Method: c.method, Cluster: co}) {
			t.Fatalf("%s: Options returned %+v", c.method, opt)
		}
		ms, err := core.Fit(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		if ms.MachineName != c.machine || ms.Method != c.method {
			t.Errorf("%s: machine %s, label %q", c.method, ms.MachineName, ms.Method)
		}
		dm := ms.Device(cp.Phone)
		g := dm.Global
		kinds := map[string]bool{}
		for _, sp := range g.Top {
			for _, tp := range sp.Out {
				kinds[tp.Sojourn.Kind] = true
			}
		}
		if !kinds[c.kind] {
			t.Errorf("%s: top-level sojourn kinds %v, want %s among them", c.method, kinds, c.kind)
		}
		if len(g.Free) != c.free {
			t.Errorf("%s: %d free processes, want %d", c.method, len(g.Free), c.free)
		}
		split := false
		for _, hm := range dm.Hours {
			split = split || len(hm.Clusters) > 1
		}
		if split != c.cluster {
			t.Errorf("%s: some hour split into clusters: %v, want %v", c.method, split, c.cluster)
		}
	}
	if _, err := Options("nope", co); err == nil || !strings.Contains(err.Error(), "base, v1, v2, ours") {
		t.Fatalf("unknown method: %v", err)
	}
}

func TestFitAll(t *testing.T) {
	tr, err := world.Generate(world.Options{NumUEs: 150, Duration: 3 * cp.Hour, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	models, err := FitAll(tr, cluster.Options{ThetaN: 25}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 4 {
		t.Fatalf("got %d models", len(models))
	}
	for _, m := range Methods {
		ms := models[m]
		if ms == nil {
			t.Fatalf("method %s missing", m)
		}
		if err := ms.Validate(); err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if ms.Method != m {
			t.Fatalf("%s: labeled %q", m, ms.Method)
		}
		// Every method must be able to generate.
		gen, err := core.Generate(ms, core.GenOptions{NumUEs: 50, Duration: cp.Hour, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if gen.Len() == 0 {
			t.Fatalf("%s generated nothing", m)
		}
	}
	// Base has exactly one cluster per hour; ours has at least one.
	base := models["base"].Device(cp.Phone)
	for h := range base.Hours {
		if len(base.Hours[h].Clusters) != 1 {
			t.Fatalf("base hour %d has %d clusters", h, len(base.Hours[h].Clusters))
		}
	}
}
