package cluster

import (
	"testing"
	"testing/quick"

	"cptraffic/internal/cp"
	"cptraffic/internal/stats"
)

func TestPartitionEmpty(t *testing.T) {
	if got := Partition(nil, Options{}); got != nil {
		t.Fatalf("Partition(nil) = %v", got)
	}
}

func TestPartitionSingleCluster(t *testing.T) {
	// All points identical -> one cluster regardless of thresholds.
	pts := make([]Point, 5000)
	for i := range pts {
		pts[i] = Point{UE: cp.UEID(i), F: Features{1, 2, 3, 4}}
	}
	cs := Partition(pts, Options{ThetaN: 10})
	if len(cs) != 1 {
		t.Fatalf("got %d clusters, want 1", len(cs))
	}
	if len(cs[0].UEs) != 5000 {
		t.Fatalf("cluster size = %d", len(cs[0].UEs))
	}
}

func TestPartitionSmallPopulationStops(t *testing.T) {
	// Fewer than ThetaN points -> one cluster even if spread out.
	pts := []Point{
		{UE: 1, F: Features{0, 0, 0, 0}},
		{UE: 2, F: Features{1000, 1000, 1000, 1000}},
	}
	cs := Partition(pts, Options{ThetaN: 1000})
	if len(cs) != 1 {
		t.Fatalf("got %d clusters, want 1", len(cs))
	}
}

func TestPartitionSeparatesDistinctGroups(t *testing.T) {
	// Two well-separated groups, each large enough to matter.
	var pts []Point
	for i := 0; i < 200; i++ {
		pts = append(pts, Point{UE: cp.UEID(i), F: Features{1, 1, 1, 1}})
	}
	for i := 200; i < 400; i++ {
		pts = append(pts, Point{UE: cp.UEID(i), F: Features{100, 100, 100, 100}})
	}
	cs := Partition(pts, Options{ThetaN: 50})
	if len(cs) < 2 {
		t.Fatalf("got %d clusters, want >= 2", len(cs))
	}
	// No cluster may contain members of both groups.
	asg := Assignment(cs)
	for i := 0; i < 200; i++ {
		for j := 200; j < 400; j++ {
			if asg[cp.UEID(i)] == asg[cp.UEID(j)] {
				t.Fatalf("UE %d and %d share cluster %d", i, j, asg[cp.UEID(i)])
			}
		}
	}
}

func TestPartitionFinalClustersMeetStopCriteria(t *testing.T) {
	r := stats.NewRNG(1)
	var pts []Point
	for i := 0; i < 3000; i++ {
		pts = append(pts, Point{
			UE: cp.UEID(i),
			F: Features{
				float64(r.Intn(60)),
				r.Float64() * 200,
				float64(r.Intn(60)),
				r.Float64() * 200,
			},
		})
	}
	opt := Options{ThetaN: 100}
	cs := Partition(pts, opt)
	theta := opt.withDefaults().ThetaF
	for _, c := range cs {
		if len(c.UEs) < opt.ThetaN {
			continue // stopped by size: fine
		}
		for d := 0; d < NumFeatures; d++ {
			if c.Max[d]-c.Min[d] >= theta[d] {
				t.Fatalf("cluster %d has spread %v in dim %d with %d members",
					c.ID, c.Max[d]-c.Min[d], d, len(c.UEs))
			}
		}
	}
}

func TestPartitionCoversAllUEsExactlyOnce(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		r := stats.NewRNG(seed)
		m := int(n%2000) + 1
		pts := make([]Point, m)
		for i := range pts {
			pts[i] = Point{
				UE: cp.UEID(i),
				F: Features{
					float64(r.Intn(100)),
					r.Float64() * 500,
					float64(r.Intn(100)),
					r.Float64() * 500,
				},
			}
		}
		cs := Partition(pts, Options{ThetaN: 50})
		seen := map[cp.UEID]int{}
		for _, c := range cs {
			for _, ue := range c.UEs {
				seen[ue]++
			}
		}
		if len(seen) != m {
			return false
		}
		for _, cnt := range seen {
			if cnt != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPartitionDeterministicUnderShuffle(t *testing.T) {
	r := stats.NewRNG(7)
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = Point{
			UE: cp.UEID(i),
			F:  Features{float64(r.Intn(40)), r.Float64() * 100, float64(r.Intn(40)), r.Float64() * 100},
		}
	}
	a := Partition(pts, Options{ThetaN: 100})
	shuffled := append([]Point(nil), pts...)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := Partition(shuffled, Options{ThetaN: 100})
	if len(a) != len(b) {
		t.Fatalf("cluster counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].UEs) != len(b[i].UEs) {
			t.Fatalf("cluster %d sizes differ", i)
		}
		for j := range a[i].UEs {
			if a[i].UEs[j] != b[i].UEs[j] {
				t.Fatalf("cluster %d member %d differs", i, j)
			}
		}
	}
}

func TestAssignmentAndWeights(t *testing.T) {
	cs := []Cluster{
		{ID: 0, UEs: []cp.UEID{1, 2, 3}},
		{ID: 1, UEs: []cp.UEID{4}},
	}
	asg := Assignment(cs)
	if asg[1] != 0 || asg[4] != 1 {
		t.Fatalf("assignment = %v", asg)
	}
	w := Weights(cs)
	if w[0] != 0.75 || w[1] != 0.25 {
		t.Fatalf("weights = %v", w)
	}
	if w := Weights(nil); len(w) != 0 {
		t.Fatalf("Weights(nil) = %v", w)
	}
	if w := Weights([]Cluster{{ID: 0}}); w[0] != 0 {
		t.Fatalf("empty cluster weight = %v", w)
	}
}

func TestClusterIDsAreSequential(t *testing.T) {
	r := stats.NewRNG(3)
	pts := make([]Point, 2000)
	for i := range pts {
		pts[i] = Point{UE: cp.UEID(i), F: Features{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}}
	}
	cs := Partition(pts, Options{ThetaN: 50})
	for i, c := range cs {
		if c.ID != i {
			t.Fatalf("cluster %d has ID %d", i, c.ID)
		}
	}
}

func TestMaxDepthGuard(t *testing.T) {
	// Pathological: many coincident groups forcing deep recursion still
	// terminates thanks to MaxDepth.
	var pts []Point
	r := stats.NewRNG(4)
	for i := 0; i < 5000; i++ {
		pts = append(pts, Point{UE: cp.UEID(i), F: Features{r.Float64() * 1e9, 0, 0, 0}})
	}
	cs := Partition(pts, Options{ThetaN: 2, MaxDepth: 4})
	if len(cs) == 0 {
		t.Fatal("no clusters")
	}
	// With depth 4 and 4-way splits we can have at most 4^4 leaves... but
	// only 2 dims spread here; just check termination and coverage.
	total := 0
	for _, c := range cs {
		total += len(c.UEs)
	}
	if total != 5000 {
		t.Fatalf("covered %d of 5000", total)
	}
}

func TestStringMethods(t *testing.T) {
	c := Cluster{ID: 3, UEs: []cp.UEID{1, 2}}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}
