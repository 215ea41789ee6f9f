package mcn

import (
	"math"
	"testing"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, sm.LTE2Level()); err == nil {
		t.Fatal("zero-instance pool accepted")
	}
	p, err := NewPool(4, sm.LTE2Level())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.instances) != 4 {
		t.Fatalf("%d instances", len(p.instances))
	}
}

func TestPoolShardingIsStablePerUE(t *testing.T) {
	p, err := NewPool(5, sm.LTE2Level())
	if err != nil {
		t.Fatal(err)
	}
	for ue := uint32(0); ue < 100; ue++ {
		a := p.shard(ue)
		if a != p.shard(ue) {
			t.Fatal("shard not stable")
		}
		if a < 0 || a >= 5 {
			t.Fatalf("shard out of range: %d", a)
		}
	}
	// All instances get some UEs.
	seen := map[int]bool{}
	for ue := uint32(0); ue < 1000; ue++ {
		seen[p.shard(ue)] = true
	}
	if len(seen) != 5 {
		t.Fatalf("only %d instances used", len(seen))
	}
}

func TestPoolProcessTraceBalance(t *testing.T) {
	tr, err := world.Generate(world.Options{NumUEs: 600, Duration: 2 * cp.Hour, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(4, sm.LTE2Level())
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Violations != 0 {
		t.Fatalf("violations = %d", st.Violations)
	}
	total := 0
	for _, inst := range st.PerInstance {
		total += inst.Processed
	}
	if total != tr.Len() {
		t.Fatalf("processed %d of %d", total, tr.Len())
	}
	// Totals are roughly balanced but not perfect — heavy-tailed UEs.
	if math.IsNaN(st.Imbalance) || st.Imbalance < 1 || st.Imbalance > 3 {
		t.Fatalf("imbalance = %v", st.Imbalance)
	}
	// Bursts concentrate at least as hard as totals.
	if st.PeakImbalance < st.Imbalance-0.3 {
		t.Fatalf("peak imbalance %v below total imbalance %v", st.PeakImbalance, st.Imbalance)
	}
}

func TestPoolEmptyTrace(t *testing.T) {
	p, err := NewPool(2, sm.LTE2Level())
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.ProcessTrace(trace.New())
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(st.Imbalance) || !math.IsNaN(st.PeakImbalance) {
		t.Fatalf("empty-trace stats = %+v", st)
	}
}

func TestPoolSingleInstanceMatchesMME(t *testing.T) {
	tr, err := world.Generate(world.Options{NumUEs: 100, Duration: cp.Hour, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPool(1, sm.LTE2Level())
	if err != nil {
		t.Fatal(err)
	}
	ps, err := p.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	m := New(sm.LTE2Level())
	ms, err := m.ProcessTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if ps.PerInstance[0] != ms {
		t.Fatalf("pool-of-1 stats %+v != single MME %+v", ps.PerInstance[0], ms)
	}
	if ps.Imbalance != 1 {
		t.Fatalf("single-instance imbalance = %v", ps.Imbalance)
	}
}
