package trace

import (
	"fmt"

	"cptraffic/internal/cp"
)

// UEShard assigns a UE to one of shards buckets by a fixed,
// platform-independent hash of its ID. The function is part of the
// sharded-fit contract (partialfit/1): every process that partitions a
// population must agree on the assignment forever, so the hash is
// pinned here (a SplitMix64 finalizer round over the UE ID) and must
// never change. It panics if shards < 1.
func UEShard(ue cp.UEID, shards int) int {
	if shards < 1 {
		panic("trace: UEShard needs shards >= 1")
	}
	z := uint64(ue) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(shards))
}

// shardSource filters an EventSource down to the UEs of one hash shard.
type shardSource struct {
	src    EventSource
	shards int
	shard  int
}

// ShardSource returns a view of src restricted to the UEs with
// UEShard(ue, shards) == shard: registrations and events for other UEs
// are dropped, relative order is preserved, so the result is itself a
// valid EventSource over a disjoint sub-population. The shards views
// for shard = 0..shards-1 partition src exactly. It errors if shards <
// 1 or shard is out of range; shards == 1 returns src unchanged.
func ShardSource(src EventSource, shards, shard int) (EventSource, error) {
	if shards < 1 {
		return nil, fmt.Errorf("trace: ShardSource needs shards >= 1, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("trace: shard %d out of range [0, %d)", shard, shards)
	}
	if shards == 1 {
		return src, nil
	}
	return &shardSource{src: src, shards: shards, shard: shard}, nil
}

// Devices implements EventSource: the underlying registrations with
// other shards' UEs filtered out (order preserved).
func (s *shardSource) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	return s.src.Devices(func(ue cp.UEID, d cp.DeviceType) error {
		if UEShard(ue, s.shards) != s.shard {
			return nil
		}
		return fn(ue, d)
	})
}

// ScanBatches implements EventSource: each delivered batch filtered into
// the shard's own reused batch, other shards' UEs dropped (canonical order
// preserved — dropping events cannot reorder the survivors). A batch with
// no survivor is not delivered.
func (s *shardSource) ScanBatches(fn func(*Batch) error) error {
	out := NewBatch(DefaultBatchSize)
	return s.src.ScanBatches(func(b *Batch) error {
		out.Reset()
		for i, ue := range b.UE {
			if UEShard(ue, s.shards) == s.shard {
				out.Append(b.At(i))
			}
		}
		if out.Len() == 0 {
			return nil
		}
		return fn(out)
	})
}
