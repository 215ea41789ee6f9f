package cptraffic_test

import (
	"bytes"
	"reflect"
	"testing"

	"cptraffic/internal/baseline"
	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// overwritingSource passes src's batches on as copies in a batch of its
// own, and overwrites every slot of that batch, up to its capacity, as
// soon as the callback returns. A consumer that keeps a batch or a
// column view past its callback, and reads it at a later callback or
// after the scan, reads the overwritten slots. Sources that reuse one
// batch leave the last one intact after the scan, so only this source
// shows a consumer that reads the last batch then.
type overwritingSource struct{ src trace.EventSource }

func (s overwritingSource) Devices(fn func(cp.UEID, cp.DeviceType) error) error {
	return s.src.Devices(fn)
}

func (s overwritingSource) ScanBatches(fn func(*trace.Batch) error) error {
	var own trace.Batch
	return s.src.ScanBatches(func(b *trace.Batch) error {
		own.T = append(own.T[:0], b.T...)
		own.UE = append(own.UE[:0], b.UE...)
		own.Type = append(own.Type[:0], b.Type...)
		err := fn(&own)
		overwrite(&own)
		return err
	})
}

// overwrite fills b's columns to capacity with values no source
// delivers: a negative time, an unregistered UE and an undefined type.
func overwrite(b *trace.Batch) {
	for i, ts := 0, b.T[:cap(b.T)]; i < len(ts); i++ {
		ts[i] = -0x7ead_beef
	}
	for i, ues := 0, b.UE[:cap(b.UE)]; i < len(ues); i++ {
		ues[i] = 0xdead_beef
	}
	for i, types := 0, b.Type[:cap(b.Type)]; i < len(types); i++ {
		types[i] = 0xee
	}
}

// TestBatchConsumersCopy holds every production consumer of a reused
// trace.Batch to the copy contract: fed through overwritingSource, each
// gives what it gives from the plain source — the same model bytes,
// collection, trace or file bytes.
func TestBatchConsumersCopy(t *testing.T) {
	// Two days, so that a span read from an overwritten batch changes
	// the day count.
	tr, err := world.Generate(world.Options{NumUEs: 80, Duration: 26 * cp.Hour, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	fit := func(method string) func(trace.EventSource) (any, error) {
		return func(src trace.EventSource) (any, error) {
			opt, err := baseline.Options(method, cluster.Options{ThetaN: 20})
			if err != nil {
				return nil, err
			}
			ms, err := core.Fit(src, opt)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			err = ms.Save(&buf)
			return buf.Bytes(), err
		}
	}
	// WriteSource is CopyBatches into a StreamWriter or a TextWriter.
	write := func(binary bool) func(trace.EventSource) (any, error) {
		return func(src trace.EventSource) (any, error) {
			var buf bytes.Buffer
			_, _, err := trace.WriteSource(&buf, src, binary)
			return buf.Bytes(), err
		}
	}
	consumers := []struct {
		name string
		run  func(trace.EventSource) (any, error)
	}{
		{"PartialFit.AddSource/ours", fit("ours")},
		{"PartialFit.AddSource/base", fit("base")},
		{"eval.Collect", func(src trace.EventSource) (any, error) { return eval.Collect(src) }},
		{"CopyBatches/Trace", func(src trace.EventSource) (any, error) { return trace.Collect(src) }},
		{"WriteSource/StreamWriter", write(true)},
		{"WriteSource/TextWriter", write(false)},
		{"ShardSource", func(src trace.EventSource) (any, error) {
			shard, err := trace.ShardSource(src, 3, 1)
			if err != nil {
				return nil, err
			}
			return trace.Collect(shard)
		}},
	}
	for _, c := range consumers {
		t.Run(c.name, func(t *testing.T) {
			want, err := c.run(tr)
			if err != nil {
				t.Fatalf("plain source: %v", err)
			}
			got, err := c.run(overwritingSource{tr})
			if err != nil {
				t.Fatalf("overwriting source: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("the overwriting source changed the result: the consumer read a batch after its callback")
			}
		})
	}
}
