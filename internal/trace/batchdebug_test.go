//go:build batchdebug

package trace

import (
	"testing"

	"cptraffic/internal/cp"
)

// TestResetPoisonsRetainedColumns is the runtime check of Batch's
// reuse contract: a consumer that deliberately keeps a column view
// across Reset — exactly what the contract forbids — reads the poison
// sentinels, not the stale (or worse, silently refreshed) events.
func TestResetPoisonsRetainedColumns(t *testing.T) {
	b := NewBatch(8)
	for i := 0; i < 8; i++ {
		b.Append(Event{T: cp.Millis(i + 1), UE: cp.UEID(i), Type: cp.EventType(1)})
	}

	// The contract violation under test: retain the live columns.
	colT, colUE, colType := b.T, b.UE, b.Type

	b.Reset()

	for i := range colT {
		if colT[i] != PoisonMillis || colUE[i] != PoisonUE || colType[i] != PoisonType {
			t.Fatalf("retained slot %d not poisoned: T=%d UE=%d Type=%d",
				i, colT[i], colUE[i], colType[i])
		}
	}

	// The batch itself stays usable: refilled events read back clean.
	b.Append(Event{T: 42, UE: 7, Type: 2})
	if got := b.At(0); got.T != 42 || got.UE != 7 || got.Type != 2 {
		t.Fatalf("refill after poison read back %+v", got)
	}
}

// TestCopiesSurvivePoison pins that the sanctioned copy idioms are
// unaffected: AppendTo rows and append(col[:0:0], col...) copies hold
// their values across Reset even when the source columns are poisoned.
func TestCopiesSurvivePoison(t *testing.T) {
	b := NewBatch(4)
	for i := 0; i < 4; i++ {
		b.Append(Event{T: cp.Millis(10 + i), UE: cp.UEID(i), Type: cp.EventType(1)})
	}
	rows := b.AppendTo(nil)
	colT := append(b.T[:0:0], b.T...)

	b.Reset()

	for i := range rows {
		if rows[i].T != cp.Millis(10+i) || colT[i] != cp.Millis(10+i) {
			t.Fatalf("copy slot %d corrupted: row T=%d col T=%d", i, rows[i].T, colT[i])
		}
	}
}

// TestAssembleWindowsPoisonsHandedOutBatch holds the windowed assembler to
// the same contract: the batch it hands out is a view of its window
// columns, overwritten once the callback returns, so a view retained from
// one callback reads poison by the next.
func TestAssembleWindowsPoisonsHandedOutBatch(t *testing.T) {
	// 1024 streams with one event each, all in the same millisecond: one
	// window, four batches, nothing in between to refill the columns.
	evs := make([][]Event, 1024)
	for i := range evs {
		evs[i] = []Event{{T: 5, UE: cp.UEID(i), Type: cp.Handover}}
	}
	var retained []cp.Millis
	calls := 0
	err := assembleWindows(func(b *Batch) error {
		if calls++; calls == 2 {
			for i, v := range retained {
				if v != PoisonMillis {
					t.Fatalf("retained slot %d of the first batch reads %d in the second callback, want poison", i, v)
				}
			}
		}
		if b.T[0] == PoisonMillis || b.Len() != DefaultBatchSize {
			t.Fatalf("batch %d arrived with %d events, first T=%d", calls, b.Len(), b.T[0])
		}
		retained = b.T // the contract violation under test
		return nil
	}, newFakeStreams(evs).streams(), 1023, (*fakeStream).drain)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Fatalf("%d batches, want 4", calls)
	}
}
