//go:build !batchdebug

package trace

import (
	"testing"

	"cptraffic/internal/cp"
)

// TestResetDoesNotScribble pins that the shipped build pays nothing
// for the batchdebug counterpart: Reset only truncates, so the column
// bytes (observable through a retained view, which Batch's contract
// forbids in production code but tests may take) are untouched.
func TestResetDoesNotScribble(t *testing.T) {
	b := NewBatch(4)
	for i := 0; i < 4; i++ {
		b.Append(Event{T: cp.Millis(10 + i), UE: cp.UEID(i), Type: cp.EventType(1)})
	}
	colT := b.T
	b.Reset()
	for i := range colT {
		if colT[i] != cp.Millis(10+i) {
			t.Fatalf("shipped Reset scribbled slot %d: got %d", i, colT[i])
		}
	}
}
