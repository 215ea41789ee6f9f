//go:build batchdebug

package trace

import "cptraffic/internal/cp"

// Batch poison mode: the runtime check of Batch's reuse contract.
// Reset scribbles sentinels over the full column capacity, so
// a consumer that held on to a column view past its callback observes
// values no generator produces — loudly, at the first reuse — instead
// of silently reading the next batch's events. The shipped build
// compiles the no-op in batchdebug_off.go; this file exists only under
// `go test -tags batchdebug`.

// Sentinel values outside anything the pipeline emits: timestamps are
// non-negative, UE ids are dense from zero, and event types are small
// enums.
const (
	PoisonMillis cp.Millis    = -0x7ead_beef
	PoisonUE     cp.UEID      = 0xdead_beef
	PoisonType   cp.EventType = 0xee
)

// poisonBatch overwrites every column slot up to capacity.
func poisonBatch(b *Batch) {
	t := b.T[:cap(b.T)]
	for i := range t {
		t[i] = PoisonMillis
	}
	u := b.UE[:cap(b.UE)]
	for i := range u {
		u[i] = PoisonUE
	}
	k := b.Type[:cap(b.Type)]
	for i := range k {
		k[i] = PoisonType
	}
}
