//go:build !batchdebug

package trace

// The shipped build: Reset truncates without touching the column
// bytes. Keeping poisonBatch a no-op here (rather than gating the call
// site) keeps Reset's body identical in both builds; the compiler
// erases the empty call.

func poisonBatch(*Batch) {}
