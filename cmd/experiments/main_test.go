package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"cptraffic/internal/experiments"
)

// pinnedOutputDigest is the sha256 of every registry experiment rendered
// in presentation order on digestConfig. It was recorded before the
// shape metrics were folded into the computations their tables render,
// so the output of that refactor, and of any change after it that means
// to keep the tables as they are, is held to the bytes, not to a copy
// of the code that makes them.
const pinnedOutputDigest = "dfeaa0e0bad8451b2847b9df5cd48e160c1d41b80df26248e9655eefd6432c91"

// digestConfig is a small lab: every experiment has the data it needs
// (abl-res wants 100 CONNECTED sojourns, abl-theta θn/2 >= 2), and the
// whole suite renders in a few seconds.
var digestConfig = experiments.Config{
	TrainUEs:     200,
	Days:         1,
	Scenario1UEs: 200,
	Scenario2UEs: 1000,
	BusyHour:     18,
	ThetaN:       20,
	Seed:         11,
}

// TestOutputDigestPinned renders every experiment of the registry, in
// order, and compares the digest of the whole output with the pinned one.
func TestOutputDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64, running on %s", runtime.GOARCH)
	}
	if len(order) != len(registry) {
		t.Fatalf("order lists %d experiments, the registry %d", len(order), len(registry))
	}
	lab := experiments.NewLab(digestConfig)
	h := sha256.New()
	for _, name := range order {
		if err := registry[name](lab, h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedOutputDigest {
		t.Errorf("experiments output digest %s, pinned %s", got, pinnedOutputDigest)
	}
}
