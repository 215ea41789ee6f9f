package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/world"
)

// TestWritePartialSurvivesFullDisk writes a checkpoint over a previous
// one through a temporary file that is a link to /dev/full, where every
// write fails with ENOSPC: writePartial must return that error, leave the
// previous checkpoint byte-identical and leave no temporary file behind;
// so must a rename that fails.
func TestWritePartialSurvivesFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	tr, err := world.Generate(world.Options{NumUEs: 20, Duration: 2 * cp.Hour, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := core.NewPartialFit(core.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.AddSource(tr); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fit.partial")
	if err := writePartial(pf, path); err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(prev) == 0 {
		t.Fatal("the first checkpoint is empty")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a written checkpoint leaves its temporary file: %v", err)
	}

	if err := os.Symlink("/dev/full", path+".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := writePartial(pf, path); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("writing to a full disk returned %v, want ENOSPC", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, prev) {
		t.Fatalf("the previous checkpoint changed: %d B, was %d B", len(got), len(prev))
	}
	if _, err := os.Lstat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed checkpoint leaves its temporary file: %v", err)
	}

	// A rename that fails — here onto a directory — leaves no temporary
	// file either.
	dir := filepath.Join(t.TempDir(), "dir.partial")
	if err := os.MkdirAll(filepath.Join(dir, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writePartial(pf, dir); err == nil {
		t.Fatal("a checkpoint renamed onto a directory returned no error")
	}
	if _, err := os.Lstat(dir + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed rename leaves its temporary file: %v", err)
	}
}
