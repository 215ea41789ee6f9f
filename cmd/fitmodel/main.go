// Command fitmodel estimates a control-plane traffic model from a trace:
// the paper's two-level semi-Markov method ("ours") or any of the
// comparison methods of Table 3 ("base", "v1", "v2").
//
// Usage:
//
//	fitmodel -method ours -thetan 100 -i world.trace -o model.json
//	worldgen ... | fitmodel -i - -o model.json
//
// Sharded fits split the UE population by hash so each worker fits a
// disjoint slice; merging the partials reproduces the unsharded model
// byte-for-byte, whatever the merge order (see PARTIALFIT.md):
//
//	fitmodel -shards 4 -shard 0 -i big.trace -partial part-0.json   # × 4
//	fitmodel -merge part-0.json,part-1.json,part-2.json,part-3.json -o model.json
//
// Long fits can checkpoint and resume; the resumed model is identical
// to an uninterrupted one:
//
//	fitmodel -i big.trace -checkpoint-every 1e6 -partial ckpt.json -o model.json
//	fitmodel -resume ckpt.json -i big.trace -o model.json
//
// There is one driver for all of them. A trace file is scanned
// incrementally, never loaded, so peak memory is bounded by the retained
// samples rather than the event list; -sketch k bounds the retained
// samples too (mergeable quantile sketches; the model then differs from
// the exact one within a documented quantile error). Two inputs are held
// in memory instead, sorted, and give the model the streamed fit of the
// canonical file would: stdin (-i -), which cannot be opened twice, and a
// file whose events are not in canonical (time, UE, type) order — a
// time-sorted export with its ties in another order, say — which the
// driver notices from the scan's error and reports on stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cptraffic/internal/baseline"
	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/prof"
	"cptraffic/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fitmodel: ")
	var (
		in      = flag.String("i", "-", "input trace ('-' for stdin)")
		out     = flag.String("o", "-", "output model JSON ('-' for stdout)")
		method  = flag.String("method", "ours", "modeling method: "+strings.Join(baseline.Methods, " | "))
		thetaN  = flag.Int("thetan", 100, "adaptive clustering θn (min cluster size)")
		thetaF  = flag.Float64("thetaf", 5, "adaptive clustering θf (feature similarity)")
		workers = flag.Int("workers", 0, "fitting worker count (0 = all CPUs); never changes the model")
		sketch  = flag.Int("sketch", 0, "bound every sample pool to a k-item mergeable sketch (0 = exact)")
		shards  = flag.Int("shards", 1, "split the UE population into this many hash shards")
		shard   = flag.Int("shard", 0, "fit this shard (0-based; requires -shards > 1)")
		partial = flag.String("partial", "", "write the partial-fit state (partialfit/1) here instead of building a model")
		merge   = flag.String("merge", "", "comma-separated partial-fit files to merge and build")
		resume  = flag.String("resume", "", "resume from this partial-fit checkpoint (options come from the checkpoint)")
		ckptEv  = flag.Float64("checkpoint-every", 0, "checkpoint to -partial every N consumed events")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	co := cluster.Options{
		ThetaF: cluster.Features{*thetaF, *thetaF, *thetaF, *thetaF},
		ThetaN: *thetaN,
	}
	opt, err := baseline.Options(*method, co)
	if err != nil {
		log.Fatal(err)
	}
	opt.Workers = *workers
	opt.SketchK = *sketch

	if *merge != "" {
		mergePartials(strings.Split(*merge, ","), *out)
		return
	}
	every := int64(*ckptEv)
	if every > 0 && *partial == "" {
		log.Fatal("-checkpoint-every needs -partial to know where to write checkpoints")
	}

	var pf *core.PartialFit
	var checkpoint func(int64) error
	if every > 0 {
		checkpoint = func(consumed int64) error {
			if err := writePartial(pf, *partial); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "fitmodel: checkpointed %s at %d events\n", *partial, consumed)
			return nil
		}
	}
	// ingest feeds one whole source (this run's shard of it) to a new
	// partial fit: an empty one, or -resume's checkpoint.
	ingest := func(src trace.EventSource) error {
		pf = newFit(opt, *resume)
		if *shards > 1 {
			var err error
			if src, err = trace.ShardSource(src, *shards, *shard); err != nil {
				return err
			}
		}
		return pf.AddSourceWithCheckpoints(src, every, checkpoint)
	}

	var src trace.EventSource
	if *in == "-" {
		src, err = readSorted(*in)
	} else {
		src, err = trace.NewFileSource(*in)
	}
	if err != nil {
		log.Fatal(err)
	}
	if every > 0 {
		// A checkpoint taken while streaming a file that later proves
		// unsorted holds the file's first n events, and the refit or a
		// -resume would skip the sorted trace's first n instead: learn
		// the order before writing one.
		err = src.ScanBatches(func(*trace.Batch) error { return nil })
	}
	if err == nil {
		err = ingest(src)
	}
	if errors.Is(err, trace.ErrNotCanonical) {
		fmt.Fprintf(os.Stderr, "fitmodel: %v; refitting from the trace sorted in memory\n", err)
		if src, err = readSorted(*in); err == nil {
			err = ingest(src)
		}
	}
	if err != nil {
		log.Fatal(err)
	}

	if *partial != "" {
		if err := writePartial(pf, *partial); err != nil {
			log.Fatal(err)
		}
		if *out == "-" {
			// Partial-only run: the state is persisted, nothing is built.
			fmt.Fprintf(os.Stderr, "fitmodel: wrote partial fit %s (%d UEs, %d events)\n",
				*partial, pf.NumUEs(), pf.EventsConsumed())
			return
		}
	}
	nUEs, nEvents := pf.NumUEs(), pf.EventsConsumed()
	ms, err := pf.Build()
	if err != nil {
		log.Fatal(err)
	}
	saveModel(ms, *out)
	fmt.Fprintf(os.Stderr, "fitmodel: method=%s machine=%s models=%d (from %d UEs, %d events)\n",
		ms.Method, ms.MachineName, ms.NumModels(), nUEs, nEvents)
}

// newFit returns the partial fit a source is fed to: a fresh one, or the
// checkpoint at resume, whose own options replace opt.
func newFit(opt core.FitOptions, resume string) *core.PartialFit {
	if resume == "" {
		pf, err := core.NewPartialFit(opt)
		if err != nil {
			log.Fatal(err)
		}
		return pf
	}
	f, err := os.Open(resume)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	pf, err := core.DecodePartial(f)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "fitmodel: resuming after %d consumed events (%d UEs)\n",
		pf.EventsConsumed(), pf.NumUEs())
	return pf
}

// readSorted loads the whole trace at path ('-' for stdin) and puts it in
// canonical order, whatever order it was written in.
func readSorted(path string) (*trace.Trace, error) {
	tr, err := trace.ReadPath(path)
	if err != nil {
		return nil, err
	}
	tr.Sort()
	return tr, nil
}

// mergePartials loads the named partial fits, merges them, and writes
// the built model. The CLI fitting flags are ignored: the partials
// carry their own options and must agree among themselves.
func mergePartials(paths []string, out string) {
	var root *core.PartialFit
	for _, p := range paths {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			log.Fatal(err)
		}
		pf, err := core.DecodePartial(f)
		f.Close()
		if err != nil {
			log.Fatalf("%s: %v", p, err)
		}
		if root == nil {
			root = pf
			continue
		}
		if err := root.Merge(pf); err != nil {
			log.Fatalf("%s: %v", p, err)
		}
	}
	if root == nil {
		log.Fatal("-merge needs at least one partial-fit file")
	}
	nUEs := root.NumUEs()
	ms, err := root.Build()
	if err != nil {
		log.Fatal(err)
	}
	saveModel(ms, out)
	fmt.Fprintf(os.Stderr, "fitmodel: method=%s machine=%s models=%d (merged %d partials, %d UEs)\n",
		ms.Method, ms.MachineName, ms.NumModels(), len(paths), nUEs)
}

// writePartial encodes pf to path atomically (temp file, fsync, rename),
// so neither a kill nor a host crash mid-checkpoint leaves a truncated
// checkpoint behind, and a failed write leaves the previous checkpoint
// and no temp file.
func writePartial(pf *core.PartialFit, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = pf.Encode(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

func saveModel(ms *core.ModelSet, out string) {
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		w = f
	}
	if err := ms.Save(w); err != nil {
		log.Fatal(err)
	}
}
