package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// fitStream is the read side: a trace file streamed through the
// incremental fitter into a saved model.
type fitStream struct {
	path string
	size int64
	opt  core.FitOptions
}

func (w *fitStream) setup(e *env, rec *recorder, c counts) error {
	var tr *trace.Trace
	err := rec.call("world.Generate", "world.sim", noParent, func() (err error) {
		tr, err = world.Generate(world.Options{NumUEs: e.ues(1500, 150), Duration: 48 * cp.Hour, Seed: e.seed + 3, Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	w.path = filepath.Join(e.dir, "fit_stream.trace")
	err = rec.call("trace.WriteBinaryTrace", "trace.encode", noParent, func() error {
		f, err := os.Create(w.path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteBinaryTrace(f, tr); err != nil {
			return err
		}
		return f.Close()
	})
	if err != nil {
		return err
	}
	st, err := os.Stat(w.path)
	if err != nil {
		return err
	}
	w.size = st.Size()
	w.opt, err = fitOptions(45)
	return err
}

func (w *fitStream) run(r rep) (outcome, error) {
	rec := r.rec
	root := rec.open("fit_stream", "bench", noParent)
	t := rec.enter()
	var (
		src *trace.FileSource
		pf  *core.PartialFit
		ms  *core.ModelSet
	)
	err := rec.call("trace.NewFileSource", "trace.scan", root, func() (err error) {
		src, err = trace.NewFileSource(w.path)
		return err
	})
	if err == nil {
		err = rec.call("core.NewPartialFit", "core.fit.ingest", root, func() (err error) {
			pf, err = core.NewPartialFit(w.opt)
			return err
		})
	}
	if err == nil {
		err = rec.call("PartialFit.AddSource", "core.fit.ingest", root, func() error { return pf.AddSource(src) })
	}
	if err == nil {
		err = rec.call("PartialFit.Build", "core.fit.build", root, func() (err error) {
			ms, err = pf.Build()
			return err
		})
	}
	if err != nil {
		return outcome{}, err
	}
	saveID := rec.open("ModelSet.Save", "core.model.save", root)
	out := newOutput(r, saveID)
	defer out.sum()
	st := rec.enter()
	err = ms.Save(out)
	rec.leave(saveID, st)
	rec.leave(root, t)
	if err != nil {
		return outcome{}, err
	}
	res := outcome{events: pf.EventsConsumed(), bytes: out.n, root: root, sha: out.sum()}
	if r.audit {
		res.model = ms
	}
	r.count("core.fit.models", float64(ms.NumModels()))
	r.count("core.model.bytes", float64(out.n))
	return res, nil
}

// check refits the same file the batch way — trace.Collect then core.Fit
// — and demands the same model bytes, then round-trips the streamed
// model through Save and Load.
func (w *fitStream) check(out *outcome, rec *recorder, c counts) []string {
	src, err := trace.NewFileSource(w.path)
	if err != nil {
		return []string{"NewFileSource (reference): " + err.Error()}
	}
	tr, err := trace.Collect(src)
	if err != nil {
		return []string{"trace.Collect (reference): " + err.Error()}
	}
	var failed []string
	ref, err := core.Fit(tr, w.opt)
	if err != nil {
		failed = append(failed, "core.Fit (reference): "+err.Error())
	} else {
		sha, err := digestOf(func(o *output) error { return ref.Save(o) })
		switch {
		case err != nil:
			failed = append(failed, "reference Save: "+err.Error())
		case sha != out.sha:
			failed = append(failed, fmt.Sprintf("cross-path sha256: streamed fit %s, core.Fit on trace.Collect %s", out.sha, sha))
		}
	}
	var saved bytes.Buffer
	if err := out.model.Save(&saved); err != nil {
		failed = append(failed, "Save: "+err.Error())
	} else if _, err := loadModel(&saved, rec); err != nil {
		failed = append(failed, "Load(Save(model)).Validate: "+err.Error())
	}
	return append(failed, checkReplay(tr, c)...)
}

// replays times the file scan alone — registry, then every event into a
// callback that does nothing. AddSource minus this is the per-UE extract
// and the sample pools.
func (w *fitStream) replays(out outcome, rec *recorder, c counts) error {
	src, err := trace.NewFileSource(w.path)
	if err != nil {
		return err
	}
	scanned := int64(0)
	err = rec.replay("FileSource.Scan", "trace.scan", rec.find("PartialFit.AddSource"), func() error {
		if err := src.Devices(func(cp.UEID, cp.DeviceType) error { return nil }); err != nil {
			return err
		}
		return src.Scan(func(trace.Event) error {
			scanned++
			return nil
		})
	})
	if err != nil {
		return err
	}
	if scanned != out.events {
		return fmt.Errorf("scan replay delivered %d of %d events", scanned, out.events)
	}
	c["trace.scan.mb_per_s"] = float64(w.size) / 1e6 / (float64(rec.spans[rec.find("FileSource.Scan")].Busy) / 1e9)
	return nil
}
