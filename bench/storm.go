package main

import (
	"fmt"
	"os"
	"path/filepath"

	"cptraffic/internal/mcn"
	"cptraffic/internal/scenario"
	"cptraffic/internal/trace"
)

// storm is the signaling-storm suite's pipeline on one shipped scenario:
// what cmd/stormsim does for a scenario file.
type storm struct {
	path string
}

// smokeScale is the share of the population set-up runs the generated
// scenario at before any rep is spent on it.
const smokeScale = 0.05

// setup derives the run's scenario file from the shipped one — the seed
// moves with the benchmark's, the population with its scale — and
// smoke-runs it at a twentieth of its population, so a schedule or
// capacity the storm replay rejects fails here and not in a rep. The rep
// then sees only the generated file.
func (w *storm) setup(e *env, rec *recorder, c counts) error {
	w.path = filepath.Join(e.dir, "storm.scenario.json")
	err := rec.call("scenario.Load+Marshal", "scenario", noParent, func() error {
		s, err := scenario.Load(filepath.Join(e.root, "scenarios", "stadium-event.json"))
		if err != nil {
			return err
		}
		s = s.Scaled(e.scale)
		s.Seed += e.seed
		data, err := s.Marshal()
		if err != nil {
			return err
		}
		return os.WriteFile(w.path, data, 0o644)
	})
	if err != nil {
		return err
	}
	return rec.call("smoke run", "scenario", noParent, func() error {
		s, err := scenario.Load(w.path)
		if err != nil {
			return err
		}
		s = s.Scaled(smokeScale)
		tr, err := scenario.Simulate(s, 1)
		if err != nil {
			return err
		}
		_, err = scenario.Storm(s, tr)
		return err
	})
}

func (w *storm) run(r rep) (outcome, error) {
	rec := r.rec
	root := rec.open("storm", "bench", noParent)
	t := rec.enter()
	var (
		s      *scenario.Scenario
		tr     *trace.Trace
		report *mcn.StormReport
	)
	err := rec.call("scenario.Load", "scenario", root, func() (err error) {
		s, err = scenario.Load(w.path)
		return err
	})
	if err == nil {
		err = rec.call("scenario.Simulate", "world.sim", root, func() (err error) {
			tr, err = scenario.Simulate(s, 1)
			return err
		})
	}
	if err == nil {
		err = rec.call("scenario.Storm", "mcn.storm", root, func() (err error) {
			report, err = scenario.Storm(s, tr)
			return err
		})
	}
	if err != nil {
		return outcome{}, err
	}
	writeID := rec.open("StormReport.WriteJSON", "mcn.report", root)
	out := newOutput(r, writeID)
	defer out.sum()
	wt := rec.enter()
	err = report.WriteJSON(out)
	rec.leave(writeID, wt)
	rec.leave(root, t)
	if err != nil {
		return outcome{}, err
	}
	res := outcome{events: int64(tr.Len()), bytes: out.n, root: root, sha: out.sum()}
	if r.audit {
		res.trace = tr
	}
	var transactions, drops, retries int
	for _, nf := range report.PerNF {
		transactions += nf.Transactions
		drops += nf.Drops
		retries += nf.Retries
	}
	r.count("mcn.storm.transactions", float64(transactions))
	r.count("mcn.storm.drops", float64(drops))
	r.count("mcn.storm.retries", float64(retries))
	r.count("mcn.storm.injected_attaches", float64(report.InjectedAttaches))
	return res, nil
}

// check replays the scenario a second time and demands the same report
// bytes: one scenario file plus its seed determines the report.
func (w *storm) check(out *outcome, rec *recorder, c counts) []string {
	var failed []string
	again, err := w.run(rep{audit: true})
	switch {
	case err != nil:
		failed = append(failed, "second replay: "+err.Error())
	case again.sha != out.sha:
		failed = append(failed, fmt.Sprintf("storm determinism: report sha256 %s then %s", out.sha, again.sha))
	}
	return append(failed, checkReplay(out.trace, c)...)
}

// replays has nothing to do: every layer of this pipeline is a public
// call of its own, so the spans already separate them.
func (w *storm) replays(outcome, *recorder, counts) error { return nil }
