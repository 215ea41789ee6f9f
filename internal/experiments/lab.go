// Package experiments reproduces every table and figure of the paper's
// evaluation on the world-simulator substrate. Each experiment renders
// the same rows/series the paper reports; the per-experiment index lives
// in DESIGN.md and measured-vs-paper numbers in EXPERIMENTS.md. Where a
// shape test holds an experiment, one unexported function computes the
// numbers its table prints; the exported renderer formats that result,
// and the test reads the same result.
//
// All experiments run at a configurable scale. Absolute numbers differ
// from the paper (its substrate was a production carrier trace; ours is
// the behavioral simulator), but the shapes — who wins, by what rough
// factor, which failure modes appear — are the reproduction targets.
package experiments

import (
	"fmt"
	"sync"

	"cptraffic/internal/baseline"
	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/cp"
	"cptraffic/internal/eval"
	"cptraffic/internal/trace"
	"cptraffic/internal/world"
)

// Config scales the experiment suite.
type Config struct {
	// TrainUEs is the training population (the paper's 37,325).
	TrainUEs int
	// Days is the training trace length in days (the paper's 7).
	Days int
	// Scenario1UEs and Scenario2UEs are the validation population sizes
	// (the paper's 38,000 and 380,000 — about 1x and 10x training).
	Scenario1UEs int
	Scenario2UEs int
	// BusyHour is the validation hour-of-day (the paper validates "one
	// of the busy hours").
	BusyHour int
	// ThetaN is the adaptive-clustering small-cluster threshold, scaled
	// to the population (the paper's 1000 for 37K UEs).
	ThetaN int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds the concurrency of every pipeline stage (world
	// simulation, fitting, generation, pass-rate sweeps); 0 means
	// GOMAXPROCS. Results are identical for any value.
	Workers int
}

// DefaultConfig returns a laptop-scale configuration: ~1/50 of the
// paper's population with proportionally scaled clustering thresholds
// (pass -scale to cmd/experiments to grow it).
func DefaultConfig() Config {
	return Config{
		TrainUEs:     800,
		Days:         2,
		Scenario1UEs: 800,
		Scenario2UEs: 8000,
		BusyHour:     18,
		ThetaN:       30,
		Seed:         2023,
	}
}

// Lab lazily builds and caches the shared fixtures: the training world,
// the validation worlds, the four fitted models, and the per-UE
// collection of every trace an experiment reads through eval.
type Lab struct {
	Cfg Config

	mu     sync.Mutex
	train  *trace.Trace              // guarded by mu
	realS1 *trace.Trace              // guarded by mu
	realS2 *trace.Trace              // guarded by mu
	models map[string]*core.ModelSet // guarded by mu
	genS1  map[string]*trace.Trace   // guarded by mu
	genS2  map[string]*trace.Trace   // guarded by mu

	collections map[*trace.Trace]*eval.Collection // guarded by mu
}

// NewLab returns an empty lab for the configuration.
func NewLab(cfg Config) *Lab {
	return &Lab{Cfg: cfg, genS1: map[string]*trace.Trace{}, genS2: map[string]*trace.Trace{},
		collections: map[*trace.Trace]*eval.Collection{}}
}

// ClusterOptions returns the scaled adaptive-clustering options.
func (l *Lab) ClusterOptions() cluster.Options {
	return cluster.Options{ThetaN: l.Cfg.ThetaN}
}

// Train returns the multi-day training trace (the stand-in for the
// paper's one-week carrier collection).
func (l *Lab) Train() (*trace.Trace, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.train == nil {
		tr, err := world.Generate(world.Options{
			NumUEs:   l.Cfg.TrainUEs,
			Duration: cp.Millis(l.Cfg.Days) * cp.Day,
			Seed:     l.Cfg.Seed,
			Workers:  l.Cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		l.train = tr
	}
	return l.train, nil
}

// RealScenario returns the held-out "real" validation trace for scenario
// 1 or 2: an independent world draw for the scenario's population,
// restricted to the busy hour.
func (l *Lab) RealScenario(n int) (*trace.Trace, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cached := &l.realS1
	ues := l.Cfg.Scenario1UEs
	seed := l.Cfg.Seed + 101
	if n == 2 {
		cached = &l.realS2
		ues = l.Cfg.Scenario2UEs
		seed = l.Cfg.Seed + 202
	}
	if *cached == nil {
		// Warm-start two hours before the busy hour: enough for the
		// session/burst dynamics to mix, at a fraction of the cost of
		// simulating from midnight.
		warmup := cp.Millis(2) * cp.Hour
		h := cp.Millis(l.Cfg.BusyHour) * cp.Hour
		full, err := world.Generate(world.Options{
			NumUEs:   ues,
			Duration: warmup + cp.Hour,
			Offset:   h - warmup,
			Seed:     seed,
			Workers:  l.Cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		*cached = full.Slice(h, h+cp.Hour)
	}
	return *cached, nil
}

// collect returns (and caches) the collection of one of the lab's
// traces, so each trace is collected once however many tables read it.
func (l *Lab) collect(tr *trace.Trace) (*eval.Collection, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if col, ok := l.collections[tr]; ok {
		return col, nil
	}
	col, err := eval.Collect(tr)
	if err != nil {
		return nil, err
	}
	l.collections[tr] = col
	return col, nil
}

// trainCollection, realCollection and generatedCollection are the
// collections of Train, RealScenario and Generated.
func (l *Lab) trainCollection() (*eval.Collection, error) {
	tr, err := l.Train()
	if err != nil {
		return nil, err
	}
	return l.collect(tr)
}

func (l *Lab) realCollection(scenario int) (*eval.Collection, error) {
	tr, err := l.RealScenario(scenario)
	if err != nil {
		return nil, err
	}
	return l.collect(tr)
}

func (l *Lab) generatedCollection(method string, scenario int) (*eval.Collection, error) {
	tr, err := l.Generated(method, scenario)
	if err != nil {
		return nil, err
	}
	return l.collect(tr)
}

// Models fits (once) and returns the four Table 3 methods on the
// training trace.
func (l *Lab) Models() (map[string]*core.ModelSet, error) {
	if _, err := l.Train(); err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.models == nil {
		ms, err := baseline.FitAll(l.train, cluster.Options{ThetaN: l.Cfg.ThetaN}, l.Cfg.Workers)
		if err != nil {
			return nil, err
		}
		l.models = ms
	}
	return l.models, nil
}

// Generated returns (and caches) the synthesized busy-hour trace of one
// method for scenario 1 or 2.
func (l *Lab) Generated(method string, scenario int) (*trace.Trace, error) {
	models, err := l.Models()
	if err != nil {
		return nil, err
	}
	ms, ok := models[method]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown method %q", method)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	cache := l.genS1
	ues := l.Cfg.Scenario1UEs
	if scenario == 2 {
		cache = l.genS2
		ues = l.Cfg.Scenario2UEs
	}
	if tr, ok := cache[method]; ok {
		return tr, nil
	}
	tr, err := core.Generate(ms, core.GenOptions{
		NumUEs:    ues,
		StartHour: l.Cfg.BusyHour,
		Duration:  cp.Hour,
		Seed:      l.Cfg.Seed + 999 + uint64(scenario),
		Workers:   l.Cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	cache[method] = tr
	return tr, nil
}
