// Package baseline names the paper's comparison methods (Table 3) and
// fits them side by side. What each method models — its state machine,
// sojourn distribution, free-running events and clustering — is
// core's Table 3, which core.NewPartialFit resolves from the name.
package baseline

import (
	"fmt"
	"slices"
	"strings"

	"cptraffic/internal/cluster"
	"cptraffic/internal/core"
	"cptraffic/internal/trace"
)

// Methods lists the four modeling methods in presentation order.
var Methods = core.Methods()

// Options returns the core.FitOptions for one of the Table 3 methods.
func Options(method string, clusterOpt cluster.Options) (core.FitOptions, error) {
	if !slices.Contains(Methods, method) {
		return core.FitOptions{}, fmt.Errorf("baseline: unknown method %q (want one of %s)", method, strings.Join(Methods, ", "))
	}
	return core.FitOptions{Method: method, Cluster: clusterOpt}, nil
}

// FitAll fits all four methods on the same training trace. workers
// bounds each fit's concurrency (0 means GOMAXPROCS); it never affects
// the fitted models.
func FitAll(tr *trace.Trace, clusterOpt cluster.Options, workers int) (map[string]*core.ModelSet, error) {
	out := make(map[string]*core.ModelSet, len(Methods))
	for _, m := range Methods {
		ms, err := core.Fit(tr, core.FitOptions{Method: m, Cluster: clusterOpt, Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("baseline: fitting %s: %w", m, err)
		}
		out[m] = ms
	}
	return out, nil
}
