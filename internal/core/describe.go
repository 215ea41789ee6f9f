package core

import (
	"fmt"
	"io"
	"sort"

	"cptraffic/internal/cp"
	"cptraffic/internal/sm"
)

// Describe renders a human-readable summary of a fitted model set: the
// method and machine, per-device cluster/persona statistics, and the
// global-model transition tables with sojourn means — the quickest way
// to sanity-check what a fit learned.
func (ms *ModelSet) Describe(w io.Writer) error {
	machine, err := ms.Machine()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "model: method=%s machine=%s models=%d\n",
		ms.Method, ms.MachineName, ms.NumModels())
	for _, d := range cp.DeviceTypes {
		dm := ms.Device(d)
		if dm == nil {
			continue
		}
		clusters := 0
		for h := range dm.Hours {
			clusters += len(dm.Hours[h].Clusters)
		}
		fmt.Fprintf(w, "\n%s: trained on %d UEs (share %.1f%%), %d personas, %.1f clusters/hour\n",
			d, dm.TrainUEs, 100*dm.Share, len(dm.Personas),
			float64(clusters)/float64(len(dm.Hours)))
		if dm.Global == nil {
			continue
		}
		fmt.Fprintf(w, "  global top level:\n")
		describeStates(w, machine, dm.Global.Top, func(i int) string {
			return cp.UEState(i).String()
		})
		if len(dm.Global.Bottom) > 0 {
			fmt.Fprintf(w, "  global bottom level:\n")
			describeStates(w, machine, dm.Global.Bottom, func(i int) string {
				return machine.StateName(sm.State(i))
			})
		}
		for _, fp := range dm.Global.Free {
			fmt.Fprintf(w, "  free process: %-12s mean inter-arrival %.1f s\n",
				fp.Event, fp.Inter.Mean())
		}
		if dm.Global.First.valid() {
			fmt.Fprintf(w, "  first event: PNone=%.2f, %d categories\n",
				dm.Global.First.PNone, len(dm.Global.First.Cats))
		}
	}
	return nil
}

func describeStates(w io.Writer, machine *sm.Machine, states []StateParam, name func(int) string) {
	idx := make([]int, 0, len(states))
	for i := range states {
		if len(states[i].Out) > 0 {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		sp := states[i]
		fmt.Fprintf(w, "    %-14s", name(i))
		if sp.PExit > 0 {
			fmt.Fprintf(w, " [PExit %.2f]", sp.PExit)
		}
		for _, tp := range sp.Out {
			fmt.Fprintf(w, "  --%s--> p=%.2f mean=%.1fs", tp.Event, tp.P, tp.Sojourn.Mean())
		}
		if sp.Sojourn != nil {
			fmt.Fprintf(w, "  (KM delay mean %.1fs)", sp.Sojourn.Mean())
		}
		fmt.Fprintln(w)
	}
}
