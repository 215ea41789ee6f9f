package mcn

import (
	"fmt"

	"cptraffic/internal/cp"
)

// FaultKind enumerates the injectable control-plane fault classes of the
// signaling-storm suite. Each models a failure mode carriers dimension
// against (the inverse of paper §3.1's healthy-core sizing question):
// degraded NF capacity, total NF loss, aggressive client retries, and
// synchronized re-registration waves.
type FaultKind uint8

const (
	// FaultSlowdown divides one NF's service rate by Factor for the
	// window: an overloaded or degraded function (GC pauses, a failed
	// instance out of a pool, a database hot spot).
	FaultSlowdown FaultKind = iota
	// FaultOutage sets one NF's service rate to zero for the window.
	// Arriving transactions queue (up to the storm config's queue bound,
	// then drop) and drain when the window ends — the recovery avalanche.
	FaultOutage
	// FaultRetryStorm divides the client retry timeout at one NF by
	// Factor for the window: impatient re-sends that multiply offered
	// load exactly when the function is slowest, the classic signaling
	// storm amplifier.
	FaultRetryStorm
	// FaultMassReattach injects Fraction of the UE population as a wave
	// of extra ATCH events spread uniformly over the window: a regional
	// radio outage healing, a stadium emptying, or an IoT fleet waking
	// for a synchronized firmware check-in.
	FaultMassReattach

	numFaultKinds = iota
)

// NumFaultKinds is the number of fault classes.
const NumFaultKinds = int(numFaultKinds)

var faultKindNames = [NumFaultKinds]string{
	"slowdown", "outage", "retry_storm", "mass_reattach",
}

// String returns the scenario-file spelling of the kind.
func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// ParseFaultKind parses the scenario-file spelling produced by String.
func ParseFaultKind(s string) (FaultKind, error) {
	for i, n := range faultKindNames {
		if n == s {
			return FaultKind(i), nil
		}
	}
	return 0, fmt.Errorf("mcn: unknown fault kind %q", s)
}

// ParseNF parses the 3GPP abbreviation produced by NF.String.
func ParseNF(s string) (NF, error) {
	for i, n := range nfNames {
		if n == s {
			return NF(i), nil
		}
	}
	return 0, fmt.Errorf("mcn: unknown network function %q", s)
}

// Fault is one timed fault-schedule entry. Times are absolute trace
// time (the same clock as trace.Event.T), so a schedule travels with
// the trace window it was written for.
type Fault struct {
	Kind FaultKind
	// NF is the targeted function for slowdown / outage / retry_storm;
	// it is ignored by mass_reattach (which hits the whole core through
	// the attach call flow).
	NF NF
	// Start and Duration bound the fault window [Start, Start+Duration).
	Start    cp.Millis
	Duration cp.Millis
	// Factor is the slowdown service-rate divisor or the retry_storm
	// timeout divisor (> 1 makes things worse). Unused by outage and
	// mass_reattach.
	Factor float64
	// Fraction is the share of the UE population that re-attaches in a
	// mass_reattach window. Unused by the other kinds.
	Fraction float64
}

// End returns the exclusive end of the fault window.
func (f Fault) End() cp.Millis { return f.Start + f.Duration }

// Validate checks one schedule entry.
func (f Fault) Validate() error {
	if int(f.Kind) >= NumFaultKinds {
		return fmt.Errorf("mcn: invalid fault kind %d", f.Kind)
	}
	if f.Duration <= 0 {
		return fmt.Errorf("mcn: %s fault needs a positive duration", f.Kind)
	}
	if f.Start < 0 {
		return fmt.Errorf("mcn: %s fault starts before the trace epoch", f.Kind)
	}
	switch f.Kind {
	case FaultSlowdown, FaultRetryStorm:
		if int(f.NF) >= NumNFs {
			return fmt.Errorf("mcn: %s fault targets invalid NF %d", f.Kind, f.NF)
		}
		if f.Factor <= 1 {
			return fmt.Errorf("mcn: %s fault needs factor > 1 (got %g)", f.Kind, f.Factor)
		}
	case FaultOutage:
		if int(f.NF) >= NumNFs {
			return fmt.Errorf("mcn: %s fault targets invalid NF %d", f.Kind, f.NF)
		}
	case FaultMassReattach:
		if f.Fraction <= 0 || f.Fraction > 1 {
			return fmt.Errorf("mcn: mass_reattach fraction must be in (0, 1] (got %g)", f.Fraction)
		}
	default:
		return fmt.Errorf("mcn: invalid fault kind %d", f.Kind)
	}
	return nil
}

// ValidateSchedule checks every entry of a fault schedule.
func ValidateSchedule(faults []Fault) error {
	for i, f := range faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}
