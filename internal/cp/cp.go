// Package cp defines the shared control-plane vocabulary of the cellular
// network: control event types, UE protocol states, device types, and the
// millisecond time base used throughout the library.
//
// The definitions follow 3GPP TS 23.401 (LTE / EPS) and TS 23.501/23.502
// (5G) as summarized in the IMC'23 paper "Modeling and Generating
// Control-Plane Traffic for Cellular Networks".
package cp

import "fmt"

// Millis is the time base of the library: milliseconds since the start of
// the trace epoch. The paper's carrier trace has millisecond granularity,
// so nothing finer is needed, and int64 milliseconds cover ±292 million
// years — enough for any trace.
type Millis int64

// Common durations expressed in the Millis time base.
const (
	Second Millis = 1000
	Minute Millis = 60 * Second
	Hour   Millis = 60 * Minute
	Day    Millis = 24 * Hour
	Week   Millis = 7 * Day
)

// Seconds converts a duration in Millis to floating-point seconds.
func (m Millis) Seconds() float64 { return float64(m) / float64(Second) }

// MillisFromSeconds converts floating-point seconds to Millis, rounding to
// the nearest millisecond.
func MillisFromSeconds(s float64) Millis {
	if s < 0 {
		return Millis(s*1000 - 0.5)
	}
	return Millis(s*1000 + 0.5)
}

// HourOfDay returns the hour-of-day bucket (0..23) for a timestamp.
func (m Millis) HourOfDay() int {
	h := int((m / Hour) % 24)
	if h < 0 {
		h += 24
	}
	return h
}

// HourIndex returns the absolute hour index since the epoch. Negative
// timestamps land in negative hour indices.
func (m Millis) HourIndex() int {
	h := m / Hour
	if m < 0 && m%Hour != 0 {
		h--
	}
	return int(h)
}

// EventType enumerates the six primary LTE control-plane event types
// exchanged among UE, RAN and the mobile core network (paper Table 1).
type EventType uint8

const (
	// Attach registers the UE with the mobile core network (power-on).
	Attach EventType = iota
	// Detach deregisters the UE from the core (power-off).
	Detach
	// ServiceRequest creates a signaling connection so the UE can send or
	// receive signaling messages or data (IDLE -> CONNECTED).
	ServiceRequest
	// S1ConnRelease releases the signaling connection and associated
	// data-plane resources (CONNECTED -> IDLE).
	S1ConnRelease
	// Handover switches the UE from its current serving cell to another
	// cell; it only occurs while the UE is CONNECTED.
	Handover
	// TrackingAreaUpdate updates the UE's tracking area; it can occur in
	// both CONNECTED and IDLE.
	TrackingAreaUpdate

	numEventTypes = iota
)

// NumEventTypes is the number of distinct LTE control-plane event types.
const NumEventTypes = int(numEventTypes)

// EventTypes lists all LTE event types in canonical (Table 1) order.
var EventTypes = [NumEventTypes]EventType{
	Attach, Detach, ServiceRequest, S1ConnRelease, Handover, TrackingAreaUpdate,
}

var eventTypeNames = [NumEventTypes]string{
	"ATCH", "DTCH", "SRV_REQ", "S1_CONN_REL", "HO", "TAU",
}

// String returns the paper's abbreviation for the event type, e.g.
// "SRV_REQ" for ServiceRequest.
func (e EventType) String() string {
	if int(e) >= len(eventTypeNames) {
		return fmt.Sprintf("EventType(%d)", uint8(e))
	}
	return eventTypeNames[e]
}

// Valid reports whether e is one of the defined LTE event types.
func (e EventType) Valid() bool { return int(e) < NumEventTypes }

// ParseEventType parses the abbreviation produced by String.
func ParseEventType(s string) (EventType, error) {
	for i, n := range eventTypeNames {
		if n == s {
			return EventType(i), nil
		}
	}
	return 0, fmt.Errorf("cp: unknown event type %q", s)
}

// FiveGName returns the 5G SA (standalone) name for the event per the
// paper's Table 2 mapping. TrackingAreaUpdate has no 5G SA counterpart and
// maps to "-"; ok is false in that case.
func (e EventType) FiveGName() (name string, ok bool) {
	switch e {
	case Attach:
		return "REGISTER", true
	case Detach:
		return "DEREGISTER", true
	case ServiceRequest:
		return "SRV_REQ", true
	case S1ConnRelease:
		return "AN_REL", true
	case Handover:
		return "HO", true
	case TrackingAreaUpdate:
		return "-", false
	}
	return "", false
}

// DeviceType enumerates the three primary device categories in the paper's
// trace collection, derived from the Type Allocation Code of the IMEI.
type DeviceType uint8

const (
	// Phone devices (smartphones).
	Phone DeviceType = iota
	// ConnectedCar devices (vehicular modems).
	ConnectedCar
	// Tablet devices.
	Tablet

	numDeviceTypes = iota
)

// NumDeviceTypes is the number of distinct device types.
const NumDeviceTypes = int(numDeviceTypes)

// DeviceTypes lists all device types in canonical order.
var DeviceTypes = [NumDeviceTypes]DeviceType{Phone, ConnectedCar, Tablet}

var deviceTypeNames = [NumDeviceTypes]string{"phone", "car", "tablet"}

// String returns a short lowercase name ("phone", "car", "tablet").
func (d DeviceType) String() string {
	if int(d) >= len(deviceTypeNames) {
		return fmt.Sprintf("DeviceType(%d)", uint8(d))
	}
	return deviceTypeNames[d]
}

// Valid reports whether d is one of the defined device types.
func (d DeviceType) Valid() bool { return int(d) < NumDeviceTypes }

// ParseDeviceType parses the name produced by String.
func ParseDeviceType(s string) (DeviceType, error) {
	for i, n := range deviceTypeNames {
		if n == s {
			return DeviceType(i), nil
		}
	}
	return 0, fmt.Errorf("cp: unknown device type %q", s)
}

// UEID identifies a single User Equipment within a trace. Every generated
// event is labeled with its originating UE (design goal "Event-Owner
// Labeling" in §3.2 of the paper).
type UEID uint32

// UEState enumerates the four coarse protocol states a UE occupies when
// the EMM and ECM machines are merged (paper §4.1: REGISTERED,
// DEREGISTERED, CONNECTED, IDLE; a registered UE is always either
// CONNECTED or IDLE, so the merged machine has three reachable states and
// the REGISTERED macro-state is the union of CONNECTED and IDLE).
type UEState uint8

const (
	// StateDeregistered corresponds to EMM_DEREGISTERED.
	StateDeregistered UEState = iota
	// StateConnected corresponds to EMM_REGISTERED + ECM_CONNECTED.
	StateConnected
	// StateIdle corresponds to EMM_REGISTERED + ECM_IDLE.
	StateIdle

	numUEStates = iota
)

// NumUEStates is the number of merged EMM-ECM states.
const NumUEStates = int(numUEStates)

var ueStateNames = [NumUEStates]string{"DEREGISTERED", "CONNECTED", "IDLE"}

// String returns the paper's name for the merged state.
func (s UEState) String() string {
	if int(s) < len(ueStateNames) {
		return ueStateNames[s]
	}
	return fmt.Sprintf("UEState(%d)", uint8(s))
}

// Registered reports whether the merged state implies EMM_REGISTERED.
func (s UEState) Registered() bool { return s == StateConnected || s == StateIdle }
