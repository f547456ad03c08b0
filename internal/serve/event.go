package serve

import (
	"fmt"
	"math"

	"eotora/internal/trace"
	"eotora/internal/units"
)

// Kind names one streaming state-update event the daemon can ingest. The
// string values are the wire format of the /v1/events endpoint.
type Kind string

// The event kinds, covering every field of the slot state β_t plus the
// churn and fault masks. Fields not named by a kind are ignored on that
// kind's events.
const (
	// KindPrice sets the slot electricity price p_t ($/MWh) from Value.
	KindPrice Kind = "price"
	// KindDemand sets device Device's task size (Task, cycles) and input
	// data length (Data, bits).
	KindDemand Kind = "demand"
	// KindChannel sets the access-link spectral efficiency between Device
	// and Station to Value; Value 0 puts the pair out of coverage,
	// removing the link.
	KindChannel Kind = "channel"
	// KindFronthaul sets Station's fronthaul spectral efficiency to Value.
	KindFronthaul Kind = "fronthaul"
	// KindDeviceJoin activates Device (churn join).
	KindDeviceJoin Kind = "device-join"
	// KindDeviceLeave deactivates Device (churn leave).
	KindDeviceLeave Kind = "device-leave"
	// KindHandover removes the (Device, Station) channel link, forcing the
	// device off that station (the streaming form of trace.Handover).
	KindHandover Kind = "handover"
	// KindServerAdd re-activates Server (churn server add).
	KindServerAdd Kind = "server-add"
	// KindServerRemove structurally removes Server (churn server remove).
	KindServerRemove Kind = "server-remove"
	// KindServerDown advisorily drains Server (maintenance window; see
	// trace.State.ServerDown).
	KindServerDown Kind = "server-down"
	// KindServerUp clears Server's advisory drain.
	KindServerUp Kind = "server-up"
	// KindCapScale scales Server's effective capacity to Value in (0, 1].
	KindCapScale Kind = "cap-scale"
)

// Event is one streaming state update. The zero indices are valid targets,
// so producers must fill every field their Kind reads; the daemon
// validates ranges and counts (rather than applies) malformed events.
type Event struct {
	// Kind selects the update; see the Kind constants.
	Kind Kind `json:"kind"`
	// Device is the target device index (KindDemand, KindChannel,
	// KindDeviceJoin, KindDeviceLeave, KindHandover).
	Device int `json:"device,omitempty"`
	// Station is the target base-station index (KindChannel,
	// KindFronthaul, KindHandover).
	Station int `json:"station,omitempty"`
	// Server is the target server index (KindServerAdd, KindServerRemove,
	// KindServerDown, KindServerUp, KindCapScale).
	Server int `json:"server,omitempty"`
	// Value carries the scalar payload: price in $/MWh, spectral
	// efficiency in bps/Hz, or the capacity scale in (0, 1].
	Value float64 `json:"value,omitempty"`
	// Task is the device task size in CPU cycles (KindDemand).
	Task float64 `json:"task,omitempty"`
	// Data is the device input data length in bits (KindDemand).
	Data float64 `json:"data,omitempty"`
}

// validate range-checks ev against the daemon's fixed universe. Malformed
// events are shed at apply time, never at ingest time, so the ingest path
// stays a bounds-free append.
func (d *Daemon) validate(ev Event) error {
	devOK := ev.Device >= 0 && ev.Device < d.devices
	staOK := ev.Station >= 0 && ev.Station < d.stations
	srvOK := ev.Server >= 0 && ev.Server < d.servers
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch ev.Kind {
	case KindPrice:
		if !finite(ev.Value) || ev.Value <= 0 {
			return fmt.Errorf("serve: price %v not positive", ev.Value)
		}
	case KindDemand:
		if !devOK {
			return fmt.Errorf("serve: device %d outside universe", ev.Device)
		}
		if !finite(ev.Task) || ev.Task <= 0 || !finite(ev.Data) || ev.Data <= 0 {
			return fmt.Errorf("serve: demand (%v cycles, %v bits) not positive", ev.Task, ev.Data)
		}
	case KindChannel:
		if !devOK || !staOK {
			return fmt.Errorf("serve: channel (%d, %d) outside universe", ev.Device, ev.Station)
		}
		if !finite(ev.Value) || ev.Value < 0 {
			return fmt.Errorf("serve: spectral efficiency %v negative", ev.Value)
		}
	case KindFronthaul:
		if !staOK {
			return fmt.Errorf("serve: station %d outside universe", ev.Station)
		}
		if !finite(ev.Value) || ev.Value <= 0 {
			return fmt.Errorf("serve: fronthaul efficiency %v not positive", ev.Value)
		}
	case KindDeviceJoin, KindDeviceLeave:
		if !devOK {
			return fmt.Errorf("serve: device %d outside universe", ev.Device)
		}
	case KindHandover:
		if !devOK || !staOK {
			return fmt.Errorf("serve: handover (%d, %d) outside universe", ev.Device, ev.Station)
		}
	case KindServerAdd, KindServerRemove, KindServerDown, KindServerUp:
		if !srvOK {
			return fmt.Errorf("serve: server %d outside universe", ev.Server)
		}
	case KindCapScale:
		if !srvOK {
			return fmt.Errorf("serve: server %d outside universe", ev.Server)
		}
		if !finite(ev.Value) || ev.Value <= 0 || ev.Value > 1 {
			return fmt.Errorf("serve: capacity scale %v outside (0, 1]", ev.Value)
		}
	default:
		return fmt.Errorf("serve: unknown event kind %q", ev.Kind)
	}
	return nil
}

// apply folds one validated event into the daemon's working state. Called
// with the tick lock held, in arrival order, so a replayed event stream
// reconstructs the identical state sequence.
func (d *Daemon) apply(ev Event) {
	switch ev.Kind {
	case KindPrice:
		d.st.Price = units.Price(ev.Value)
	case KindDemand:
		d.st.TaskSizes[ev.Device] = units.Cycles(ev.Task)
		d.st.DataLengths[ev.Device] = units.DataSize(ev.Data)
	case KindChannel:
		d.st.SetChannel(ev.Device, ev.Station, units.SpectralEfficiency(ev.Value))
	case KindFronthaul:
		d.st.FronthaulSE[ev.Station] = units.SpectralEfficiency(ev.Value)
	case KindDeviceJoin:
		d.deviceActive[ev.Device] = true
	case KindDeviceLeave:
		d.deviceActive[ev.Device] = false
	case KindHandover:
		d.st.SetChannel(ev.Device, ev.Station, 0)
	case KindServerAdd:
		d.serverActive[ev.Server] = true
	case KindServerRemove:
		d.serverActive[ev.Server] = false
	case KindServerDown:
		d.serverDown[ev.Server] = true
	case KindServerUp:
		d.serverDown[ev.Server] = false
	case KindCapScale:
		d.capScale[ev.Server] = ev.Value
	}
}

// DiffStates converts the transition prev → next into the event batch
// that reproduces it: price and fronthaul moves, per-device demand moves,
// every changed channel link, and the activity/drain/capacity mask
// transitions. Feeding a daemon initialized at state 1 the diffs of each
// consecutive state pair replays the exact batch trace — the invariant the
// equivalence tests and cmd/loadgen are built on. Events are emitted in a
// fixed order (price, fronthaul, demand, channels, device masks, server
// masks, drains, capacity) so a replayed stream is byte-stable.
func DiffStates(prev, next *trace.State) []Event {
	var out []Event
	if next.Price != prev.Price {
		out = append(out, Event{Kind: KindPrice, Value: float64(next.Price)})
	}
	for k := range next.FronthaulSE {
		if next.FronthaulSE[k] != prev.FronthaulSE[k] {
			out = append(out, Event{Kind: KindFronthaul, Station: k, Value: float64(next.FronthaulSE[k])})
		}
	}
	for i := range next.TaskSizes {
		if next.TaskSizes[i] != prev.TaskSizes[i] || next.DataLengths[i] != prev.DataLengths[i] {
			out = append(out, Event{
				Kind:   KindDemand,
				Device: i,
				Task:   float64(next.TaskSizes[i]),
				Data:   float64(next.DataLengths[i]),
			})
		}
	}
	for i := range next.Channels {
		out = diffRow(out, i, prev.Channels[i], next.Channels[i])
	}
	for i := 0; i < len(next.TaskSizes); i++ {
		was, is := prev.ActiveDevice(i), next.ActiveDevice(i)
		if was != is {
			kind := KindDeviceLeave
			if is {
				kind = KindDeviceJoin
			}
			out = append(out, Event{Kind: kind, Device: i})
		}
	}
	// Server indices beyond every mask read as active/up/nominal on both
	// sides, so the longest mask bounds the diff.
	servers := len(next.ServerActive)
	if len(prev.ServerActive) > servers {
		servers = len(prev.ServerActive)
	}
	if len(next.ServerDown) > servers {
		servers = len(next.ServerDown)
	}
	if len(prev.ServerDown) > servers {
		servers = len(prev.ServerDown)
	}
	if len(next.CapScale) > servers {
		servers = len(next.CapScale)
	}
	if len(prev.CapScale) > servers {
		servers = len(prev.CapScale)
	}
	for n := 0; n < servers; n++ {
		was, is := prev.ActiveServer(n), next.ActiveServer(n)
		if was != is {
			kind := KindServerRemove
			if is {
				kind = KindServerAdd
			}
			out = append(out, Event{Kind: kind, Server: n})
		}
		if prev.Down(n) != next.Down(n) {
			kind := KindServerUp
			if next.Down(n) {
				kind = KindServerDown
			}
			out = append(out, Event{Kind: kind, Server: n})
		}
		if prev.Cap(n) != next.Cap(n) {
			out = append(out, Event{Kind: KindCapScale, Server: n, Value: next.Cap(n)})
		}
	}
	return out
}

// diffRow appends the channel events that turn device i's row a into b:
// one per station whose efficiency differs, in ascending station order,
// carrying b's value (0 for a link b lacks). It merges the two sorted
// rows, so it reads only their links.
func diffRow(out []Event, i int, a, b []trace.Link) []Event {
	for len(a) > 0 || len(b) > 0 {
		switch {
		case len(b) == 0 || (len(a) > 0 && a[0].Station < b[0].Station):
			out = append(out, Event{Kind: KindChannel, Device: i, Station: a[0].Station})
			a = a[1:]
		case len(a) == 0 || b[0].Station < a[0].Station:
			out = append(out, Event{Kind: KindChannel, Device: i, Station: b[0].Station, Value: float64(b[0].SE)})
			b = b[1:]
		default:
			if a[0].SE != b[0].SE {
				out = append(out, Event{Kind: KindChannel, Device: i, Station: b[0].Station, Value: float64(b[0].SE)})
			}
			a, b = a[1:], b[1:]
		}
	}
	return out
}
