package trace

import (
	"fmt"

	"eotora/internal/rng"
	"eotora/internal/topology"
)

// ChurnKind enumerates the population events a ChurnSchedule can apply.
type ChurnKind int

// The population event kinds, in the order they are drawn each slot.
const (
	// DeviceJoin activates a previously inactive device.
	DeviceJoin ChurnKind = iota
	// DeviceLeave deactivates an active device.
	DeviceLeave
	// Handover forces an active device off its strongest station by
	// removing that channel link (the device re-associates elsewhere).
	Handover
	// ServerAdd activates a previously removed server.
	ServerAdd
	// ServerRemove structurally removes an active server.
	ServerRemove
)

// String implements fmt.Stringer.
func (k ChurnKind) String() string {
	switch k {
	case DeviceJoin:
		return "device-join"
	case DeviceLeave:
		return "device-leave"
	case Handover:
		return "handover"
	case ServerAdd:
		return "server-add"
	case ServerRemove:
		return "server-remove"
	}
	return fmt.Sprintf("churn-kind(%d)", int(k))
}

// ChurnEvent records one population change applied to a slot.
type ChurnEvent struct {
	// Kind is the event type.
	Kind ChurnKind
	// Device is the affected device index (-1 for server events).
	Device int
	// Server is the affected server index (-1 for device events).
	Server int
	// Station is the station a Handover vacated (-1 otherwise).
	Station int
}

// ChurnConfig parameterizes the deterministic population process. All
// probabilities are per slot; a zero-valued config with
// InitialActiveFraction 1 is a bit-exact passthrough (no event ever
// fires, and the published states carry nil activity masks).
type ChurnConfig struct {
	// Seed drives every churn draw. Each slot derives its own stream from
	// (Seed, slot), so churn at slot t is independent of the history of
	// draws and reproducible in isolation.
	Seed int64
	// DeviceJoinProb is the per-slot probability that each inactive
	// (covered) device joins.
	DeviceJoinProb float64
	// DeviceLeaveProb is the per-slot probability that each active device
	// leaves, subject to the MinActiveDevices floor.
	DeviceLeaveProb float64
	// HandoverProb is the per-slot probability that each active device
	// with at least two covered stations is handed off its strongest one.
	HandoverProb float64
	// ServerRemoveProb is the per-slot probability of removing one
	// removable server (one whose loss leaves every station that reaches
	// it with at least one other active reachable server).
	ServerRemoveProb float64
	// ServerAddProb is the per-slot probability of re-activating one
	// removed server.
	ServerAddProb float64
	// MinActiveDevices floors the active population; leaves that would
	// drop below it are suppressed. Zero means a floor of one device.
	MinActiveDevices int
	// InitialActiveFraction is the probability that each device starts
	// active (servers always start present). Must lie in (0, 1]; 1 starts
	// from the full population.
	InitialActiveFraction float64
}

// DefaultChurnConfig returns a moderate churn regime: ~2% of devices
// joining or leaving per slot, ~5% handed over, and rare server events.
func DefaultChurnConfig(seed int64) ChurnConfig {
	return ChurnConfig{
		Seed:                  seed,
		DeviceJoinProb:        0.02,
		DeviceLeaveProb:       0.02,
		HandoverProb:          0.05,
		ServerRemoveProb:      0.01,
		ServerAddProb:         0.02,
		MinActiveDevices:      1,
		InitialActiveFraction: 1,
	}
}

// ScaledChurnConfig returns DefaultChurnConfig(seed) with every event
// probability multiplied by intensity and clamped to 1: intensity 1 is the
// default regime, 0 fires no event. Every driver that takes a churn
// intensity builds its regime here, so shared-seed populations agree.
func ScaledChurnConfig(intensity float64, seed int64) ChurnConfig {
	cfg := DefaultChurnConfig(seed)
	for _, p := range []*float64{&cfg.DeviceJoinProb, &cfg.DeviceLeaveProb, &cfg.HandoverProb, &cfg.ServerRemoveProb, &cfg.ServerAddProb} {
		*p = min(*p*intensity, 1)
	}
	return cfg
}

// Validate checks the configuration's ranges.
func (c ChurnConfig) Validate() error {
	probs := []struct {
		name string
		p    float64
	}{
		{"DeviceJoinProb", c.DeviceJoinProb},
		{"DeviceLeaveProb", c.DeviceLeaveProb},
		{"HandoverProb", c.HandoverProb},
		{"ServerRemoveProb", c.ServerRemoveProb},
		{"ServerAddProb", c.ServerAddProb},
	}
	for _, pr := range probs {
		if pr.p < 0 || pr.p > 1 || pr.p != pr.p {
			return fmt.Errorf("trace: churn %s %v outside [0, 1]", pr.name, pr.p)
		}
	}
	if c.MinActiveDevices < 0 {
		return fmt.Errorf("trace: churn MinActiveDevices %d negative", c.MinActiveDevices)
	}
	if !(c.InitialActiveFraction > 0 && c.InitialActiveFraction <= 1) {
		return fmt.Errorf("trace: churn InitialActiveFraction %v outside (0, 1]", c.InitialActiveFraction)
	}
	return nil
}

// ChurnSchedule wraps a Source and superimposes a deterministic
// population process over the fixed topology universe: device joins and
// leaves, forced handovers, and server add/remove events. The topology
// itself never changes — churn only toggles activity masks and edits
// channel rows — so every downstream array keeps its universe size and a
// zero-churn schedule is bit-identical to the wrapped source.
//
// Every draw for slot t comes from a stream derived from (Seed, t), so a
// slot's events are reproducible without replaying the history, and the
// wrapped source sees exactly the Next() cadence it would without churn.
type ChurnSchedule struct {
	cfg ChurnConfig
	net *topology.Network
	src Source

	slot         int
	deviceActive []bool
	serverActive []bool
}

var _ Source = (*ChurnSchedule)(nil)

// NewChurnSchedule wraps src with the churn process for net. The initial
// device population is drawn from a stream derived from (cfg.Seed,
// "churn-init"); servers all start present.
func NewChurnSchedule(cfg ChurnConfig, net *topology.Network, src Source) (*ChurnSchedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	_, _, servers, devices := net.Counts()
	if devices == 0 {
		return nil, fmt.Errorf("trace: churn schedule needs a network with devices")
	}
	c := &ChurnSchedule{
		cfg:          cfg,
		net:          net,
		src:          src,
		deviceActive: make([]bool, devices),
		serverActive: make([]bool, servers),
	}
	for n := range c.serverActive {
		c.serverActive[n] = true
	}
	r := rng.New(cfg.Seed).Derive("churn-init")
	active := 0
	for i := range c.deviceActive {
		if cfg.InitialActiveFraction >= 1 || r.Bernoulli(cfg.InitialActiveFraction) {
			c.deviceActive[i] = true
			active++
		}
	}
	floor := c.floor()
	for i := 0; i < devices && active < floor; i++ {
		if !c.deviceActive[i] {
			c.deviceActive[i] = true
			active++
		}
	}
	return c, nil
}

// Period implements Source, delegating to the wrapped source.
func (c *ChurnSchedule) Period() int { return c.src.Period() }

// floor returns the effective minimum active-device count.
func (c *ChurnSchedule) floor() int {
	if c.cfg.MinActiveDevices < 1 {
		return 1
	}
	if c.cfg.MinActiveDevices > len(c.deviceActive) {
		return len(c.deviceActive)
	}
	return c.cfg.MinActiveDevices
}

// Next implements Source: it draws the next state from the wrapped source
// and applies this slot's churn events in a fixed order (device leaves
// and joins in ascending device order, then handovers, then at most one
// server removal and one addition). The returned state carries copies of
// the activity masks — or nil masks when the population is full — and the
// slot's event list in Churn.
func (c *ChurnSchedule) Next() *State {
	st := c.src.Next()
	c.slot++
	r := rng.New(c.cfg.Seed).Derive(fmt.Sprintf("churn-slot-%d", c.slot))

	var events []ChurnEvent
	active := 0
	for _, a := range c.deviceActive {
		if a {
			active++
		}
	}
	floor := c.floor()

	// Device leaves and joins, ascending so the draw order is fixed.
	for i := range c.deviceActive {
		if c.deviceActive[i] {
			if c.cfg.DeviceLeaveProb > 0 && r.Bernoulli(c.cfg.DeviceLeaveProb) && active > floor {
				c.deviceActive[i] = false
				active--
				events = append(events, ChurnEvent{Kind: DeviceLeave, Device: i, Server: -1, Station: -1})
			}
		} else if c.cfg.DeviceJoinProb > 0 && r.Bernoulli(c.cfg.DeviceJoinProb) && len(st.Channels[i]) > 0 {
			c.deviceActive[i] = true
			active++
			events = append(events, ChurnEvent{Kind: DeviceJoin, Device: i, Server: -1, Station: -1})
		}
	}

	// Forced handovers: drop the strongest covered station of devices
	// with an alternative. The edited row is a fresh copy, so replayed or
	// recorded states are never mutated in place.
	if c.cfg.HandoverProb > 0 {
		for i := range c.deviceActive {
			if !c.deviceActive[i] || !r.Bernoulli(c.cfg.HandoverProb) {
				continue
			}
			if j := strongestWithAlternative(st.Channels[i]); j >= 0 {
				old := st.Channels[i]
				row := make([]Link, 0, len(old)-1)
				st.Channels[i] = append(append(row, old[:j]...), old[j+1:]...)
				events = append(events, ChurnEvent{Kind: Handover, Device: i, Server: -1, Station: old[j].Station})
			}
		}
	}

	// At most one server removal, restricted to servers whose loss keeps
	// every station that reaches them connected to another active server.
	if c.cfg.ServerRemoveProb > 0 && r.Bernoulli(c.cfg.ServerRemoveProb) {
		if removable := c.removableServers(); len(removable) > 0 {
			n := removable[r.Intn(len(removable))]
			c.serverActive[n] = false
			events = append(events, ChurnEvent{Kind: ServerRemove, Device: -1, Server: n, Station: -1})
		}
	}

	// At most one server re-activation.
	if c.cfg.ServerAddProb > 0 && r.Bernoulli(c.cfg.ServerAddProb) {
		var removed []int
		for n, a := range c.serverActive {
			if !a {
				removed = append(removed, n)
			}
		}
		if len(removed) > 0 {
			n := removed[r.Intn(len(removed))]
			c.serverActive[n] = true
			events = append(events, ChurnEvent{Kind: ServerAdd, Device: -1, Server: n, Station: -1})
		}
	}

	st.DeviceActive = maskCopy(c.deviceActive)
	st.ServerActive = maskCopy(c.serverActive)
	st.Churn = events
	return st
}

// strongestWithAlternative returns the position in a channel row of its
// strongest link (the lowest station on a tie) when the row holds at
// least one other link, -1 otherwise.
func strongestWithAlternative(row []Link) int {
	if len(row) < 2 {
		return -1
	}
	best := 0
	for j, l := range row {
		if l.SE > row[best].SE {
			best = j
		}
	}
	return best
}

// removableServers lists the active servers whose removal leaves every
// station that reaches them with at least one other active reachable
// server (no station — and hence no covered device — is ever stranded).
func (c *ChurnSchedule) removableServers() []int {
	totalActive := 0
	for _, a := range c.serverActive {
		if a {
			totalActive++
		}
	}
	if totalActive <= 1 {
		return nil
	}
	stations, _, _, _ := c.net.Counts()
	var removable []int
	for n, a := range c.serverActive {
		if !a {
			continue
		}
		ok := true
		for k := 0; k < stations && ok; k++ {
			reach := c.net.ReachableServers(k)
			reaches, others := false, 0
			for _, m := range reach {
				if m == n {
					reaches = true
				} else if c.serverActive[m] {
					others++
				}
			}
			if reaches && others == 0 {
				ok = false
			}
		}
		if ok {
			removable = append(removable, n)
		}
	}
	return removable
}

// maskCopy returns a copy of the mask, or nil when every entry is true —
// a full population publishes nil so downstream code takes the exact
// legacy path.
func maskCopy(mask []bool) []bool {
	full := true
	for _, a := range mask {
		if !a {
			full = false
			break
		}
	}
	if full {
		return nil
	}
	out := make([]bool, len(mask))
	copy(out, mask)
	return out
}
