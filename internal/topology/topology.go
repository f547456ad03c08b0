// Package topology models the heterogeneous mobile-edge-computing network
// of the paper's Section III-A: base stations with access and fronthaul
// links, edge-server rooms hosting server clusters, edge servers with
// tunable clock frequencies, and mobile devices.
//
// The topology is static: geometry, bandwidths, fronthaul wiring, server
// core counts, and frequency ranges do not change over time. Everything
// time-varying (channel conditions, task sizes, data lengths, prices) lives
// in package trace.
package topology

import (
	"errors"
	"fmt"
	"math"

	"eotora/internal/units"
)

// BandClass is the spectrum band a base station operates in. It determines
// the typical coverage radius: low-band 5G (< 1 GHz) covers miles, mid-band
// (1–5 GHz) covers on the order of a hundred meters.
type BandClass int

// Band classes.
const (
	LowBand BandClass = iota + 1
	MidBand
	HighBand
)

func (b BandClass) String() string {
	switch b {
	case LowBand:
		return "low-band"
	case MidBand:
		return "mid-band"
	case HighBand:
		return "high-band"
	default:
		return fmt.Sprintf("BandClass(%d)", int(b))
	}
}

// FronthaulKind is the physical medium of a base station's fronthaul link.
// Wired fiber fronthaul connects a base station to exactly one server room;
// wireless millimeter-wave fronthaul may reach several rooms.
type FronthaulKind int

// Fronthaul kinds.
const (
	WiredFiber FronthaulKind = iota + 1
	WirelessMMWave
)

func (f FronthaulKind) String() string {
	switch f {
	case WiredFiber:
		return "wired-fiber"
	case WirelessMMWave:
		return "wireless-mmwave"
	default:
		return fmt.Sprintf("FronthaulKind(%d)", int(f))
	}
}

// Point is a planar position in meters.
type Point struct {
	X, Y float64
}

// DistanceTo returns the Euclidean distance between two points.
func (p Point) DistanceTo(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// BaseStation is one of the K base stations B_k.
type BaseStation struct {
	ID   int
	Name string
	Band BandClass
	Pos  Point

	// CoverageRadius is the maximum distance (meters) at which a mobile
	// device can use this station's access link.
	CoverageRadius float64

	// AccessBandwidth is W_k^A, the cellular access-link bandwidth shared
	// by the devices that select this station.
	AccessBandwidth units.Frequency

	// FronthaulBandwidth is W_k^F, the bandwidth of the fronthaul link
	// toward the edge-server rooms.
	FronthaulBandwidth units.Frequency

	// FronthaulSE is h_k^F, the spectral efficiency of the fronthaul link.
	// The paper treats it as time-invariant; package trace can override it
	// per slot for the time-varying extension.
	FronthaulSE units.SpectralEfficiency

	// Fronthaul is the link medium; it constrains how many rooms the
	// station may connect to.
	Fronthaul FronthaulKind

	// Rooms lists the server-room IDs reachable over this station's
	// fronthaul. A wired station must list exactly one room.
	Rooms []int
}

// Covers reports whether a device at pos can use this station's access link.
func (b *BaseStation) Covers(pos Point) bool {
	return b.Pos.DistanceTo(pos) <= b.CoverageRadius
}

// Room is one of the M edge-server rooms (the sites hosting traditional
// baseband units). Servers are assigned to rooms by Server.Room.
type Room struct {
	ID   int
	Name string
	Pos  Point
}

// Server is one of the N edge servers S_n.
type Server struct {
	ID   int
	Name string

	// Room is the ID of the hosting server room (cluster).
	Room int

	// Cores is the number of CPU cores; the effective computing capability
	// at per-core frequency f is Cores × f cycles per second.
	Cores int

	// MinFreq and MaxFreq are the per-core clock-frequency bounds
	// F_n^L and F_n^U.
	MinFreq, MaxFreq units.Frequency
}

// Capacity returns the server's aggregate computing capability
// (cycles per second) when every core runs at per-core frequency f.
func (s *Server) Capacity(f units.Frequency) units.Frequency {
	return units.Frequency(float64(s.Cores) * float64(f))
}

// Device is one of the I mobile devices D_i.
type Device struct {
	ID   int
	Name string

	// Pos is the initial position; package trace evolves positions under
	// the mobility model.
	Pos Point

	// Speed is the mobility speed in meters per second.
	Speed float64
}

// Network is the full static MEC topology.
type Network struct {
	BaseStations []BaseStation
	Rooms        []Room
	Servers      []Server
	Devices      []Device

	// Suitability is σ_{i,n} ∈ (0, 1]: Suitability[i][n] scores how well
	// device i's task type runs on server n.
	Suitability [][]float64

	// serversByRoom caches room ID → server indices; built by Finalize.
	serversByRoom map[int][]int
	// reachableServers caches BS index → server indices; built by Finalize.
	reachableServers [][]int
}

// Counts returns (K, M, N, I): the numbers of base stations, rooms,
// servers, and devices.
func (n *Network) Counts() (stations, rooms, servers, devices int) {
	return len(n.BaseStations), len(n.Rooms), len(n.Servers), len(n.Devices)
}

// Finalize validates the network and builds the connectivity caches. It
// must be called (directly or via the generator) before using
// ServersInRoom, ReachableServers, or FeasiblePairs.
func (n *Network) Finalize() error {
	if err := n.validate(); err != nil {
		return err
	}
	n.serversByRoom = make(map[int][]int, len(n.Rooms))
	for idx, s := range n.Servers {
		n.serversByRoom[s.Room] = append(n.serversByRoom[s.Room], idx)
	}
	n.reachableServers = make([][]int, len(n.BaseStations))
	for k, bs := range n.BaseStations {
		var reach []int
		for _, room := range bs.Rooms {
			reach = append(reach, n.serversByRoom[room]...)
		}
		n.reachableServers[k] = reach
	}
	return nil
}

func (n *Network) validate() error {
	if len(n.BaseStations) == 0 {
		return errors.New("topology: no base stations")
	}
	if len(n.Rooms) == 0 {
		return errors.New("topology: no server rooms")
	}
	if len(n.Servers) == 0 {
		return errors.New("topology: no servers")
	}
	if len(n.Devices) == 0 {
		return errors.New("topology: no devices")
	}
	roomIDs := make(map[int]bool, len(n.Rooms))
	for _, r := range n.Rooms {
		if roomIDs[r.ID] {
			return fmt.Errorf("topology: duplicate room ID %d", r.ID)
		}
		roomIDs[r.ID] = true
	}
	for k, bs := range n.BaseStations {
		if bs.CoverageRadius <= 0 {
			return fmt.Errorf("topology: station %d has non-positive coverage radius", k)
		}
		if bs.AccessBandwidth <= 0 || bs.FronthaulBandwidth <= 0 {
			return fmt.Errorf("topology: station %d has non-positive bandwidth", k)
		}
		if bs.FronthaulSE <= 0 {
			return fmt.Errorf("topology: station %d has non-positive fronthaul spectral efficiency", k)
		}
		if len(bs.Rooms) == 0 {
			return fmt.Errorf("topology: station %d connects to no room", k)
		}
		if bs.Fronthaul == WiredFiber && len(bs.Rooms) != 1 {
			return fmt.Errorf("topology: wired station %d connects to %d rooms, want exactly 1", k, len(bs.Rooms))
		}
		seen := make(map[int]bool, len(bs.Rooms))
		for _, room := range bs.Rooms {
			if !roomIDs[room] {
				return fmt.Errorf("topology: station %d references unknown room %d", k, room)
			}
			if seen[room] {
				return fmt.Errorf("topology: station %d lists room %d twice", k, room)
			}
			seen[room] = true
		}
	}
	for idx, s := range n.Servers {
		if !roomIDs[s.Room] {
			return fmt.Errorf("topology: server %d references unknown room %d", idx, s.Room)
		}
		if s.Cores <= 0 {
			return fmt.Errorf("topology: server %d has %d cores", idx, s.Cores)
		}
		if s.MinFreq <= 0 || s.MaxFreq < s.MinFreq {
			return fmt.Errorf("topology: server %d has invalid frequency range [%v, %v]", idx, s.MinFreq, s.MaxFreq)
		}
	}
	if len(n.Suitability) != len(n.Devices) {
		return fmt.Errorf("topology: suitability has %d rows, want %d", len(n.Suitability), len(n.Devices))
	}
	for i, row := range n.Suitability {
		if len(row) != len(n.Servers) {
			return fmt.Errorf("topology: suitability row %d has %d entries, want %d", i, len(row), len(n.Servers))
		}
		for nn, sigma := range row {
			if sigma <= 0 || sigma > 1 {
				return fmt.Errorf("topology: suitability[%d][%d] = %v outside (0, 1]", i, nn, sigma)
			}
		}
	}
	return nil
}

// ServersInRoom returns the indices (into Servers) of the servers in the
// given room, or nil for an unknown room.
func (n *Network) ServersInRoom(roomID int) []int {
	return n.serversByRoom[roomID]
}

// ReachableServers returns the indices of the servers reachable from base
// station k over its fronthaul — the set N_i(x) when device i selects k.
func (n *Network) ReachableServers(k int) []int {
	if k < 0 || k >= len(n.reachableServers) {
		return nil
	}
	return n.reachableServers[k]
}

// CoveringStations returns the indices of the base stations whose coverage
// area contains pos.
func (n *Network) CoveringStations(pos Point) []int {
	var out []int
	for k := range n.BaseStations {
		if n.BaseStations[k].Covers(pos) {
			out = append(out, k)
		}
	}
	return out
}

// Pair is a feasible (base station, server) choice for one device: the
// station covers the device and the server's room is reachable over the
// station's fronthaul.
type Pair struct {
	Station int
	Server  int
}

// FeasiblePairs returns every feasible (station, server) pair for a device
// at pos. The result is ordered by station then server index.
func (n *Network) FeasiblePairs(pos Point) []Pair {
	var out []Pair
	for _, k := range n.CoveringStations(pos) {
		for _, s := range n.ReachableServers(k) {
			out = append(out, Pair{Station: k, Server: s})
		}
	}
	return out
}

// CheckFeasible verifies that every device, at its initial position, has at
// least one feasible (station, server) pair. The trace layer keeps devices
// inside coverage, so initial feasibility implies per-slot feasibility.
func (n *Network) CheckFeasible() error {
	for i := range n.Devices {
		if len(n.FeasiblePairs(n.Devices[i].Pos)) == 0 {
			return fmt.Errorf("topology: device %d at %+v has no feasible (station, server) pair", i, n.Devices[i].Pos)
		}
	}
	return nil
}
