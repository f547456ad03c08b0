// Package core implements the paper's contribution: the EOTORA/EOTO
// problem types, the closed-form Lemma-1 resource allocation, the reduced
// latency T_t of equations (18)–(20), the P2-A congestion-game adapter,
// the per-server convex P2-B frequency optimizer, the BDMA alternating
// scheme (Algorithm 2), and the BDMA-based drift-plus-penalty online
// controller (Algorithm 1) together with the evaluation's baselines.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"eotora/internal/energy"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// System bundles the static problem data of EOTORA: the network topology,
// the per-server energy models g_n(·), the slot length, and the
// time-average energy-cost budget C̄.
type System struct {
	// Net is the finalized MEC topology.
	Net *topology.Network

	// Energy holds one convex energy model per server (same order as
	// Net.Servers); Energy[n].Power is the per-core power draw of S_n.
	Energy []energy.Model

	// SlotSeconds is the slot length used to convert power into per-slot
	// energy (the paper's hourly prices imply hourly slots).
	SlotSeconds float64

	// Budget is C̄, the per-slot time-average energy-cost budget.
	Budget units.Money

	// RoomBudgets, when non-nil, switches the controller to per-room
	// budgets C̄_m (an extension of the paper's single constraint): every
	// room carries its own virtual queue and its average energy cost is
	// driven under its own cap. Keys are room IDs; every room must have
	// an entry. The global Budget is ignored in this mode.
	RoomBudgets map[int]units.Money
}

// NewSystem validates and builds a System.
func NewSystem(net *topology.Network, models []energy.Model, slotSeconds float64, budget units.Money) (*System, error) {
	if net == nil {
		return nil, errors.New("core: nil network")
	}
	_, _, servers, _ := net.Counts()
	if len(models) != servers {
		return nil, fmt.Errorf("core: %d energy models for %d servers", len(models), servers)
	}
	for n, m := range models {
		if m == nil {
			return nil, fmt.Errorf("core: nil energy model for server %d", n)
		}
	}
	if !(slotSeconds > 0) {
		return nil, fmt.Errorf("core: non-positive slot length %v", slotSeconds)
	}
	if budget < 0 {
		return nil, fmt.Errorf("core: negative budget %v", budget)
	}
	return &System{Net: net, Energy: models, SlotSeconds: slotSeconds, Budget: budget}, nil
}

// DefaultEnergyModels builds the paper's per-server energy functions: the
// i7-3770K quadratic fit with coefficients perturbed per server by a
// standard-normal draw (Figure 3). The draw is truncated to ±4σ so every
// model stays convex and positive on the operating range.
func DefaultEnergyModels(servers int, src interface {
	TruncNormal(mean, stddev, lo, hi float64) float64
}) []energy.Model {
	base, _ := energy.FitI7Quadratic()
	models := make([]energy.Model, servers)
	for n := range models {
		models[n] = base.Perturb(src.TruncNormal(0, 1, -4, 4))
	}
	return models
}

// CheckState verifies a state's dimensions and values against the system.
// Beyond the shape checks, every numeric field must be finite and in
// range: NaN or negative task sizes and data lengths, a channel row whose
// stations are not strictly ascending in range or whose stored gain is
// not positive and finite, a non-finite or non-positive price, and
// out-of-range CapScale entries are all rejected. A NaN admitted here
// would propagate through the Lemma-1 square roots into the objective and
// ultimately poison the virtual queue Q(t), so the solve pipeline trusts
// states only after this gate (the trace.Sanitizer repairs instead of
// rejecting, for sources that must keep flowing).
func (s *System) CheckState(st *trace.State) error {
	stations, _, servers, devices := s.Net.Counts()
	if len(st.TaskSizes) != devices || len(st.DataLengths) != devices || len(st.Channels) != devices {
		return fmt.Errorf("core: state sized for %d devices, system has %d", len(st.TaskSizes), devices)
	}
	if len(st.FronthaulSE) != stations {
		return fmt.Errorf("core: state has %d fronthaul entries, system has %d stations", len(st.FronthaulSE), stations)
	}
	for i := 0; i < devices; i++ {
		if f := st.TaskSizes[i].Count(); math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			return fmt.Errorf("core: device %d task size %v invalid", i, st.TaskSizes[i])
		}
		if d := st.DataLengths[i].Bits(); math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return fmt.Errorf("core: device %d data length %v invalid", i, st.DataLengths[i])
		}
		prev := -1
		for _, l := range st.Channels[i] {
			if l.Station <= prev || l.Station >= stations {
				return fmt.Errorf("core: device %d channel row lists station %d after %d, want strictly ascending in [0, %d)", i, l.Station, prev, stations)
			}
			prev = l.Station
			if v := l.SE.BpsPerHz(); !(v > 0) || math.IsInf(v, 0) {
				return fmt.Errorf("core: device %d channel to station %d is %v", i, l.Station, l.SE)
			}
		}
	}
	for k, se := range st.FronthaulSE {
		if v := se.BpsPerHz(); math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			return fmt.Errorf("core: station %d fronthaul efficiency %v invalid", k, se)
		}
	}
	if p := float64(st.Price); math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
		return fmt.Errorf("core: invalid price %v", st.Price)
	}
	if st.ServerDown != nil && len(st.ServerDown) != servers {
		return fmt.Errorf("core: ServerDown sized %d, system has %d servers", len(st.ServerDown), servers)
	}
	if st.DeviceActive != nil && len(st.DeviceActive) != devices {
		return fmt.Errorf("core: DeviceActive sized %d, system has %d devices", len(st.DeviceActive), devices)
	}
	if st.ServerActive != nil && len(st.ServerActive) != servers {
		return fmt.Errorf("core: ServerActive sized %d, system has %d servers", len(st.ServerActive), servers)
	}
	if st.CapScale != nil {
		if len(st.CapScale) != servers {
			return fmt.Errorf("core: CapScale sized %d, system has %d servers", len(st.CapScale), servers)
		}
		for n, c := range st.CapScale {
			if math.IsNaN(c) || c <= 0 || c > 1 {
				return fmt.Errorf("core: server %d capacity scale %v outside (0, 1]", n, c)
			}
		}
	}
	return nil
}

// Selection is the binary part of a decision: per-device base-station and
// server choices (the x_t and y_t of the paper, in index form).
type Selection struct {
	// Station[i] = k means x_{i,k,t} = 1.
	Station []int
	// Server[i] = n means y_{i,n,t} = 1.
	Server []int
}

// Clone deep-copies the selection.
func (s Selection) Clone() Selection {
	return Selection{
		Station: append([]int(nil), s.Station...),
		Server:  append([]int(nil), s.Server...),
	}
}

// Validate checks the selection against the system and state: every device
// picks one covered station and one server reachable over that station's
// fronthaul — constraints (1), (2), and (3).
func (s *System) Validate(sel Selection, st *trace.State) error {
	if err := s.checkSelectionSize(sel); err != nil {
		return err
	}
	for i := range sel.Station {
		if _, err := s.checkPick(i, sel.Station[i], sel.Server[i], st); err != nil {
			return err
		}
	}
	return nil
}

// checkSelectionSize is Validate's first check: one pick per device.
func (s *System) checkSelectionSize(sel Selection) error {
	_, _, _, devices := s.Net.Counts()
	if len(sel.Station) != devices || len(sel.Server) != devices {
		return fmt.Errorf("core: selection sized %d/%d, want %d devices", len(sel.Station), len(sel.Server), devices)
	}
	return nil
}

// checkPick is Validate's check of device i's pick (k, n). It returns the
// spectral efficiency h_{i,k} of the chosen link, found with one scan of
// the device's channel row, or 0 for an inactive device.
func (s *System) checkPick(i, k, n int, st *trace.State) (units.SpectralEfficiency, error) {
	if !st.ActiveDevice(i) {
		if k != -1 || n != -1 {
			return 0, fmt.Errorf("core: inactive device %d selects (%d, %d), want (-1, -1)", i, k, n)
		}
		return 0, nil
	}
	if k < 0 || k >= len(s.Net.BaseStations) {
		return 0, fmt.Errorf("core: device %d selects station %d of %d", i, k, len(s.Net.BaseStations))
	}
	se := st.Channel(i, k)
	if !(se > 0) {
		return 0, fmt.Errorf("core: device %d selects station %d outside coverage", i, k)
	}
	if n < 0 || n >= len(s.Net.Servers) {
		return 0, fmt.Errorf("core: device %d selects server %d of %d", i, n, len(s.Net.Servers))
	}
	if !st.ActiveServer(n) {
		return 0, fmt.Errorf("core: device %d selects removed server %d", i, n)
	}
	if !slices.Contains(s.Net.ReachableServers(k), n) {
		return 0, fmt.Errorf("core: device %d selects server %d unreachable from station %d (constraint 3)", i, n, k)
	}
	return se, nil
}

// Frequencies is Ω_t: the per-core clock frequency of every server.
type Frequencies []units.Frequency

// Clone copies the frequency vector.
func (f Frequencies) Clone() Frequencies { return append(Frequencies(nil), f...) }

// LowestFrequencies returns Ω^L, every server at F_n^L.
func (s *System) LowestFrequencies() Frequencies {
	out := make(Frequencies, len(s.Net.Servers))
	for n := range out {
		out[n] = s.Net.Servers[n].MinFreq
	}
	return out
}

// HighestFrequencies returns Ω^U, every server at F_n^U.
func (s *System) HighestFrequencies() Frequencies {
	out := make(Frequencies, len(s.Net.Servers))
	for n := range out {
		out[n] = s.Net.Servers[n].MaxFreq
	}
	return out
}

// ValidateFrequencies checks ω_n ∈ [F_n^L, F_n^U] for every server.
func (s *System) ValidateFrequencies(f Frequencies) error {
	if len(f) != len(s.Net.Servers) {
		return fmt.Errorf("core: %d frequencies for %d servers", len(f), len(s.Net.Servers))
	}
	for n, w := range f {
		srv := &s.Net.Servers[n]
		if !(w >= srv.MinFreq-1e-6 && w <= srv.MaxFreq+1e-6) { // NaN fails too
			return fmt.Errorf("core: server %d frequency %v outside [%v, %v]", n, w, srv.MinFreq, srv.MaxFreq)
		}
	}
	return nil
}

// Allocation holds the continuous resource shares (Ψ_t, Φ_t): per-device
// shares of the selected station's access and fronthaul bandwidth and of
// the selected server's computing capability.
type Allocation struct {
	// AccessShare[i] is ψ^A_{i,k,t} for the station k selected by i.
	AccessShare []float64
	// FronthaulShare[i] is ψ^F_{i,k,t} for the selected station.
	FronthaulShare []float64
	// ComputeShare[i] is φ_{i,n,t} for the selected server.
	ComputeShare []float64
}

// Decision is the full α_t = (x, y, Ψ, Φ, Ω).
type Decision struct {
	Selection
	Allocation
	// Freq is the frequency vector Ω chosen by P2-B.
	Freq Frequencies
}

// ValidateAllocation checks share bounds and the capacity constraints
// (4)–(6): per station the selected devices' shares sum to at most 1, and
// likewise per server.
func (s *System) ValidateAllocation(sel Selection, a Allocation) error {
	devices := len(sel.Station)
	if len(a.AccessShare) != devices || len(a.FronthaulShare) != devices || len(a.ComputeShare) != devices {
		return errors.New("core: allocation dimension mismatch")
	}
	const tol = 1e-9
	accessSum := make([]float64, len(s.Net.BaseStations))
	fronthaulSum := make([]float64, len(s.Net.BaseStations))
	computeSum := make([]float64, len(s.Net.Servers))
	for i := 0; i < devices; i++ {
		if sel.Station[i] < 0 {
			// Inactive device: carries no shares.
			continue
		}
		for name, v := range map[string]float64{
			"access": a.AccessShare[i], "fronthaul": a.FronthaulShare[i], "compute": a.ComputeShare[i],
		} {
			if v < 0 || v > 1+tol || math.IsNaN(v) {
				return fmt.Errorf("core: device %d %s share %v outside [0, 1]", i, name, v)
			}
		}
		accessSum[sel.Station[i]] += a.AccessShare[i]
		fronthaulSum[sel.Station[i]] += a.FronthaulShare[i]
		computeSum[sel.Server[i]] += a.ComputeShare[i]
	}
	for k := range accessSum {
		if accessSum[k] > 1+tol {
			return fmt.Errorf("core: station %d access shares sum to %v (constraint 4)", k, accessSum[k])
		}
		if fronthaulSum[k] > 1+tol {
			return fmt.Errorf("core: station %d fronthaul shares sum to %v (constraint 5)", k, fronthaulSum[k])
		}
	}
	for n := range computeSum {
		if computeSum[n] > 1+tol {
			return fmt.Errorf("core: server %d compute shares sum to %v (constraint 6)", n, computeSum[n])
		}
	}
	return nil
}
