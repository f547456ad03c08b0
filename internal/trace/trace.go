// Package trace generates the time-varying system states β_t = (f_t, d_t,
// h_t, p_t) of the paper's Section III: task sizes, input data lengths,
// channel conditions, and electricity prices.
//
// Following the paper's modeling of real-world data (Figure 2), every
// scalar state decomposes as a deterministic periodic trend with period D
// plus iid noise: f_t = f̄_t + e^f_t, d_t = d̄_t + e^d_t, p_t = p̄_t + e^p_t.
// The paper's traces come from NYISO real-time prices and an hourly video
// viewership series; neither dataset ships with this repository, so the
// processes here are synthetic equivalents calibrated to the same scale
// and diurnal shape (see DESIGN.md §2 for the substitution rationale).
//
// Channel conditions h_{i,k,t} are driven by a random-waypoint mobility
// model: each device walks the deployment area, and the spectral
// efficiency toward a covering base station mean-reverts around a
// distance-dependent level inside the paper's 15–50 bps/Hz range. A state
// stores only the covered pairs: a station absent from a device's channel
// row is out of its coverage.
package trace

import (
	"math"
	"slices"

	"eotora/internal/rng"
	"eotora/internal/units"
)

// State is the full system state β_t observed at the start of a slot.
type State struct {
	// Slot is the 1-based slot index t.
	Slot int

	// TaskSizes holds f_{i,t} for every device.
	TaskSizes []units.Cycles

	// DataLengths holds d_{i,t} for every device.
	DataLengths []units.DataSize

	// Channels holds h_{i,k,t} by device: Channels[i] lists the links of
	// the stations covering device i, strictly ascending by station, each
	// with a positive spectral efficiency. A station absent from the row
	// is outside coverage (h = 0). Read single entries through Channel.
	Channels [][]Link

	// FronthaulSE holds h_k^F per station. The paper treats fronthaul
	// efficiency as time-invariant; the generator can optionally vary it
	// (the extension claimed in Section III-A).
	FronthaulSE []units.SpectralEfficiency

	// Price is the electricity price p_t.
	Price units.Price

	// ServerDown, when non-nil, advisorily marks servers to drain this
	// slot (fault injection, maintenance windows): the P2-A game builder
	// skips pairs targeting a down server whenever the device has an
	// alternative, falling back to ignoring the drain when it would leave
	// a device with no feasible pair. Core validation stays permissive —
	// a decision using a down server is degraded, not infeasible. Nil
	// means all servers up.
	ServerDown []bool

	// CapScale, when non-nil, scales each server's effective computing
	// capacity this slot: 1 = nominal, 0.5 = half the capacity lost.
	// Entries must lie in (0, 1]. The scale enters the P2-A compute
	// weights, the reduced latency, and the P2-B objective; energy draw
	// is left at the nominal model (a degraded server still burns power).
	// Nil means nominal capacity everywhere.
	CapScale []float64

	// DeviceActive, when non-nil, marks which devices of the fixed
	// topology universe participate this slot (churn: joins and leaves).
	// An inactive device offloads nothing, contributes no latency, and
	// must carry the (-1, -1) selection. Nil means every device active.
	DeviceActive []bool

	// ServerActive, when non-nil, marks which servers structurally exist
	// this slot (churn: ServerAdd/ServerRemove). Unlike the advisory
	// ServerDown drain, an inactive server is removed from the model: no
	// P2-A pair may target it, no device may select it, and it draws no
	// energy. Nil means every server present.
	ServerActive []bool

	// Churn lists the population events applied when producing this slot
	// relative to the previous one (observability for sweeps and logs).
	// Nil means no churn occurred.
	Churn []ChurnEvent
}

// Link is one covered access link of a device: the station and the
// link's spectral efficiency h_{i,k,t} > 0.
type Link struct {
	// Station is the covering station's index k.
	Station int
	// SE is the link's spectral efficiency h_{i,k,t} in bps/Hz.
	SE units.SpectralEfficiency
}

// Channel returns h_{i,k,t}: the spectral efficiency of device i's link
// to station k, or 0 when k does not cover the device.
func (s *State) Channel(i, k int) units.SpectralEfficiency {
	for _, l := range s.Channels[i] {
		if l.Station >= k {
			if l.Station == k {
				return l.SE
			}
			break
		}
	}
	return 0
}

// Covered reports whether device i can currently use station k.
func (s *State) Covered(i, k int) bool {
	return s.Channel(i, k) > 0
}

// SetChannel sets h_{i,k,t} in place: a positive se inserts or updates
// device i's link to station k, and se = 0 removes it. A removal shifts
// the row's tail down inside the row; an insertion into a row sliced at
// full capacity reallocates it, so it never writes into another row.
func (s *State) SetChannel(i, k int, se units.SpectralEfficiency) {
	row := s.Channels[i]
	j, found := slices.BinarySearchFunc(row, k, func(l Link, k int) int { return l.Station - k })
	switch {
	case se > 0 && found:
		row[j].SE = se
	case se > 0:
		s.Channels[i] = slices.Insert(row, j, Link{Station: k, SE: se})
	case found:
		s.Channels[i] = slices.Delete(row, j, j+1)
	}
}

// Down reports whether server n is advisorily drained this slot. Out-of-
// range indices and a nil ServerDown read as up.
func (s *State) Down(n int) bool {
	return n >= 0 && n < len(s.ServerDown) && s.ServerDown[n]
}

// Cap returns server n's capacity scale this slot (1 when CapScale is nil
// or the index is out of range). Multiplying a capacity by the nominal
// scale 1 is bit-exact in IEEE 754, so callers may apply it
// unconditionally without disturbing fault-free results.
func (s *State) Cap(n int) float64 {
	if n < 0 || n >= len(s.CapScale) {
		return 1
	}
	return s.CapScale[n]
}

// ActiveDevice reports whether device i participates this slot. Out-of-
// range indices and a nil DeviceActive read as active, so fault-free
// fixed-population states behave exactly as before the churn model.
func (s *State) ActiveDevice(i int) bool {
	return i < 0 || i >= len(s.DeviceActive) || s.DeviceActive[i]
}

// ActiveServer reports whether server n structurally exists this slot.
// Out-of-range indices and a nil ServerActive read as present.
func (s *State) ActiveServer(n int) bool {
	return n < 0 || n >= len(s.ServerActive) || s.ServerActive[n]
}

// ActiveDevices returns the number of participating devices given the
// universe size, counting every device when DeviceActive is nil.
func (s *State) ActiveDevices(universe int) int {
	if s.DeviceActive == nil {
		return universe
	}
	active := 0
	for _, a := range s.DeviceActive {
		if a {
			active++
		}
	}
	return active
}

// ActiveServers returns the number of present servers given the universe
// size, counting every server when ServerActive is nil.
func (s *State) ActiveServers(universe int) int {
	if s.ServerActive == nil {
		return universe
	}
	active := 0
	for _, a := range s.ServerActive {
		if a {
			active++
		}
	}
	return active
}

// Source produces consecutive system states. Implementations are
// deterministic given their seed.
type Source interface {
	// Next returns the state of the next slot, advancing the source.
	Next() *State
	// Period returns the trend period D in slots (1 for iid sources).
	Period() int
}

// diurnal is a smooth 24-hour load shape in [0, 1] with a morning shoulder
// and an evening peak, the qualitative shape of both the NYISO price curve
// and the video-viewership curve in the paper's Figure 2.
func diurnal(hour float64) float64 {
	// Two raised cosines centered at 9h and 20h.
	morning := 0.6 * bump(hour, 9, 4.5)
	evening := 1.0 * bump(hour, 20, 3.5)
	base := 0.12
	v := base + morning + evening
	if v > 1 {
		v = 1
	}
	return v
}

// bump is a raised-cosine pulse of the given half-width centered at c,
// wrapped on a 24-hour circle.
func bump(hour, c, halfWidth float64) float64 {
	d := math.Mod(math.Abs(hour-c), 24)
	if d > 12 {
		d = 24 - d
	}
	if d >= halfWidth {
		return 0
	}
	return 0.5 * (1 + math.Cos(math.Pi*d/halfWidth))
}

// PriceConfig parameterizes the synthetic NYISO-like price process.
type PriceConfig struct {
	// Base is the off-peak price level in $/MWh.
	Base units.Price
	// Amplitude is the additional diurnal swing in $/MWh.
	Amplitude units.Price
	// NoiseSigma is the lognormal sigma of the multiplicative iid noise.
	NoiseSigma float64
	// SpikeProb is the per-slot probability of a scarcity spike.
	SpikeProb float64
	// SpikeScale multiplies the price during a spike.
	SpikeScale float64
	// Period is the trend period D in slots (24 for hourly slots).
	Period int
	// WeekendDiscount in [0, 1) lowers the trend on the last two days of
	// each 7-period week (demand-driven prices fall on weekends). Zero
	// disables the weekly pattern; when enabled the effective trend
	// period is 7·Period.
	WeekendDiscount float64
}

// DefaultPriceConfig returns a configuration calibrated to NYISO real-time
// prices: ~$25/MWh off-peak, ~$70/MWh evening peak, occasional spikes.
func DefaultPriceConfig() PriceConfig {
	return PriceConfig{
		Base:       25,
		Amplitude:  45,
		NoiseSigma: 0.12,
		SpikeProb:  0.01,
		SpikeScale: 2.5,
		Period:     24,
	}
}

// PriceProcess generates p_t = p̄_t + e_t^p.
type PriceProcess struct {
	cfg PriceConfig
	src *rng.Source
	t   int
}

// NewPriceProcess returns a price process drawing noise from src.
func NewPriceProcess(cfg PriceConfig, src *rng.Source) *PriceProcess {
	if cfg.Period <= 0 {
		cfg.Period = 1
	}
	return &PriceProcess{cfg: cfg, src: src}
}

// Trend returns the deterministic periodic component p̄_t.
func (p *PriceProcess) Trend(slot int) units.Price {
	hour := float64(slot % p.cfg.Period)
	frac := diurnal(hour * 24 / float64(p.cfg.Period))
	trend := p.cfg.Base + units.Price(frac*float64(p.cfg.Amplitude))
	if p.cfg.WeekendDiscount > 0 && isWeekend(slot, p.cfg.Period) {
		trend *= units.Price(1 - p.cfg.WeekendDiscount)
	}
	return trend
}

// isWeekend reports whether the slot falls on day 6 or 7 of its
// 7-period week.
func isWeekend(slot, period int) bool {
	return (slot/period)%7 >= 5
}

// Next returns the next price.
func (p *PriceProcess) Next() units.Price {
	trend := p.Trend(p.t)
	p.t++
	noise := p.src.LogNormal(0, p.cfg.NoiseSigma)
	price := units.Price(float64(trend) * noise)
	if p.cfg.SpikeProb > 0 && p.src.Bernoulli(p.cfg.SpikeProb) {
		price *= units.Price(p.cfg.SpikeScale)
	}
	if price < 1 {
		price = 1 // floor: markets clear above zero for the horizons we model
	}
	return price
}

// DemandConfig parameterizes task sizes f_{i,t} and data lengths d_{i,t}.
type DemandConfig struct {
	// TaskMin/TaskMax bound f_{i,t} (paper: 50–200 mega cycles).
	TaskMin, TaskMax units.Cycles
	// DataMin/DataMax bound d_{i,t} (paper: 3–10 megabits).
	DataMin, DataMax units.DataSize
	// TrendWeight ∈ [0, 1] is the share of the range driven by the diurnal
	// trend; the rest is iid noise. Zero yields fully iid states (the
	// ablation baseline of the related-work comparison).
	TrendWeight float64
	// Period is the trend period D in slots.
	Period int
	// Levels, when non-empty, replaces the built-in diurnal trend with a
	// cyclic replay of the given per-slot demand levels in [0, 1] — e.g.
	// a normalized real viewership trace (see NormalizeLevels). Device
	// phase offsets do not apply to replayed levels.
	Levels []float64
	// WeekendDiscount in [0, 1) lowers the diurnal trend on the last two
	// days of each 7-period week. Zero disables it; it does not apply to
	// replayed Levels.
	WeekendDiscount float64
}

// DefaultDemandConfig returns the paper's Section VI-A demand ranges with
// a diurnal trend.
func DefaultDemandConfig() DemandConfig {
	return DemandConfig{
		TaskMin:     50 * units.MegaCycles,
		TaskMax:     200 * units.MegaCycles,
		DataMin:     3 * units.Megabit,
		DataMax:     10 * units.Megabit,
		TrendWeight: 0.6,
		Period:      24,
	}
}

// DemandProcess generates per-device task sizes and data lengths with a
// shared diurnal trend and per-device iid noise. Each device gets a small
// random phase offset so loads do not move in lockstep.
type DemandProcess struct {
	cfg    DemandConfig
	src    *rng.Source
	phases []float64 // per-device trend phase offsets in hours
	t      int
}

// NewDemandProcess returns a demand process for the given device count.
func NewDemandProcess(cfg DemandConfig, devices int, src *rng.Source) *DemandProcess {
	if cfg.Period <= 0 {
		cfg.Period = 1
	}
	phases := make([]float64, devices)
	for i := range phases {
		phases[i] = src.Uniform(-1.5, 1.5)
	}
	return &DemandProcess{cfg: cfg, src: src, phases: phases}
}

// TrendFraction returns the deterministic trend level in [0, 1] for device
// i at the given slot.
func (d *DemandProcess) TrendFraction(i, slot int) float64 {
	if len(d.cfg.Levels) > 0 {
		return rng.Clamp(d.cfg.Levels[slot%len(d.cfg.Levels)], 0, 1)
	}
	hour := math.Mod(float64(slot%d.cfg.Period)*24/float64(d.cfg.Period)+d.phases[i]+24, 24)
	level := diurnal(hour)
	if d.cfg.WeekendDiscount > 0 && isWeekend(slot, d.cfg.Period) {
		level *= 1 - d.cfg.WeekendDiscount
	}
	return level
}

// Next returns the next slot's task sizes and data lengths.
func (d *DemandProcess) Next() (tasks []units.Cycles, data []units.DataSize) {
	tasks = make([]units.Cycles, len(d.phases))
	data = make([]units.DataSize, len(d.phases))
	for i := range d.phases {
		trend := d.TrendFraction(i, d.t)
		frac := d.cfg.TrendWeight*trend + (1-d.cfg.TrendWeight)*d.src.Float64()
		tasks[i] = d.cfg.TaskMin + units.Cycles(frac*float64(d.cfg.TaskMax-d.cfg.TaskMin))
		// Data length follows the same congestion level with its own noise:
		// d and f are correlated but not proportional (the paper presumes
		// no specific relation).
		fracD := d.cfg.TrendWeight*trend + (1-d.cfg.TrendWeight)*d.src.Float64()
		data[i] = d.cfg.DataMin + units.DataSize(fracD*float64(d.cfg.DataMax-d.cfg.DataMin))
	}
	d.t++
	return tasks, data
}

// FlashCrowdConfig adds a two-state Markov regime to the demand process:
// in the "flash" regime every device's demand is scaled up, modeling the
// sudden crowds (stadium events, viral content) that fall outside the
// paper's periodic-plus-iid state class. The DPP controller makes no
// distributional assumption about β_t at decision time, so this is a
// robustness extension, not a change to the algorithm.
type FlashCrowdConfig struct {
	// Enabled turns the regime process on.
	Enabled bool
	// OnProb is the per-slot probability of entering the flash regime
	// from normal; OffProb of leaving it.
	OnProb, OffProb float64
	// Scale multiplies task sizes and data lengths during a flash,
	// clamped to the configured demand ranges.
	Scale float64
}

// DefaultFlashCrowdConfig returns rare, short, intense crowds: ~2% entry
// per slot, mean duration ~4 slots, 3× demand.
func DefaultFlashCrowdConfig() FlashCrowdConfig {
	return FlashCrowdConfig{Enabled: true, OnProb: 0.02, OffProb: 0.25, Scale: 3}
}

// regime tracks the Markov state across slots.
type regime struct {
	cfg   FlashCrowdConfig
	src   *rng.Source
	flash bool
}

func newRegime(cfg FlashCrowdConfig, src *rng.Source) *regime {
	return &regime{cfg: cfg, src: src}
}

// step advances one slot and reports whether the flash regime is active.
func (r *regime) step() bool {
	if !r.cfg.Enabled {
		return false
	}
	if r.flash {
		if r.src.Bernoulli(r.cfg.OffProb) {
			r.flash = false
		}
	} else if r.src.Bernoulli(r.cfg.OnProb) {
		r.flash = true
	}
	return r.flash
}
