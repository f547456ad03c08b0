package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"eotora/internal/core"
	"eotora/internal/sim"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// RunSpec is a JSON-serializable description of one complete simulation
// run: scenario, state processes, controller, and horizon. It makes
// experiments reproducible from a single checked-in file:
//
//	eotorasim -config run.json
type RunSpec struct {
	// Devices is I (default 100).
	Devices int `json:"devices,omitempty"`
	// Seed drives all randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// BudgetFraction positions C̄ in the feasible cost range (default 0.5).
	BudgetFraction float64 `json:"budget_fraction,omitempty"`

	// Topology overrides (zero values keep the paper defaults).
	Stations          int    `json:"stations,omitempty"`
	Rooms             int    `json:"rooms,omitempty"`
	ServersPerRoom    int    `json:"servers_per_room,omitempty"`
	WirelessFronthaul bool   `json:"wireless_fronthaul,omitempty"`
	Layout            string `json:"layout,omitempty"` // "random" (default) or "hex"

	// State-process overrides.
	IID                  bool    `json:"iid,omitempty"`
	WeekendDiscount      float64 `json:"weekend_discount,omitempty"`
	FronthaulJitterSigma float64 `json:"fronthaul_jitter_sigma,omitempty"`

	// Controller.
	V      float64 `json:"v,omitempty"`      // default 100
	Z      int     `json:"z,omitempty"`      // default 5
	Lambda float64 `json:"lambda,omitempty"` // default 0
	Solver string  `json:"solver,omitempty"` // cgba (default), mcba, ropt

	// Horizon.
	Slots  int `json:"slots,omitempty"`  // default 240
	Warmup int `json:"warmup,omitempty"` // default 48
}

// LoadRunSpec parses a RunSpec from JSON, rejecting unknown fields so
// typos in config files fail loudly.
func LoadRunSpec(r io.Reader) (RunSpec, error) {
	var spec RunSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return RunSpec{}, fmt.Errorf("experiments: decoding run spec: %w", err)
	}
	return spec, nil
}

func (r *RunSpec) applyDefaults() {
	if r.Devices <= 0 {
		r.Devices = 100
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	if r.BudgetFraction <= 0 {
		r.BudgetFraction = 0.5
	}
	if r.V <= 0 {
		r.V = 100
	}
	if r.Z <= 0 {
		r.Z = 5
	}
	if r.Solver == "" {
		r.Solver = "cgba"
	}
	if r.Slots <= 0 {
		r.Slots = 240
	}
	// Warmup 0 means "default" (a fifth of the horizon); configs that
	// truly want no warmup can set slots low enough that slots/5 == 0.
	if r.Warmup <= 0 || r.Warmup >= r.Slots {
		r.Warmup = r.Slots / 5
	}
}

// Build materializes the run: a scenario, a state generator, a controller,
// and the simulation config.
func (r RunSpec) Build() (*Scenario, *trace.Generator, *core.Controller, sim.Config, error) {
	r.applyDefaults()

	topoSpec := topology.DefaultSpec(r.Devices)
	if r.Stations > 0 {
		topoSpec.Stations = r.Stations
		if topoSpec.UmbrellaStations > r.Stations {
			topoSpec.UmbrellaStations = 1
		}
	}
	if r.Rooms > 0 {
		topoSpec.Rooms = r.Rooms
	}
	if r.ServersPerRoom > 0 {
		topoSpec.ServersPerRoom = r.ServersPerRoom
	}
	topoSpec.WirelessFronthaul = r.WirelessFronthaul
	switch r.Layout {
	case "", "random":
		topoSpec.Layout = topology.LayoutRandom
	case "hex":
		topoSpec.Layout = topology.LayoutHex
	default:
		return nil, nil, nil, sim.Config{}, fmt.Errorf("experiments: unknown layout %q", r.Layout)
	}

	sc, err := NewScenario(ScenarioOptions{
		Devices:        r.Devices,
		Spec:           &topoSpec,
		BudgetFraction: r.BudgetFraction,
	}, r.Seed)
	if err != nil {
		return nil, nil, nil, sim.Config{}, err
	}

	genCfg := trace.DefaultGeneratorConfig()
	genCfg.IID = r.IID
	genCfg.FronthaulJitterSigma = r.FronthaulJitterSigma
	if r.WeekendDiscount > 0 {
		genCfg.Price.WeekendDiscount = r.WeekendDiscount
		genCfg.Demand.WeekendDiscount = r.WeekendDiscount
	}
	gen, err := sc.Generator(genCfg)
	if err != nil {
		return nil, nil, nil, sim.Config{}, err
	}

	ctrl, err := NewController(sc.Sys, r.Solver, r.V, r.Z, r.Lambda, r.Seed)
	if err != nil {
		return nil, nil, nil, sim.Config{}, err
	}
	return sc, gen, ctrl, sim.Config{Slots: r.Slots, Warmup: r.Warmup}, nil
}
