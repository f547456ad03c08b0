package experiments

import (
	"fmt"

	"eotora/internal/core"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// Scenario bundles a generated system and everything needed to replay the
// paper's simulation settings for one experiment.
type Scenario struct {
	Sys  *core.System
	Net  *topology.Network
	Seed int64
}

// ScenarioOptions configures NewScenario. The zero value selects the
// paper's Section VI-A configuration.
type ScenarioOptions struct {
	// Devices is I; 0 selects the paper's 100.
	Devices int
	// Spec overrides the topology spec entirely when non-nil.
	Spec *topology.Spec
	// BudgetFraction positions C̄ between the all-F^L cost (0) and the
	// all-F^U cost (1) at the reference price; 0 selects 0.5.
	BudgetFraction float64
	// ReferencePrice calibrates the budget; 0 selects $50/MWh, the
	// NYISO-like mean of the default price process.
	ReferencePrice units.Price
}

// NewScenario generates the paper's simulation scenario deterministically
// from a seed.
func NewScenario(opts ScenarioOptions, seed int64) (*Scenario, error) {
	devices := opts.Devices
	if devices <= 0 {
		devices = 100
	}
	spec := topology.DefaultSpec(devices)
	if opts.Spec != nil {
		spec = *opts.Spec
		spec.Devices = devices
	}
	src := rng.New(seed)
	net, err := topology.Generate(spec, src.Derive("net"))
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	models := core.DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := core.NewSystem(net, models, 3600, 1)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	frac := opts.BudgetFraction
	if frac <= 0 {
		frac = 0.5
	}
	ref := opts.ReferencePrice
	if ref <= 0 {
		ref = 50
	}
	low := sys.EnergyCost(sys.LowestFrequencies(), ref)
	high := sys.EnergyCost(sys.HighestFrequencies(), ref)
	sys.Budget = low + units.Money(frac*float64(high-low))
	return &Scenario{Sys: sys, Net: net, Seed: seed}, nil
}

// Generator returns a fresh state generator for the scenario. Successive
// calls return generators that replay the identical state sequence.
func (s *Scenario) Generator(cfg trace.GeneratorConfig) (*trace.Generator, error) {
	return trace.NewGenerator(s.Net, cfg, s.Seed)
}

// DefaultGenerator returns a generator with the paper's default state
// processes.
func (s *Scenario) DefaultGenerator() (*trace.Generator, error) {
	return s.Generator(trace.DefaultGeneratorConfig())
}
