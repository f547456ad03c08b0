package experiments

import (
	"fmt"

	"eotora/internal/core"
	"eotora/internal/policy"
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

// PresetStream builds the state stream β_t that the command-line drivers
// (eotorasim, eotorad, loadgen) share: the scenario on the named topology
// preset (topology.SpecByName) and its generator under genCfg, wrapped in
// trace.ScaledChurnConfig(churn, seed)'s population process when churn is
// positive. Drivers given the same arguments see bit-identical states,
// which is how eotorad and loadgen agree on β_1 without exchanging it.
func PresetStream(preset string, devices int, budgetFrac float64, seed int64, churn float64, genCfg trace.GeneratorConfig) (*Scenario, trace.Source, error) {
	spec, err := topology.SpecByName(preset, devices)
	if err != nil {
		return nil, nil, err
	}
	sc, err := NewScenario(ScenarioOptions{Devices: devices, Spec: &spec, BudgetFraction: budgetFrac}, seed)
	if err != nil {
		return nil, nil, err
	}
	gen, err := sc.Generator(genCfg)
	if err != nil {
		return nil, nil, err
	}
	if churn <= 0 {
		return sc, gen, nil
	}
	src, err := trace.NewChurnSchedule(trace.ScaledChurnConfig(churn, seed), sc.Net, gen)
	if err != nil {
		return nil, nil, err
	}
	return sc, src, nil
}

// NewController builds the DPP controller for a P2-A solver name: cgba
// (with CGBA slack lambda), mcba, or ropt.
func NewController(sys *core.System, solver string, v float64, z int, lambda float64, seed int64) (*core.Controller, error) {
	switch solver {
	case "cgba":
		return core.NewBDMAController(sys, v, z, lambda, seed)
	case "mcba":
		return core.NewMCBAController(sys, v, z, seed)
	case "ropt":
		return core.NewROPTController(sys, v, z, seed)
	}
	return nil, fmt.Errorf("experiments: unknown solver %q (want cgba, mcba, or ropt)", solver)
}

// NewPolicy builds the command-line drivers' decision policy by roster
// name (policy.Names). The controller-only knobs stay with policy.BDMA,
// whose controller runs the named P2-A solver (NewController), sharded
// when shards is nonzero (core.Controller.SetShards) and gap-audited
// every audit slots when audit is positive: the tuner owns its own λ
// schedule, and the baselines run no solver.
func NewPolicy(sys *core.System, name, solver string, v float64, z int, lambda float64, seed int64, shards, audit int) (policy.Policy, error) {
	if name != policy.BDMA {
		if solver != "cgba" {
			return nil, fmt.Errorf("-solver applies only to -policy bdma (got -policy %s)", name)
		}
		if shards != 0 || audit > 0 {
			return nil, fmt.Errorf("-shards/-shard-audit apply only to -policy bdma (got -policy %s)", name)
		}
		return policy.New(name, sys, policy.Config{V: v, Rounds: z, Lambda: lambda, Seed: seed})
	}
	ctrl, err := NewController(sys, solver, v, z, lambda, seed)
	if err != nil {
		return nil, err
	}
	if shards != 0 {
		if err := ctrl.SetShards(shards); err != nil {
			return nil, err
		}
	}
	if audit > 0 {
		if shards == 0 {
			return nil, fmt.Errorf("-shard-audit requires -shards")
		}
		ctrl.SetShardAudit(audit)
	}
	return ctrl, nil
}
