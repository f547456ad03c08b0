// Package policy defines the decision-policy seam between state
// ingestion and decision publication: everything that drives slots — the
// simulator, the sweep runner, the serve-mode daemon, and the CLIs —
// programs against the Policy interface instead of a concrete
// controller. The paper's DPP + BDMA controller (core.Controller) is the
// flagship implementation; this package adds the deterministic
// comparison baselines every related evaluation ships (greedy-energy,
// greedy-deadline, random, local-only, edge-only) and an online
// auto-tuner that adapts the DPP knob V and the CGBA λ
// schedule across slots (DESIGN.md §15).
//
// Every policy is deterministic from (seed, slot): two policies built
// with the same name, system, and configuration produce bit-identical
// decision sequences over the same state trace, and a policy restored
// from its Checkpoint resumes exactly where the original would have
// continued.
package policy

import (
	"fmt"
	"sort"
	"time"

	"eotora/internal/core"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/trace"
)

// Policy decides slots: one Decide call per slot index, strictly in
// order. Implementations own their internal state (virtual queues, game
// scratch, RNG derivation) and must be deterministic from (seed, slot).
type Policy interface {
	// Name identifies the policy ("bdma", "greedy-energy", ...).
	Name() string
	// System returns the system the policy decides for.
	System() *core.System
	// Slot returns the last decided slot index (0 before the first).
	Slot() int
	// V returns the penalty weight the policy prices decisions with.
	V() float64
	// Backlog returns the current virtual-queue backlog Q(t).
	Backlog() float64
	// Decide makes slot's decision against st. slot must be Slot()+1 —
	// the caller owns the numbering (the daemon's tick counter, the
	// simulator's loop) and a desynchronized restore must fail loudly.
	Decide(slot int, st *trace.State) (*core.SlotResult, error)
	// Checkpoint captures the policy's serializable resume state.
	Checkpoint() core.Checkpoint
	// Restore rewinds the policy to a checkpoint taken from an
	// identically configured policy.
	Restore(cp core.Checkpoint) error
	// SetObs attaches an observability registry (nil detaches).
	SetObs(reg *obs.Registry)
}

// DeadlineSetter is the optional capability of policies with a slot
// budget and degradation ladder (the bdma family). Drivers that arm
// deadlines or backpressure escalation probe for it; policies without
// the capability simply never degrade.
type DeadlineSetter interface {
	// SetSlotDeadline (re)configures the per-slot wall-clock and counted
	// budgets (core.Controller.SetSlotDeadline).
	SetSlotDeadline(budget time.Duration, checks int)
}

// PoolSetter is the optional capability of policies whose slot solve can
// run over an intra-slot worker pool without changing any decision bit.
type PoolSetter interface {
	// SetPool attaches the pool (nil detaches).
	SetPool(p *par.Pool)
}

// SolverNamer is the optional capability of policies backed by a P2-A
// solver ("CGBA", "MCBA", ...); baselines without a solver lack it.
type SolverNamer interface {
	// SolverName identifies the backing P2-A solver.
	SolverName() string
}

// The flagship implementation: core.Controller satisfies the seam (and
// every capability) structurally, without core importing this package.
var (
	_ Policy         = (*core.Controller)(nil)
	_ DeadlineSetter = (*core.Controller)(nil)
	_ PoolSetter     = (*core.Controller)(nil)
	_ SolverNamer    = (*core.Controller)(nil)
)

// Policy names constructible through New.
const (
	// BDMA is the paper's controller: DPP + BDMA alternation with CGBA.
	BDMA = "bdma"
	// BDMATuned is BDMA wrapped in the online V/λ auto-tuner (Tuner).
	BDMATuned = "bdma-tuned"
	// GreedyEnergy picks the congestion-greedy assignment at the lowest
	// frequencies Ω^L — minimal energy, latency as it falls.
	GreedyEnergy = "greedy-energy"
	// GreedyDeadline picks the congestion-greedy assignment at the
	// highest frequencies Ω^U — minimal latency, energy as it falls.
	GreedyDeadline = "greedy-deadline"
	// Random assigns every device a uniformly random feasible pair,
	// derived from (seed, slot), at Ω^L.
	Random = "random"
	// LocalOnly pins every device to its lowest-indexed feasible
	// (station, server) pair at Ω^L — the no-optimization floor.
	LocalOnly = "local-only"
	// EdgeOnly sends every device to its strongest-channel station and
	// that station's least-loaded server at Ω^U — the
	// max-edge-resources baseline.
	EdgeOnly = "edge-only"
)

// Config parameterizes New. The zero value of every optional field
// selects a sensible default; V and Seed are shared by all policies.
type Config struct {
	// V is the penalty weight pricing latency against backlog (also used
	// by the baselines so their objectives are comparable to BDMA's).
	V float64
	// InitialBacklog is Q(1); the paper initializes it to 0.
	InitialBacklog float64
	// Rounds is the BDMA alternation count z (bdma family; 0 = 5).
	Rounds int
	// Lambda is the CGBA approximation slack λ (bdma family; the tuner
	// treats it as the refined target of its coarse-to-fine schedule).
	Lambda float64
	// Seed drives every policy's (seed, slot)-derived randomness.
	Seed int64
	// Tuner overrides the auto-tuner schedule (bdma-tuned only).
	Tuner TunerConfig
}

// defaultRounds is the BDMA alternation count z when Config.Rounds is 0.
const defaultRounds = 5

// New constructs the named policy over sys. See the name constants for
// the selectable policies; unknown names error with the full list.
func New(name string, sys *core.System, cfg Config) (Policy, error) {
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = defaultRounds
	}
	switch name {
	case BDMA, BDMATuned:
		ctrl, err := core.NewController(sys, core.ControllerConfig{
			V:              cfg.V,
			InitialBacklog: cfg.InitialBacklog,
			BDMA:           core.BDMAConfig{Iterations: rounds, Solver: core.CGBASolver{Lambda: cfg.Lambda}},
			Seed:           cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		if name == BDMA {
			return ctrl, nil
		}
		tc := cfg.Tuner
		if tc.LambdaTarget == 0 {
			tc.LambdaTarget = cfg.Lambda
		}
		return NewTuner(ctrl, tc)
	case GreedyEnergy, GreedyDeadline, Random, LocalOnly, EdgeOnly:
		return newBaseline(name, sys, cfg)
	}
	return nil, fmt.Errorf("policy: unknown policy %q (have %v)", name, Names())
}

// Names returns the selectable policy names in sorted order.
func Names() []string {
	names := []string{BDMA, BDMATuned, GreedyEnergy, GreedyDeadline, Random, LocalOnly, EdgeOnly}
	sort.Strings(names)
	return names
}
