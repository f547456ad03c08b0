package game

import (
	"errors"
	"fmt"

	"eotora/internal/rng"
)

// Result reports the outcome of a game-solving algorithm.
type Result struct {
	// Profile is the final strategy profile ẑ.
	Profile Profile
	// Objective is the social cost T(ẑ).
	Objective float64
	// Iterations is the number of improvement steps (CGBA) or sampled
	// moves (MCBA) performed.
	Iterations int
	// ObjectiveTrace holds the social cost after each improvement step
	// when CGBAConfig.TrackObjective is set (entry 0 = initial profile);
	// nil otherwise.
	ObjectiveTrace []float64
	// Truncated reports that the solve stopped at a deadline checkpoint
	// (Engine.SetDeadline) before reaching its usual termination. The
	// profile is still feasible — CGBA's current iterate and MCBA's
	// best-so-far are valid profiles at every iteration boundary — but
	// carries no equilibrium or approximation guarantee.
	Truncated bool
}

// PivotRule selects which dissatisfied player moves at each CGBA step.
type PivotRule int

// Pivot rules.
const (
	// PivotMaxImprovement is Algorithm 3's rule: the player with the
	// largest absolute cost improvement moves.
	PivotMaxImprovement PivotRule = iota
	// PivotRoundRobin cycles players in index order, moving the first
	// dissatisfied one.
	PivotRoundRobin
	// PivotRandom moves a uniformly random dissatisfied player.
	PivotRandom
)

// String names the rule for logs and figure labels.
func (p PivotRule) String() string {
	switch p {
	case PivotMaxImprovement:
		return "max-improvement"
	case PivotRoundRobin:
		return "round-robin"
	case PivotRandom:
		return "random"
	default:
		return fmt.Sprintf("PivotRule(%d)", int(p))
	}
}

// CGBAConfig parameterizes the congestion-game-based algorithm.
type CGBAConfig struct {
	// Lambda is the λ ∈ [0, 0.125) tolerance of Algorithm 3: a player is
	// considered satisfied when (1−λ)·T_i(z) ≤ min_ẑ T_i(ẑ, z_−i).
	// λ = 0 converges to an exact Nash equilibrium with the 2.62
	// approximation guarantee; larger λ trades solution quality for
	// fewer iterations (Theorem 2).
	Lambda float64
	// MaxIterations caps the improvement loop as a safety net; 0 selects
	// a generous default proportional to the player count.
	MaxIterations int
	// Initial, when non-nil, seeds the dynamics with a given profile
	// instead of a uniformly random one.
	Initial Profile
	// Pivot selects the mover among dissatisfied players; the zero value
	// is the paper's max-improvement rule. All rules converge (the
	// potential decreases under any improving move); they differ in step
	// count and occasionally in the equilibrium reached. Non-default rules
	// run the exact loop.
	Pivot PivotRule
	// Exact runs the exact max-improvement loop of Algorithm 3 as
	// written. By default every game is solved by Gauss–Seidel sweeps
	// (see engine_fast.go): a certified λ-equilibrium with the same
	// approximation guarantee, generally not bit-identical to the exact
	// loop's. The paper-figure experiments pin Exact, and the tests use
	// it as their reference.
	Exact bool
	// TrackObjective records the social cost after every improvement step
	// into Result.ObjectiveTrace (index 0 is the initial profile's cost).
	// Costs O(|R|) extra per step; off by default. Tracked solves run the
	// exact loop.
	TrackObjective bool
}

// ErrNoConverge is returned when CGBA hits its iteration cap, which under
// the potential-game argument can only happen with a cap far below the
// theoretical convergence bound.
var ErrNoConverge = errors.New("game: CGBA iteration cap reached")

// CGBA runs Algorithm 3, the paper's weighted-game best-response dynamics:
// starting from a random profile, while some player can improve its cost by
// more than a factor (1−λ), the player with the largest absolute
// improvement moves to its best response. For λ ∈ (0, 0.125) the result is
// a 2.62/(1−8λ)-approximation of the optimal social cost after
// O((1/λ)·log(Φ₀/Φ_min)) iterations (Theorem 2); λ = 0 yields the plain
// 2.62 bound.
//
// This entry point builds a fresh Engine per call; hot callers that solve
// the same game repeatedly (BDMA rounds, simulation slots) should hold an
// Engine and call Engine.CGBA to reuse its buffers and scratch.
func CGBA(g *Game, cfg CGBAConfig, src *rng.Source) (Result, error) {
	return NewEngine(g).CGBA(cfg, src)
}
