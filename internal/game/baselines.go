package game

import (
	"fmt"
	"math"
	"sort"

	"eotora/internal/rng"
	"eotora/internal/solver"
)

// MCBAConfig parameterizes the Markov-chain Monte Carlo baseline of [36].
type MCBAConfig struct {
	// Iterations is the number of sampled moves; 0 selects a default
	// proportional to the player count.
	Iterations int
	// Temperature is the initial Metropolis temperature relative to the
	// starting objective; 0 selects a default of 0.1.
	Temperature float64
	// Cooling is the per-iteration geometric temperature decay in (0, 1];
	// 0 selects a default of 0.999.
	Cooling float64
}

// MCBA is the Markov chain Monte Carlo-based algorithm baseline: a random
// walk over neighboring profiles (one player changes strategy per step)
// accepting moves with the Metropolis probability exp(−Δ/τ) on the social
// objective under a geometric cooling schedule. It converges to the
// optimal decision in probability but needs many iterations, matching the
// Figure 5 observation that MCBA is slower than CGBA yet faster than exact
// branch-and-bound.
func MCBA(g *Game, cfg MCBAConfig, src *rng.Source) (Result, error) {
	return NewEngine(g).MCBA(cfg, src)
}

// RandomProfile implements the ROPT baseline's selection step: every
// player picks a strategy uniformly at random (the bandwidth and compute
// allocations on top are the closed-form optimal ones, applied by the
// caller).
func RandomProfile(g *Game, src *rng.Source) Result {
	profile := make(Profile, g.Players())
	for i := range profile {
		profile[i] = src.Intn(g.StrategyCount(i))
	}
	return Result{Profile: profile, Objective: g.SocialCost(profile), Iterations: 0}
}

// GreedyProfile builds a profile in one deterministic pass: players commit
// in index order, each picking the strategy minimizing its marginal cost
// Σ_u wm·(load+w) against the loads of the already-placed players (the
// engine's best-response scan; strategy 0 when no cost is finite). It
// draws no randomness and scans each player once. It is the arena form
// of the controller's greedy pick (the greedy rules and the last rung of
// its degradation ladder), which streams the same choices from the slot
// state without building the game; tests hold the two equal.
func GreedyProfile(g *Game) Result {
	profile := make(Profile, g.Players())
	loads := make([]float64, g.Resources())
	sc := scan{cterm: make([]float64, g.maxDist)}
	for i := range profile {
		best, _ := sc.cheapest(g, loads, i)
		best = max(best, 0)
		profile[i] = int(best)
		for _, u := range g.strategyUses(i, int(best)) {
			loads[u.res] += u.w
		}
	}
	return Result{Profile: profile, Objective: g.SocialCost(profile), Iterations: 0}
}

// bnbView adapts a Game to solver.Problem so BranchAndBound can compute
// the exact optimum (the Gurobi-replacement baseline of Figures 4 and 5).
// Players are searched in descending order of their cheapest self-cost
// (the classic "hardest variable first" ordering), which tightens pruning
// substantially relative to input order; order maps search items to
// player indices.
type bnbView struct {
	g     *Game
	order []int
	loads []float64
	cost  float64
}

var _ solver.Problem = (*bnbView)(nil)

func newBnBView(g *Game) *bnbView {
	order := make([]int, g.Players())
	keys := make([]float64, g.Players())
	for i := range order {
		order[i] = i
		best := math.Inf(1)
		for s := 0; s < g.StrategyCount(i); s++ {
			uses := g.strategyUses(i, s)
			m := 0.0
			for _, u := range uses {
				m += u.wm * u.w
			}
			if m < best {
				best = m
			}
		}
		keys[i] = best
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]] > keys[order[b]] })
	return &bnbView{g: g, order: order, loads: make([]float64, g.Resources())}
}

func (v *bnbView) Items() int               { return v.g.Players() }
func (v *bnbView) OptionCount(item int) int { return v.g.StrategyCount(v.order[item]) }
func (v *bnbView) Cost() float64            { return v.cost }

func (v *bnbView) Assign(item, option int) {
	for _, u := range v.g.strategyUses(v.order[item], option) {
		l := v.loads[u.res]
		v.cost += v.g.weights[u.res] * ((l+u.w)*(l+u.w) - l*l)
		v.loads[u.res] = l + u.w
	}
}

func (v *bnbView) Unassign(item, option int) {
	for _, u := range v.g.strategyUses(v.order[item], option) {
		l := v.loads[u.res]
		v.cost -= v.g.weights[u.res] * (l*l - (l-u.w)*(l-u.w))
		v.loads[u.res] = l - u.w
	}
}

// LowerBound: every unassigned player pays at least its cheapest marginal
// cost against the current loads, which only grow as the search deepens.
func (v *bnbView) LowerBound(assigned int) float64 {
	total := 0.0
	for item := assigned; item < v.g.Players(); item++ {
		i := v.order[item]
		best := math.Inf(1)
		for s := 0; s < v.g.StrategyCount(i); s++ {
			uses := v.g.strategyUses(i, s)
			m := 0.0
			for _, u := range uses {
				l := v.loads[u.res]
				m += v.g.weights[u.res] * (u.w*u.w + 2*u.w*l)
			}
			if m < best {
				best = m
			}
		}
		total += best
	}
	return total
}

// toSearchOrder converts a player-indexed assignment into search order.
func (v *bnbView) toSearchOrder(profile Profile) solver.Assignment {
	out := make(solver.Assignment, len(profile))
	for item, player := range v.order {
		out[item] = profile[player]
	}
	return out
}

// fromSearchOrder converts a search-ordered assignment back to players.
func (v *bnbView) fromSearchOrder(a solver.Assignment) Profile {
	out := make(Profile, len(a))
	for item, player := range v.order {
		out[player] = a[item]
	}
	return out
}

// Optimal computes the exact optimum of the game's social cost by
// branch-and-bound, warm-started with a CGBA incumbent. cfg bounds the
// search; with zero limits the result is provably optimal.
func Optimal(g *Game, cfg solver.BnBConfig, src *rng.Source) (Result, solver.BnBResult, error) {
	if cfg.Incumbent == nil {
		warm, err := CGBA(g, CGBAConfig{}, src)
		if err != nil {
			return Result{}, solver.BnBResult{}, fmt.Errorf("game: warm start failed: %w", err)
		}
		cfg.Incumbent = solver.Assignment(warm.Profile)
		cfg.IncumbentCost = warm.Objective
	}
	view := newBnBView(g)
	// Incumbents arrive player-indexed; the search runs in bnbView order.
	cfg.Incumbent = view.toSearchOrder(Profile(cfg.Incumbent))
	res, err := solver.BranchAndBound(view, cfg)
	if err != nil {
		return Result{}, res, err
	}
	profile := view.fromSearchOrder(res.Best)
	res.Best = solver.Assignment(profile)
	return Result{
		Profile:    profile,
		Objective:  g.SocialCost(profile),
		Iterations: res.Nodes,
	}, res, nil
}
