package game

import (
	"errors"
	"fmt"
	"math"
)

// The one-shot reference path of the game: the original implementation's
// per-profile evaluation (cost, best response, move, λ-Nash check), the
// Rosenthal potential, and equilibrium enumeration for the price of
// anarchy. The Engine must stay bit-identical to the first four; the
// rest check Theorems 1 and 2 on micro instances.

// IsEquilibrium reports whether no player can improve its cost by more
// than the relative tolerance tol under unilateral deviation — the λ-Nash
// condition CGBA terminates with.
func (g *Game) IsEquilibrium(p Profile, tol float64) bool {
	loads := g.Loads(p)
	for i := range p {
		cur := g.PlayerCost(p, loads, i)
		if _, c := g.bestResponse(p, loads, i); (1-tol)*cur > c+1e-9*(cur+1) {
			return false
		}
	}
	return true
}

// PlayerCost returns T_i(z) given precomputed loads.
func (g *Game) PlayerCost(p Profile, loads []float64, i int) float64 {
	cost := 0.0
	for _, u := range g.strategyUses(i, p[i]) {
		cost += u.wm * loads[u.res]
	}
	return cost
}

// Potential returns the weighted Rosenthal potential
//
//	Φ(z) = ½ Σ_r m_r (p_r(z)² + Σ_{i uses r} p_{i,r}²),
//
// whose change under a unilateral move equals the mover's cost change —
// the property that makes CGBA's best-response dynamics converge.
func (g *Game) Potential(p Profile) float64 {
	loads := g.Loads(p)
	phi := 0.0
	for r, l := range loads {
		phi += g.weights[r] * l * l
	}
	for i, s := range p {
		for _, u := range g.strategyUses(i, s) {
			phi += u.wm * u.w
		}
	}
	return phi / 2
}

// bestResponse returns player i's minimum-cost strategy against the other
// players' contributions. loads must include player i's current strategy;
// the function internally removes it. Engine.sweepScore computes the
// same quantity against the engine's incrementally maintained loads; the
// two must stay bit-identical (see TestEngineMatchesRecomputation).
func (g *Game) bestResponse(p Profile, loads []float64, i int) (strategy int, cost float64) {
	// Loads without player i.
	cur := g.strategyUses(i, p[i])
	without := func(r int) float64 {
		l := loads[r]
		for _, u := range cur {
			if u.res == r {
				return l - u.w
			}
		}
		return l
	}
	best, bestCost := -1, math.Inf(1)
	for s := 0; s < g.StrategyCount(i); s++ {
		c := 0.0
		for _, u := range g.strategyUses(i, s) {
			c += u.wm * (without(u.res) + u.w)
		}
		if c < bestCost {
			best, bestCost = s, c
		}
	}
	return best, bestCost
}

// applyMove switches player i to strategy s, updating loads in place.
func (g *Game) applyMove(p Profile, loads []float64, i, s int) {
	for _, u := range g.strategyUses(i, p[i]) {
		loads[u.res] -= u.w
	}
	p[i] = s
	for _, u := range g.strategyUses(i, s) {
		loads[u.res] += u.w
	}
}

// EnumerateEquilibria exhaustively enumerates pure Nash equilibria of the
// game, up to maxProfiles enumerated profiles (0 = no cap). It returns the
// equilibria found and whether enumeration completed. Exponential in the
// player count — a research tool for micro instances, used to measure the
// empirical price of anarchy against Theorem 2's 2.62 bound.
func (g *Game) EnumerateEquilibria(maxProfiles int) (equilibria []Profile, complete bool) {
	n := g.Players()
	current := make(Profile, n)
	visited := 0
	complete = true
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			visited++
			if maxProfiles > 0 && visited > maxProfiles {
				complete = false
				return false
			}
			if g.IsEquilibrium(current, 0) {
				equilibria = append(equilibria, current.Clone())
			}
			return true
		}
		for s := 0; s < g.StrategyCount(i); s++ {
			current[i] = s
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
	return equilibria, complete
}

// PriceOfAnarchy returns worst-equilibrium cost / optimal cost over the
// game's pure Nash equilibria, found by exhaustive enumeration (bounded by
// maxProfiles; 0 = unbounded). The optimum is the minimum social cost over
// all profiles. It returns an error when enumeration was truncated or no
// equilibrium exists within the bound.
func (g *Game) PriceOfAnarchy(maxProfiles int) (float64, error) {
	equilibria, complete := g.EnumerateEquilibria(maxProfiles)
	if !complete {
		return 0, fmt.Errorf("game: equilibrium enumeration truncated at %d profiles", maxProfiles)
	}
	if len(equilibria) == 0 {
		return 0, errors.New("game: no pure Nash equilibrium found (finite potential games always have one — check tolerances)")
	}
	worst := 0.0
	for _, eq := range equilibria {
		if c := g.SocialCost(eq); c > worst {
			worst = c
		}
	}
	// Optimal social cost by enumeration.
	best := math.Inf(1)
	current := make(Profile, g.Players())
	var rec func(i int)
	rec = func(i int) {
		if i == g.Players() {
			if c := g.SocialCost(current); c < best {
				best = c
			}
			return
		}
		for s := 0; s < g.StrategyCount(i); s++ {
			current[i] = s
			rec(i + 1)
		}
	}
	rec(0)
	if best <= 0 {
		return 0, errors.New("game: non-positive optimal cost")
	}
	return worst / best, nil
}

// The Engine's observation and single-move API: the tests drive the
// incremental path one move at a time and read its state and scores.

// Profile returns a view of the engine's current profile. The slice is
// owned by the engine; callers must Clone it to retain it across moves.
func (e *Engine) Profile() Profile { return e.profile }

// Loads returns a view of the current per-resource loads.
func (e *Engine) Loads() []float64 { return e.loads }

// PlayerCost returns T_i under the current profile, scored against the
// engine's loads.
func (e *Engine) PlayerCost(i int) float64 {
	cur, _, _ := e.score(i)
	return cur
}

// BestResponse returns player i's minimum-cost deviation and its cost,
// scored against the engine's loads.
func (e *Engine) BestResponse(i int) (strategy int, cost float64) {
	_, br, c := e.score(i)
	return int(br), c
}

// Move switches player i to strategy s, updating loads incrementally.
func (e *Engine) Move(i, s int) error {
	if i < 0 || i >= e.g.Players() || s < 0 || s >= e.g.StrategyCount(i) {
		return fmt.Errorf("game: move (%d, %d) out of range", i, s)
	}
	e.move(i, s)
	e.tally.moves++
	return nil
}
