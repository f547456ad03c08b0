// Package game implements the weighted congestion game at the heart of the
// paper's P2-A subproblem (the WCG problem of Section V-B) together with
// the algorithms compared in the evaluation: the paper's CGBA(λ)
// best-response dynamics, the MCBA Markov-chain Monte Carlo baseline of
// [36], random play (the ROPT baseline), and an exact branch-and-bound
// view for the Gurobi-replacement optimal baseline.
//
// A game instance has resources r with weights m_r and players i whose
// strategies each use a set of resources with player-resource weights
// p_{i,r}. Player i's cost under profile z is
//
//	T_i(z) = Σ_{r ∈ R_i(z_i)} m_r · p_{i,r} · p_r(z),   p_r(z) = Σ_{j uses r} p_{j,r},
//
// and the social objective Σ_i T_i(z) telescopes to Σ_r m_r p_r(z)² —
// exactly the reduced latency T_t of equations (18)–(19).
//
// Internally a Game stores its strategies in a flat CSR-style arena (one
// backing []Use plus per-player/per-strategy offsets) instead of a
// [][][]Use pointer forest, and derives resource incidence indexes from it
// on first use. The structure is immutable; mutable solve state (profile,
// loads, cached best responses) lives in Engine.
package game

import (
	"errors"
	"fmt"
	"math"
)

// Use is one resource consumed by a strategy, with the player-resource
// weight p_{i,r}.
type Use struct {
	// Resource indexes into the game's resource weights.
	Resource int
	// Weight is p_{i,r} > 0.
	Weight float64
}

// use is the arena element: a Use plus the premultiplied cost factor.
type use struct {
	w, wm float64 // p_{i,r} and m_r·p_{i,r}
	res   int     // resource index
}

// Game is a weighted congestion game instance. Its strategy structure is
// immutable after construction; resource weights may be swapped through
// SetResourceWeight (the P2-A Reweight fast path), which invalidates any
// Engine caches until the next Engine reset. Solver entry points build
// the incidence indexes on first use, so Engines bound to one Game must
// not run in different goroutines at once.
type Game struct {
	weights []float64 // m_r

	// Flat CSR arena: strategy su of player i occupies
	// uses[useOff[strOff[i]+s] : useOff[strOff[i]+s+1]]. Each use carries
	// the premultiplied wm = m_r·p_{i,r} factor alongside resource and
	// weight so the Engine's hot loops stream one array with no extra
	// lookups. Cost expressions are left-associative (m·w)·x, so using the
	// premultiplied factor is bit-identical to the naive evaluation;
	// SetResourceWeight keeps wm in sync via the incidence index.
	uses   []use
	useOff []int32 // len = total strategies + 1
	strOff []int32 // len = players + 1

	// Player incidence: the distinct players with at least one strategy
	// using resource r are incPlayer[incOff[r]:incOff[r+1]]. Engines walk
	// it to invalidate exactly the players whose cached best responses a
	// move could change.
	incOff    []int32
	incPlayer []int32

	// Use incidence: the arena positions of the uses of resource r are
	// useIncPos[useIncOff[r]:useIncOff[r+1]] — the SetResourceWeight fast
	// path for re-deriving premultiplied factors without an arena sweep.
	useIncOff []int32
	useIncPos []int32

	// Footprint index: player i's distinct resources, in first-use order,
	// are fpRes[fpOff[i]:fpOff[i+1]] — what the sharded solve's change
	// stamps are checked against.
	fpOff []int32
	fpRes []int32

	// All three indexes are built on first use (playerIndex, useIndex,
	// footprints), not by Build: most slots read none. incGen, useIncGen
	// and fpGen are the structGen each was last built for; incScratch is
	// the per-resource last-seen marker and fill cursor the builds share.
	incGen     uint64
	useIncGen  uint64
	fpGen      uint64
	incScratch []int32

	// maxUses is the largest use count of any single strategy (Engine
	// scratch sizing).
	maxUses int

	// structGen advances whenever the strategy arena changes (Build),
	// invalidating the incidence indexes above and memoized
	// shard-plan checks. It starts at 1 so a zero-valued marker is
	// always stale.
	structGen uint64
}

// strategyUses returns the uses of player i's strategy s.
func (g *Game) strategyUses(i, s int) []use {
	su := g.strOff[i] + int32(s)
	return g.uses[g.useOff[su]:g.useOff[su+1]]
}

// StrategyUses returns a copy of player i's strategy s as exported Use
// values — the structural view equivalence tests compare across builds.
func (g *Game) StrategyUses(i, s int) []Use {
	uses := g.strategyUses(i, s)
	out := make([]Use, len(uses))
	for k, u := range uses {
		out[k] = Use{Resource: u.res, Weight: u.w}
	}
	return out
}

// totalStrategies returns the number of strategies across all players.
func (g *Game) totalStrategies() int { return len(g.useOff) - 1 }

// Builder assembles a Game into reusable flat arrays. A zero-allocation
// rebuild path for hot callers (the per-slot P2-A construction): Reset,
// fill Weights, stream players/strategies/uses, then Build.
//
// Build returns a *Game that aliases the Builder's memory; calling Reset
// again invalidates every Game previously returned by this Builder. The
// returned pointer is stable across rebuilds, so long-lived references
// (e.g. an Engine bound to it) observe the refreshed structure.
type Builder struct {
	g Game

	// seenStrategy[r] holds the global strategy serial that last used r,
	// for duplicate detection without a per-strategy map.
	seenStrategy []int32
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Reset prepares the builder for a game over the given number of
// resources, discarding any previously streamed structure. Weights()
// returns a zeroed slice to be filled before Build.
func (b *Builder) Reset(resources int) {
	b.g.weights = resizeFloat(b.g.weights, resources)
	clearFloats(b.g.weights)
	b.g.uses = b.g.uses[:0]
	b.g.useOff = append(b.g.useOff[:0], 0)
	b.g.strOff = append(b.g.strOff[:0], 0)
	b.g.maxUses = 0
	b.seenStrategy = resizeInt32(b.seenStrategy, resources)
	for r := range b.seenStrategy {
		b.seenStrategy[r] = -1
	}
}

// Weights returns the mutable resource-weight slice (length = resources).
func (b *Builder) Weights() []float64 { return b.g.weights }

// NextPlayer starts a new player.
func (b *Builder) NextPlayer() {
	b.g.strOff = append(b.g.strOff, int32(len(b.g.useOff)-1))
}

// NextStrategy starts a new strategy for the current player.
func (b *Builder) NextStrategy() {
	b.g.useOff = append(b.g.useOff, int32(len(b.g.uses)))
	b.g.strOff[len(b.g.strOff)-1] = int32(len(b.g.useOff) - 1)
}

// AddUse appends one resource use to the current strategy. Validation is
// deferred to Build.
func (b *Builder) AddUse(resource int, weight float64) {
	b.g.uses = append(b.g.uses, use{res: resource, w: weight})
	b.g.useOff[len(b.g.useOff)-1] = int32(len(b.g.uses))
}

// Build validates the streamed game and returns it. The validation rules
// and error messages match New exactly.
func (b *Builder) Build() (*Game, error) {
	g := &b.g
	if len(g.weights) == 0 {
		return nil, errors.New("game: no resources")
	}
	for r, m := range g.weights {
		if !(m > 0) || math.IsInf(m, 0) {
			return nil, fmt.Errorf("game: resource %d has invalid weight %v", r, m)
		}
	}
	players := len(g.strOff) - 1
	if players == 0 {
		return nil, errors.New("game: no players")
	}
	for i := 0; i < players; i++ {
		first, last := g.playerStrategies(i)
		if first == last {
			return nil, fmt.Errorf("game: player %d has no strategies", i)
		}
		for su := first; su < last; su++ {
			lo, hi := int(g.useOff[su]), int(g.useOff[su+1])
			if lo == hi {
				return nil, fmt.Errorf("game: player %d strategy %d uses no resources", i, int(su-first))
			}
			if hi-lo > g.maxUses {
				g.maxUses = hi - lo
			}
			for k := lo; k < hi; k++ {
				u := &g.uses[k]
				if u.res < 0 || u.res >= len(g.weights) {
					return nil, fmt.Errorf("game: player %d strategy %d references resource %d of %d", i, int(su-first), u.res, len(g.weights))
				}
				if !(u.w > 0) || math.IsInf(u.w, 0) {
					return nil, fmt.Errorf("game: player %d strategy %d has invalid weight %v", i, int(su-first), u.w)
				}
				if b.seenStrategy[u.res] == su {
					return nil, fmt.Errorf("game: player %d strategy %d uses resource %d twice", i, int(su-first), u.res)
				}
				b.seenStrategy[u.res] = su
				u.wm = g.weights[u.res] * u.w
			}
		}
	}
	g.structGen++
	return g, nil
}

// playerStrategies returns the [first, last) global strategy serials of
// player i.
func (g *Game) playerStrategies(i int) (first, last int32) {
	return g.strOff[i], g.strOff[i+1]
}

// playerIndex builds the player incidence index if the structure changed
// since it was last built. It writes the Game, so it runs only at serial
// entry points, never inside a par.Pool region.
func (g *Game) playerIndex() {
	if g.incGen == g.structGen {
		return
	}
	g.incGen = g.structGen
	resources, players := len(g.weights), g.Players()
	g.incOff = resizeInt32(g.incOff, resources+1)
	clear(g.incOff)
	// Count distinct players per resource with a last-seen marker.
	seen := resizeInt32(g.incScratch, resources)
	g.incScratch = seen
	for r := range seen {
		seen[r] = -1
	}
	for i := 0; i < players; i++ {
		first, last := g.playerStrategies(i)
		for _, u := range g.uses[g.useOff[first]:g.useOff[last]] {
			if seen[u.res] != int32(i) {
				seen[u.res] = int32(i)
				g.incOff[u.res+1]++
			}
		}
	}
	for r := 0; r < resources; r++ {
		g.incOff[r+1] += g.incOff[r]
	}
	// Fill in player order; the last entry written for a resource is the
	// dedup marker, so the scratch now serves as the fill cursor.
	g.incPlayer = resizeInt32(g.incPlayer, int(g.incOff[resources]))
	cursor := seen
	copy(cursor, g.incOff[:resources])
	for i := 0; i < players; i++ {
		first, last := g.playerStrategies(i)
		for _, u := range g.uses[g.useOff[first]:g.useOff[last]] {
			if at := cursor[u.res]; at == g.incOff[u.res] || g.incPlayer[at-1] != int32(i) {
				g.incPlayer[at] = int32(i)
				cursor[u.res] = at + 1
			}
		}
	}
}

// useIndex builds the use incidence index (counting sort of arena
// positions by resource) if the structure changed since it was last
// built. Like playerIndex it runs only at serial entry points.
func (g *Game) useIndex() {
	if g.useIncGen == g.structGen {
		return
	}
	g.useIncGen = g.structGen
	resources := len(g.weights)
	g.useIncOff = resizeInt32(g.useIncOff, resources+1)
	clear(g.useIncOff)
	for _, u := range g.uses {
		g.useIncOff[u.res+1]++
	}
	for r := 0; r < resources; r++ {
		g.useIncOff[r+1] += g.useIncOff[r]
	}
	g.useIncPos = resizeInt32(g.useIncPos, len(g.uses))
	cursor := resizeInt32(g.incScratch, resources)
	g.incScratch = cursor
	copy(cursor, g.useIncOff[:resources])
	for k, u := range g.uses {
		at := cursor[u.res]
		g.useIncPos[at] = int32(k)
		cursor[u.res] = at + 1
	}
}

// footprints builds the footprint index if the structure changed since
// it was last built. Like playerIndex it runs only at serial entry
// points.
func (g *Game) footprints() {
	if g.fpGen == g.structGen {
		return
	}
	g.fpGen = g.structGen
	players := g.Players()
	seen := resizeInt32(g.incScratch, len(g.weights))
	g.incScratch = seen
	for r := range seen {
		seen[r] = -1
	}
	g.fpOff = resizeInt32(g.fpOff, players+1)
	g.fpOff[0] = 0
	g.fpRes = g.fpRes[:0]
	for i := 0; i < players; i++ {
		first, last := g.playerStrategies(i)
		for _, u := range g.uses[g.useOff[first]:g.useOff[last]] {
			if seen[u.res] != int32(i) {
				seen[u.res] = int32(i)
				g.fpRes = append(g.fpRes, int32(u.res))
			}
		}
		g.fpOff[i+1] = int32(len(g.fpRes))
	}
}

func resizeFloat(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func resizeInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func clearFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// New validates and builds a game. Every player needs at least one
// strategy; resource indices must be in range; all weights must be
// positive and finite. The weights slice is copied, not retained.
func New(resourceWeights []float64, strategies [][][]Use) (*Game, error) {
	b := NewBuilder()
	b.Reset(len(resourceWeights))
	copy(b.Weights(), resourceWeights)
	for _, strats := range strategies {
		b.NextPlayer()
		for _, uses := range strats {
			b.NextStrategy()
			for _, u := range uses {
				b.AddUse(u.Resource, u.Weight)
			}
		}
	}
	return b.Build()
}

// Players returns the number of players I.
func (g *Game) Players() int { return len(g.strOff) - 1 }

// Resources returns the number of resources |R|.
func (g *Game) Resources() int { return len(g.weights) }

// StrategyCount returns the size of player i's strategy set.
func (g *Game) StrategyCount(i int) int { return int(g.strOff[i+1] - g.strOff[i]) }

// ResourceWeight returns m_r.
func (g *Game) ResourceWeight(r int) float64 { return g.weights[r] }

// SetResourceWeight swaps m_r in place — the P2-A Reweight fast path,
// where only the compute-resource weights 1/ω_n change between BDMA
// rounds. Any Engine bound to the game holds stale caches afterwards and
// must be reset before further incremental queries (Engine.CGBA and
// Engine.MCBA reset unconditionally, so the solver entry points are safe).
// Setting the current weight is a no-op.
func (g *Game) SetResourceWeight(r int, m float64) error {
	if r < 0 || r >= len(g.weights) {
		return fmt.Errorf("game: resource %d of %d", r, len(g.weights))
	}
	if !(m > 0) || math.IsInf(m, 0) {
		return fmt.Errorf("game: resource %d has invalid weight %v", r, m)
	}
	if m == g.weights[r] {
		return nil
	}
	g.weights[r] = m
	// Re-derive the premultiplied factors of every use of r through the
	// use incidence index.
	g.useIndex()
	for _, k := range g.useIncPos[g.useIncOff[r]:g.useIncOff[r+1]] {
		g.uses[k].wm = m * g.uses[k].w
	}
	return nil
}

// Profile is one strategy index per player.
type Profile []int

// Clone returns a copy of the profile.
func (p Profile) Clone() Profile { return append(Profile(nil), p...) }

// Valid reports whether the profile is complete and within every player's
// strategy set.
func (g *Game) Valid(p Profile) bool {
	if len(p) != g.Players() {
		return false
	}
	for i, s := range p {
		if s < 0 || s >= g.StrategyCount(i) {
			return false
		}
	}
	return true
}

// Loads returns p_r(z) for every resource under the profile.
func (g *Game) Loads(p Profile) []float64 {
	loads := make([]float64, len(g.weights))
	g.loadsInto(loads, p)
	return loads
}

// loadsInto accumulates the profile's loads into a zeroed slice, summing
// in player order (the canonical order every load computation uses).
func (g *Game) loadsInto(loads []float64, p Profile) {
	for i, s := range p {
		for _, u := range g.strategyUses(i, s) {
			loads[u.res] += u.w
		}
	}
}

// SocialCost returns the objective Σ_r m_r p_r(z)² — the total latency
// T(z) of the WCG problem.
func (g *Game) SocialCost(p Profile) float64 {
	loads := g.Loads(p)
	obj := 0.0
	for r, l := range loads {
		obj += g.weights[r] * l * l
	}
	return obj
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
// the function internally removes it. Engine.refresh computes the same
// quantity incrementally from cached state; the two must stay
// bit-identical (see TestEngineMatchesRecomputation).
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
