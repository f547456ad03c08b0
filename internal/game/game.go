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
// [][][]Use pointer forest, and derives its use and footprint indexes from
// it on first use. The structure is immutable; mutable solve state
// (profile, loads, scan scratch) lives in Engine.
package game

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// SetResourceWeights (the P2-A Reweight fast path). SetResourceWeights
// writes the arena and the sharded solve builds the footprint index on
// first use, so Engines bound to one Game must not run in different
// goroutines at once.
type Game struct {
	weights []float64 // m_r

	// Flat CSR arena: strategy su of player i occupies
	// uses[useOff[strOff[i]+s] : useOff[strOff[i]+s+1]]. Each use carries
	// the premultiplied wm = m_r·p_{i,r} factor alongside resource and
	// weight so the Engine's hot loops stream one array with no extra
	// lookups. Cost expressions are left-associative (m·w)·x, so using the
	// premultiplied factor is bit-identical to the naive evaluation;
	// SetResourceWeights re-derives wm in one pass over the arena.
	uses   []use
	useOff []int32 // len = total strategies + 1
	strOff []int32 // len = players + 1

	// Footprint index: player i's distinct resources, in first-use order,
	// are fpRes[fpOff[i]:fpOff[i+1]] — what the sharded solve's change
	// stamps are checked against. It is built on first use (footprints),
	// not by Build: most slots never read it. fpGen is the structGen it
	// was last built for, and fpSeen the per-resource last-seen marker
	// the build uses.
	fpOff  []int32
	fpRes  []int32
	fpGen  uint64
	fpSeen []int32

	// maxUses is the largest use count of any single strategy (Engine
	// scratch sizing).
	maxUses int

	// Factor description of the players streamed with NextStation and
	// AddPair (see Builder.endPlayer and scan.cheapest). Player i's
	// stations are facSt[facStOff[i]:facStOff[i+1]] and its distinct
	// servers facDist[facDistOff[i]:facDistOff[i+1]], numbered in
	// first-use order; a player with no stations takes the generic arena
	// scan. facDist holds the arena position of one use of each distinct
	// server, so the factored scan reads the same w and wm as the arena,
	// SetResourceWeights included. maxDist is the most distinct servers of
	// any factored player (scan scratch sizing).
	facStOff   []int32
	facDistOff []int32
	facSt      []facStation
	facDist    []int32
	maxDist    int

	// structGen advances whenever the strategy arena changes (Build),
	// invalidating the indexes above and memoized shard-plan checks. It
	// starts at 1 so a zero-valued marker is always stale.
	structGen uint64
}

// facStation is one covered station of a factored player: the arena
// positions of its access and fronthaul uses (shared by all its pairs),
// the player's strategy index s0 of its first pair, and its servers, in
// pair order, as the run [lo, hi) of the player's distinct servers.
type facStation struct {
	a, f   int32
	s0     int32
	lo, hi int32
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
// fill Weights, stream players/strategies/uses, then Build. The weights
// must be filled before streaming: NextStation and AddPair check their
// uses and write the premultiplied factors as they stream, so Build
// walks again only the players streamed with NextStrategy.
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

	// Factor bookkeeping of the current player (see AddPair and
	// endPlayer): factored is false once the player streams a generic
	// strategy; access and fronthaul are the open station's shared uses;
	// stStart holds the strategy serial of each station's first pair, and
	// newStation asks the next AddPair to record one; srv[r] numbers
	// server r among a player's distinct servers.
	factored   bool
	newStation bool
	access     use
	fronthaul  use
	stStart    []int32
	srv        []srvMark

	// Stream-time validation (see NextStation and AddPair): stationOK
	// reports that the open station's uses passed the checks, bad that
	// some streamed pair, station or player failed them, and generic
	// lists the players streamed with NextStrategy, the only ones Build
	// walks when nothing is bad.
	stationOK bool
	bad       bool
	generic   []int32
}

// srvMark records that server r is distinct server slot of player, with
// weight w.
type srvMark struct {
	player, slot int32
	w            float64
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
	b.g.facStOff = append(b.g.facStOff[:0], 0)
	b.g.facDistOff = append(b.g.facDistOff[:0], 0)
	b.g.facSt = b.g.facSt[:0]
	b.g.facDist = b.g.facDist[:0]
	b.g.maxDist = 0
	b.seenStrategy = resizeInt32(b.seenStrategy, resources)
	for r := range b.seenStrategy {
		b.seenStrategy[r] = -1
	}
	if cap(b.srv) < resources {
		b.srv = make([]srvMark, resources)
	}
	b.srv = b.srv[:resources]
	for r := range b.srv {
		b.srv[r].player = -1
	}
	b.bad = false
	b.generic = b.generic[:0]
}

// Weights returns the mutable resource-weight slice (length = resources).
func (b *Builder) Weights() []float64 { return b.g.weights }

// NextPlayer starts a new player.
func (b *Builder) NextPlayer() {
	if len(b.g.strOff) > 1 {
		b.endPlayer()
	}
	b.g.strOff = append(b.g.strOff, int32(len(b.g.useOff)-1))
	// A pair streamed before the player's first NextStation gets
	// zero-weight uses, which Build rejects.
	b.factored, b.newStation, b.stationOK = true, false, false
	b.access, b.fronthaul = use{}, use{}
	b.stStart = b.stStart[:0]
}

// NextStrategy starts a new strategy for the current player. A player
// with any strategy streamed this way takes the generic arena scan.
func (b *Builder) NextStrategy() {
	b.factored = false
	b.g.useOff = append(b.g.useOff, int32(len(b.g.uses)))
	b.g.strOff[len(b.g.strOff)-1] = int32(len(b.g.useOff) - 1)
}

// AddUse appends one resource use to the current strategy. Validation is
// deferred to Build.
func (b *Builder) AddUse(resource int, weight float64) {
	b.g.uses = append(b.g.uses, use{res: resource, w: weight})
	b.g.useOff[len(b.g.useOff)-1] = int32(len(b.g.uses))
}

// NextStation opens a station of the current player: the strategies
// AddPair streams until the next NextStation or NextPlayer share its
// access use (resource access, weight accessW) and fronthaul use. Both
// uses are checked as Build checks a use, and distinct, here.
func (b *Builder) NextStation(access int, accessW float64, fronthaul int, fronthaulW float64) {
	b.access = use{res: access, w: accessW}
	b.fronthaul = use{res: fronthaul, w: fronthaulW}
	b.newStation = true
	weights := b.g.weights
	b.stationOK = uint(access) < uint(len(weights)) && uint(fronthaul) < uint(len(weights)) &&
		access != fronthaul && validUseWeight(accessW) && validUseWeight(fronthaulW)
	if !b.stationOK {
		b.bad = true
		return
	}
	b.access.wm = weights[access] * accessW
	b.fronthaul.wm = weights[fronthaul] * fronthaulW
}

// validUseWeight reports whether w is a valid player-resource weight:
// positive and finite (NaN fails both comparisons).
func validUseWeight(w float64) bool { return w > 0 && w <= math.MaxFloat64 }

// AddPair appends the strategy {server, access, fronthaul} of the open
// station, in that use order: the P2-A strategy (k, n) of paper §V-B,
// whose cost splits as T_i(k, n) = (C_n + A_k) + F_k. A player streamed
// only through AddPair can get a factor description (see endPlayer):
// its best-response scan then reads each distinct server's term once and
// each station's two terms once (scan.cheapest). The server use is
// checked as Build checks a use, and against the station's two, as it
// streams; Build reports a failure with the error its walk would give.
func (b *Builder) AddPair(server int, serverW float64) {
	g := &b.g
	s := int32(len(g.useOff) - 1)
	if b.newStation {
		b.newStation = false
		b.stStart = append(b.stStart, s)
	}
	u := use{res: server, w: serverW}
	if b.stationOK && uint(server) < uint(len(g.weights)) && validUseWeight(serverW) &&
		server != b.access.res && server != b.fronthaul.res {
		u.wm = g.weights[server] * serverW
	} else {
		b.bad = true
	}
	g.useOff = append(g.useOff, int32(len(g.uses)+3))
	g.strOff[len(g.strOff)-1] = s + 1
	g.uses = append(g.uses, u, b.access, b.fronthaul)
}

// minFactorPairs is the fewest pairs a factored player has. Below it
// the factored scan saves nothing measurable: on MetroSpec (6.6 pairs
// per player) CGBA ran 0.96–0.99× and the greedy profile 1.02–1.03× the
// arena scan's time, while describing a player walks its span at build
// time. Under DefaultSpec a player that qualifies has at least two
// stations of 8 servers, so 16 pairs.
const minFactorPairs = 16

// endPlayer closes the current player. A player streamed only through
// AddPair, with at least minFactorPairs pairs, gets its factor
// description when every station's servers are a run of its distinct
// servers (numbered in first-use order, so a station reaching the rooms
// an earlier one reached, in the same order, qualifies), every pair on a
// server carries the same weight, and its pairs outnumber its stations
// plus distinct servers. It is written in one walk over the arena span
// just streamed, while that is in cache.
func (b *Builder) endPlayer() {
	g := &b.g
	player := int32(len(g.strOff) - 2)
	first, last := g.playerStrategies(int(player))
	if first == last {
		b.bad = true
	}
	if !b.factored {
		b.generic = append(b.generic, player)
	}
	if len(b.stStart) > 0 {
		g.maxUses = max(g.maxUses, 3) // the player's pairs
	}
	stBase, distBase := len(g.facSt), len(g.facDist)
	if b.factored && last-first >= minFactorPairs && len(b.stStart) > 0 && b.stStart[0] == first && b.describe(player, first, last) {
		g.maxDist = max(g.maxDist, len(g.facDist)-distBase)
	} else {
		g.facSt, g.facDist = g.facSt[:stBase], g.facDist[:distBase]
	}
	g.facStOff = append(g.facStOff, int32(len(g.facSt)))
	g.facDistOff = append(g.facDistOff, int32(len(g.facDist)))
}

// describe appends player's stations and distinct servers to the factor
// description and reports whether the player qualifies (see endPlayer);
// the caller drops what it appended when it does not.
func (b *Builder) describe(player, first, last int32) bool {
	g := &b.g
	uses, useOff, srv := g.uses, g.useOff, b.srv
	limit := last - first - int32(len(b.stStart)) // distinct servers must stay below
	dist := int32(0)
	for k, s0 := range b.stStart {
		s1 := last
		if k+1 < len(b.stStart) {
			s1 = b.stStart[k+1]
		}
		pos := useOff[s0]
		st := facStation{a: pos + 1, f: pos + 2, s0: s0 - first}
		for su := s0; su < s1; su++ {
			pos := useOff[su]
			u := &uses[pos]
			if uint(u.res) >= uint(len(srv)) {
				return false // Build rejects the resource
			}
			m := &srv[u.res]
			if m.player != player {
				if dist+1 >= limit {
					return false // pairs ≤ stations + distinct servers
				}
				*m = srvMark{player: player, slot: dist, w: u.w}
				dist++
				g.facDist = append(g.facDist, pos)
			} else if m.w != u.w {
				return false
			}
			if su == s0 {
				st.lo = m.slot
			} else if m.slot != st.lo+(su-s0) {
				return false // not a run
			}
		}
		st.hi = st.lo + (s1 - s0)
		g.facSt = append(g.facSt, st)
	}
	return true
}

// Build validates the streamed game and returns it. The validation rules
// and error messages match New exactly: the resource weights, then each
// player's strategies in order. When a streamed pair, station or player
// failed its check, every player is walked for the first error;
// otherwise only the players streamed with NextStrategy are, since the
// others were checked, and their factors written, as they streamed.
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
	if len(g.facStOff) == players {
		b.endPlayer()
	}
	if b.bad {
		for i := 0; i < players; i++ {
			if err := b.walk(i); err != nil {
				return nil, err
			}
		}
	} else {
		for _, i := range b.generic {
			if err := b.walk(int(i)); err != nil {
				return nil, err
			}
		}
	}
	g.structGen++
	return g, nil
}

// walk validates player i's strategies and writes their uses' factors
// wm = m_r·p_{i,r}: Build's check of a player, with its error messages.
func (b *Builder) walk(i int) error {
	g := &b.g
	// The arena, weights and marker slices are read through locals: the
	// loop's stores would otherwise make the compiler reload their
	// headers on every use.
	uses, useOff, weights, seen := g.uses, g.useOff, g.weights, b.seenStrategy
	first, last := g.playerStrategies(i)
	if first == last {
		return fmt.Errorf("game: player %d has no strategies", i)
	}
	for su := first; su < last; su++ {
		lo, hi := int(useOff[su]), int(useOff[su+1])
		if lo == hi {
			return fmt.Errorf("game: player %d strategy %d uses no resources", i, int(su-first))
		}
		g.maxUses = max(g.maxUses, hi-lo)
		for k := lo; k < hi; k++ {
			u := &uses[k]
			if uint(u.res) >= uint(len(weights)) {
				return fmt.Errorf("game: player %d strategy %d references resource %d of %d", i, int(su-first), u.res, len(weights))
			}
			if !validUseWeight(u.w) {
				return fmt.Errorf("game: player %d strategy %d has invalid weight %v", i, int(su-first), u.w)
			}
			if seen[u.res] == su {
				return fmt.Errorf("game: player %d strategy %d uses resource %d twice", i, int(su-first), u.res)
			}
			seen[u.res] = su
			u.wm = weights[u.res] * u.w
		}
	}
	return nil
}

// playerStrategies returns the [first, last) global strategy serials of
// player i.
func (g *Game) playerStrategies(i int) (first, last int32) {
	return g.strOff[i], g.strOff[i+1]
}

// footprints builds the footprint index if the structure changed since
// it was last built. It writes the Game, so it runs only at serial entry
// points, never inside a par.Pool region.
func (g *Game) footprints() {
	if g.fpGen == g.structGen {
		return
	}
	g.fpGen = g.structGen
	players := g.Players()
	seen := resizeInt32(g.fpSeen, len(g.weights))
	g.fpSeen = seen
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

// SetResourceWeights swaps m_r in place for the resources first,
// first+1, … — the P2-A Reweight fast path, where only the
// compute-resource weights 1/ω_n change between BDMA rounds. One pass
// over the arena re-derives every premultiplied factor wm = m_r·p_{i,r},
// the product Build computes, so the game is bit-identical to a fresh
// build with the new weights. An Engine bound to the game keeps valid
// loads (they do not depend on m_r), and its next score reads the new
// factors. The weights are all validated before any is set; setting the
// current weights is a no-op.
func (g *Game) SetResourceWeights(first int, weights []float64) error {
	if first < 0 || first+len(weights) > len(g.weights) {
		return fmt.Errorf("game: resources [%d, %d) of %d", first, first+len(weights), len(g.weights))
	}
	for j, m := range weights {
		if !(m > 0) || math.IsInf(m, 0) {
			return fmt.Errorf("game: resource %d has invalid weight %v", first+j, m)
		}
	}
	cur := g.weights[first : first+len(weights)]
	if slices.Equal(cur, weights) {
		return nil
	}
	copy(cur, weights)
	uses, all := g.uses, g.weights
	for k := range uses {
		uses[k].wm = all[uses[k].res] * uses[k].w
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

// LoadsInto overwrites loads, which must hold Resources() entries, with
// p_r(z) under the profile: the non-allocating form of Loads, summing in
// the same player order.
func (g *Game) LoadsInto(loads []float64, p Profile) {
	clear(loads)
	g.loadsInto(loads, p)
}

// UseWeight returns p_{i,r} of player i's strategy s, or 0 when that
// strategy does not use resource r. It reads the arena in place.
func (g *Game) UseWeight(i, s, r int) float64 {
	for _, u := range g.strategyUses(i, s) {
		if u.res == r {
			return u.w
		}
	}
	return 0
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
