// Incremental population mutation: the churn half of the game arena.
//
// A Mutation streams the next slot's player set against the Builder's
// current arena, bulk-copying unchanged players (KeepPlayer) and
// restreaming changed or new ones (NextPlayer/NextStrategy/AddUse), into
// a spare double buffer. Commit validates the streamed players with
// Build's exact rules, swaps the spare arena into the stable *Game the
// Builder owns (the old arena becomes the next mutation's free buffer —
// a two-buffer free list with compaction on every commit), and re-derives
// the stale premultiplied factors: streamed players' in the validation
// pass, then every one of them unless SetReweighted narrows the recompute
// to the declared resources. The incidence indexes are rebuilt by their
// first reader. The committed game is bit-identical to a fresh Build of
// the same content, so solvers that reset on entry cannot observe whether
// a game was built or mutated.
//
// Engine.PrepareMutation / Engine.ApplyMutation carry the engine's
// per-player caches across a commit: kept players keep their cached
// costs and best responses unless a resource their strategies touch
// changed load or weight; removed players' load contributions are
// subtracted and streamed players' strategy-0 contributions added, so
// only the delta's resource neighborhood is re-evaluated on the next
// query.
package game

import (
	"errors"
	"fmt"
	"math"
)

// Mutation is an in-flight population change against a Builder's current
// game. Players are emitted in their new index order by interleaving
// KeepPlayer (old players, ascending) and NextPlayer streams; Commit
// finalizes. The Mutation is owned by its Builder and recycled by the
// next BeginMutation; it must not outlive the next Reset, BeginMutation,
// or Build call.
type Mutation struct {
	b             *Builder
	kept          []bool
	remap         []int32
	removed       []int32
	removedDone   bool
	reweighted    []int32
	hasReweighted bool
	maxUses       int
	lastOld       int
	err           error
}

// BeginMutation starts a population mutation against the Builder's
// current game, recycling the Builder-owned Mutation and its scratch (the
// churn hot path allocates nothing per slot). The caller may refill
// Weights() before Commit — declaring the edited resources via
// SetReweighted — and the resource count must stay fixed (Reset instead
// to change it).
func (b *Builder) BeginMutation() *Mutation {
	old := b.g.Players()
	m := &b.mut
	m.b = b
	m.kept = resizeBool(m.kept, old)
	for i := range m.kept {
		m.kept[i] = false
	}
	m.remap = m.remap[:0]
	m.removed = m.removed[:0]
	m.removedDone = false
	m.reweighted = nil
	m.hasReweighted = false
	m.maxUses = 0
	m.lastOld = -1
	m.err = nil
	b.spareUses = b.spareUses[:0]
	b.spareUseOff = append(b.spareUseOff[:0], 0)
	b.spareStrOff = append(b.spareStrOff[:0], 0)
	return m
}

// KeepPlayer copies old player old's strategies verbatim as the next new
// player. Old players must be kept in ascending order, each at most once.
func (m *Mutation) KeepPlayer(old int) {
	b := m.b
	g := &b.g
	if old < 0 || old >= g.Players() {
		m.fail(fmt.Errorf("game: keep player %d of %d", old, g.Players()))
		return
	}
	if old <= m.lastOld {
		m.fail(fmt.Errorf("game: keep player %d after %d (must ascend)", old, m.lastOld))
		return
	}
	m.lastOld = old
	first, last := g.playerStrategies(old)
	// The player's strategies occupy one contiguous use span; copy it with
	// a single append and rebase the per-strategy end offsets.
	useLo, useHi := g.useOff[first], g.useOff[last]
	base := int32(len(b.spareUses)) - useLo
	b.spareUses = append(b.spareUses, g.uses[useLo:useHi]...)
	for su := first; su < last; su++ {
		b.spareUseOff = append(b.spareUseOff, g.useOff[su+1]+base)
		if n := int(g.useOff[su+1] - g.useOff[su]); n > m.maxUses {
			m.maxUses = n
		}
	}
	b.spareStrOff = append(b.spareStrOff, int32(len(b.spareUseOff)-1))
	m.kept[old] = true
	m.remap = append(m.remap, int32(old))
}

// NextPlayer starts streaming a new (or restreamed) player, mirroring
// Builder.NextPlayer against the spare arena.
func (m *Mutation) NextPlayer() {
	b := m.b
	b.spareStrOff = append(b.spareStrOff, int32(len(b.spareUseOff)-1))
	m.remap = append(m.remap, -1)
}

// NextStrategy starts a new strategy for the player being streamed.
func (m *Mutation) NextStrategy() {
	b := m.b
	b.spareUseOff = append(b.spareUseOff, int32(len(b.spareUses)))
	b.spareStrOff[len(b.spareStrOff)-1] = int32(len(b.spareUseOff) - 1)
}

// AddUse appends one resource use to the strategy being streamed.
// Validation is deferred to Commit, matching Builder.AddUse.
func (m *Mutation) AddUse(resource int, weight float64) {
	b := m.b
	b.spareUses = append(b.spareUses, use{res: resource, w: weight})
	b.spareUseOff[len(b.spareUseOff)-1] = int32(len(b.spareUses))
}

// fail records the first streaming misuse; Commit reports it.
func (m *Mutation) fail(err error) {
	if m.err == nil {
		m.err = err
	}
}

// Remap returns the new→old player index map: Remap()[i] is the old
// index of new player i, or -1 when the player was streamed fresh. Valid
// after the final player has been emitted.
func (m *Mutation) Remap() []int32 { return m.remap }

// Removed returns the old player indices not kept by this mutation
// (departed players and restreamed ones alike), ascending. Valid after
// the final player has been emitted, before or after Commit.
func (m *Mutation) Removed() []int32 {
	if !m.removedDone {
		m.removedDone = true
		for i, k := range m.kept {
			if !k {
				m.removed = append(m.removed, int32(i))
			}
		}
	}
	return m.removed
}

// SetReweighted declares which resources had their Weights() entries
// edited since BeginMutation. With the declaration in place, Commit
// re-derives premultiplied factors only for streamed players and the
// declared resources — kept players' factors for untouched resources were
// copied bit-for-bit and stay exact. Without it, Commit conservatively
// recomputes every factor. The slice is aliased, not copied, and must
// stay unchanged until Commit returns.
func (m *Mutation) SetReweighted(resources []int32) {
	m.reweighted = resources
	m.hasReweighted = true
}

// Commit validates the streamed players under Build's exact rules and
// swaps the mutated arena into the Builder's stable *Game (the same
// pointer Build returns, so bound Engines observe the new structure).
// On error the previous arena is left intact — though Weights() edits
// made since BeginMutation persist, so callers falling back to a full
// rebuild must refill them.
func (m *Mutation) Commit() (*Game, error) {
	b := m.b
	g := &b.g
	if m.err != nil {
		return nil, m.err
	}
	if len(g.weights) == 0 {
		return nil, errors.New("game: no resources")
	}
	for r, w := range g.weights {
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("game: resource %d has invalid weight %v", r, w)
		}
	}
	players := len(b.spareStrOff) - 1
	if players == 0 {
		return nil, errors.New("game: no players")
	}
	// Validate only the streamed players: kept spans passed these checks
	// at their original Build and were copied bit-for-bit. seenStrategy
	// carries serials from the previous Build, so clear it first.
	b.seenStrategy = resizeInt32(b.seenStrategy, len(g.weights))
	for r := range b.seenStrategy {
		b.seenStrategy[r] = -1
	}
	maxUses := m.maxUses
	for i := 0; i < players; i++ {
		if m.remap[i] >= 0 {
			continue
		}
		first, last := b.spareStrOff[i], b.spareStrOff[i+1]
		if first == last {
			return nil, fmt.Errorf("game: player %d has no strategies", i)
		}
		for su := first; su < last; su++ {
			lo, hi := int(b.spareUseOff[su]), int(b.spareUseOff[su+1])
			if lo == hi {
				return nil, fmt.Errorf("game: player %d strategy %d uses no resources", i, int(su-first))
			}
			if hi-lo > maxUses {
				maxUses = hi - lo
			}
			for k := lo; k < hi; k++ {
				u := &b.spareUses[k]
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
	g.uses, b.spareUses = b.spareUses, g.uses
	g.useOff, b.spareUseOff = b.spareUseOff, g.useOff
	g.strOff, b.spareStrOff = b.spareStrOff, g.strOff
	g.maxUses = maxUses
	g.structGen++
	if !m.hasReweighted {
		for k := range g.uses {
			u := &g.uses[k]
			u.wm = g.weights[u.res] * u.w
		}
		return g, nil
	}
	// Streamed players were premultiplied during validation and kept
	// players carried their factors bit-for-bit; only the declared
	// reweighted resources are stale.
	if len(m.reweighted) == 0 {
		return g, nil
	}
	g.useIndex()
	for _, r := range m.reweighted {
		for _, pos := range g.useIncPos[g.useIncOff[r]:g.useIncOff[r+1]] {
			u := &g.uses[pos]
			u.wm = g.weights[u.res] * u.w
		}
	}
	return g, nil
}

// AddPlayer appends one player with the given strategies to the built
// game through a single-player mutation (every existing player kept, the
// new one streamed last). It returns the new player's index. The arena
// is compacted on commit; the displaced buffer becomes the free spare
// for the next mutation.
func (b *Builder) AddPlayer(strategies [][]Use) (int, error) {
	m := b.BeginMutation()
	old := b.g.Players()
	for i := 0; i < old; i++ {
		m.KeepPlayer(i)
	}
	m.NextPlayer()
	for _, uses := range strategies {
		m.NextStrategy()
		for _, u := range uses {
			m.AddUse(u.Resource, u.Weight)
		}
	}
	if _, err := m.Commit(); err != nil {
		return 0, err
	}
	return old, nil
}

// RemovePlayer drops player i from the built game through a mutation
// that keeps everyone else, compacting the arena (players above i shift
// down by one).
func (b *Builder) RemovePlayer(i int) error {
	if i < 0 || i >= b.g.Players() {
		return fmt.Errorf("game: remove player %d of %d", i, b.g.Players())
	}
	m := b.BeginMutation()
	for j := 0; j < b.g.Players(); j++ {
		if j != i {
			m.KeepPlayer(j)
		}
	}
	_, err := m.Commit()
	return err
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

// PrepareMutation readies the engine for a mutation commit on its bound
// game: the current-strategy load contributions of the players about to
// be removed (Mutation.Removed — departures and restreams alike) are
// subtracted from the incrementally maintained loads, and the touched
// resources recorded for ApplyMutation's cache invalidation. Must be
// called before Mutation.Commit (it reads the old arena). When the
// engine's profile is not valid for the old game — nothing has been
// solved since Bind — there is no load state worth carrying and the
// engine falls back to a full rebind in ApplyMutation.
func (e *Engine) PrepareMutation(removed []int32) {
	e.mutTouched = e.mutTouched[:0]
	e.mutOK = e.g.Valid(e.profile)
	if !e.mutOK {
		return
	}
	g := e.g
	e.mutSeen = resizeBool(e.mutSeen, g.Resources())
	for r := range e.mutSeen {
		e.mutSeen[r] = false
	}
	for _, i := range removed {
		for _, u := range g.strategyUses(int(i), e.profile[i]) {
			e.loads[u.res] -= u.w
			if !e.mutSeen[u.res] {
				e.mutSeen[u.res] = true
				e.mutTouched = append(e.mutTouched, int32(u.res))
			}
		}
	}
}

// ApplyMutation rebinds the engine to the committed game, permuting the
// per-player caches through remap (new→old, -1 = streamed fresh) so kept
// players carry their cached costs and best responses across the commit.
// Streamed players enter on strategy 0 with their loads added and caches
// dirty; every player incident (in the new game) to a resource whose
// load or weight changed — the prepare step's touched set plus the
// caller-supplied extra set, e.g. resources reweighted since the last
// solve — is invalidated. Untouched resources keep bit-identical loads,
// so surviving caches remain exact. Resource-count changes or a skipped
// prepare degrade to Bind (all caches invalid, Reset before querying).
func (e *Engine) ApplyMutation(g *Game, remap []int32, extraTouched []int32) {
	if !e.mutOK || g.Resources() != len(e.loads) || len(remap) != g.Players() {
		e.Bind(g)
		return
	}
	n := g.Players()
	newProf := resizeProfile(e.mutProfile, n)
	newDirty := resizeBool(e.mutDirty, n)
	newCur := resizeFloat(e.mutCur, n)
	newBr := resizeFloat(e.mutBr, n)
	newStrat := resizeInt32(e.mutStrat, n)
	e.g = g
	kept := false
	for newi, old := range remap {
		if old >= 0 {
			kept = true
			newProf[newi] = e.profile[old]
			newDirty[newi] = e.dirty[old]
			newCur[newi] = e.curCost[old]
			newBr[newi] = e.brCost[old]
			newStrat[newi] = e.brStrat[old]
			continue
		}
		newProf[newi] = 0
		newDirty[newi] = true
		newCur[newi], newBr[newi], newStrat[newi] = 0, 0, 0
		for _, u := range g.strategyUses(newi, 0) {
			e.loads[u.res] += u.w
			if !e.mutSeen[u.res] {
				e.mutSeen[u.res] = true
				e.mutTouched = append(e.mutTouched, int32(u.res))
			}
		}
	}
	e.profile, e.mutProfile = newProf, e.profile
	e.dirty, e.mutDirty = newDirty, e.dirty
	e.curCost, e.mutCur = newCur, e.curCost
	e.brCost, e.mutBr = newBr, e.brCost
	e.brStrat, e.mutStrat = newStrat, e.brStrat
	e.saveLoad = resizeFloat(e.saveLoad, g.maxUses)
	e.saveRes = resizeInt32(e.saveRes, g.maxUses)
	// Streamed players are already dirty, so with nothing kept the
	// touched-resource walk could not change a bit.
	if kept {
		g.playerIndex()
		for _, r := range e.mutTouched {
			e.markTouched(int(r))
		}
		for _, r := range extraTouched {
			e.markTouched(int(r))
		}
	}
	e.mutOK = false
}
