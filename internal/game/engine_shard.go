// Sharded slot solve: per-cluster games in parallel plus serial boundary
// reconciliation (DESIGN.md §13).
//
// The congestion game couples players only through shared resources, so
// a topology whose resources split into disjoint clusters factorizes the
// game: players whose every strategy stays inside one cluster (interior
// players) interact only with each other, and the few players whose
// strategy sets span clusters (boundary players) are the sole coupling.
// A ShardPlan declares that factorization; Engine.CGBASharded exploits
// it with an outer reconciliation loop:
//
//	round:
//	 1. parallel  — each shard runs Gauss–Seidel sweeps over its interior
//	    players to a locally certified quiescence, with boundary players'
//	    load contributions frozen;
//	 2. serial    — Gauss–Seidel sweeps over the boundary players against
//	    the shards' congestion sums, until quiet;
//	 3. serial    — one certification pass over every player with the
//	    exact path's arithmetic (sweepScore); only a quiet pass
//	    terminates the solve, so the result is a certified λ-equilibrium
//	    of the *global* game — sharding is a heuristic for speed, never
//	    for correctness.
//
// All three phases share one sweep body (Engine.sweep), the one
// max-improvement sweep of the package: a nil plan (an unsharded solve)
// runs it once over every player. With a plan of two or more shards it
// skips, by exact change stamps, every player none of whose resources
// changed load since its last score, a skip that changes no decision.
// The nil plan keeps no stamps: a footprint build per solve costs more
// than the skip saves on one unsharded game (DESIGN.md §12).
//
// Determinism and pool-invariance: shards touch disjoint state (their
// players' profile entries and score stamps, their clusters' loads and
// change stamps), draw no RNG, and merge tallies in shard order, so the
// result is identical at every pool size; phases 2 and 3 are serial.
// Wall-clock deadlines are polled inside shard sweeps against a
// read-only snapshot (solver.Deadline.ExpireTime) so a shard that blows
// the budget degrades alone — it stops moving its own players and the
// slot still commits a feasible global profile; counted checkpoints are
// consumed only in the serial phases, keeping deterministic budgets
// pool-invariant.
package game

import (
	"fmt"
	"time"

	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/solver"
)

// SetPool attaches the worker pool the sharded solve's parallel phase
// runs on (nil detaches it — the default, fully serial). The pool only
// changes where shards execute, never their results: solves are
// bit-identical for every pool size. The engine must not share a pool
// region with another engine concurrently (one Run at a time per pool).
func (e *Engine) SetPool(p *par.Pool) { e.pool = p }

// ShardPlan assigns each player of a game to a shard or to the boundary
// set. Interior players of one shard must use only resources no other
// shard's interior players use (CGBASharded verifies this before its
// first parallel region); boundary players may use anything. Plans are
// built by the caller — core derives them from a topology partition
// (internal/shard) — and are reusable across solves and, via Reset,
// across churn.
type ShardPlan struct {
	shards int
	player []int32 // player → shard, −1 = boundary

	// Compiled CSR: shard s's interior players are
	// order[off[s]:off[s+1]], ascending; boundary players ascending.
	order    []int32
	off      []int32
	boundary []int32

	// Disjointness-check memo: the game and structure generation the plan
	// was last verified against, plus the resource→shard scratch.
	checkedGame *Game
	checkedGen  uint64
	resShard    []int32
}

// NewShardPlan returns a plan assigning player i to shard player[i]
// (−1 = boundary). See Reset for validation rules.
func NewShardPlan(shards int, player []int32) (*ShardPlan, error) {
	p := &ShardPlan{}
	if err := p.Reset(shards, player); err != nil {
		return nil, err
	}
	return p, nil
}

// Reset refills the plan in place (the churn path — no reallocation when
// capacities suffice). shards must be at least 1 and every entry of
// player must lie in [−1, shards). The player slice is copied.
func (p *ShardPlan) Reset(shards int, player []int32) error {
	if shards < 1 {
		return fmt.Errorf("game: shard plan needs at least 1 shard, got %d", shards)
	}
	for i, s := range player {
		if s < -1 || int(s) >= shards {
			return fmt.Errorf("game: player %d assigned to shard %d outside [-1, %d)", i, s, shards)
		}
	}
	p.shards = shards
	p.player = append(p.player[:0], player...)
	p.checkedGame, p.checkedGen = nil, 0

	// Counting sort into the CSR (stable: players ascending per shard).
	p.off = resizeInt32(p.off, shards+1)
	for s := range p.off {
		p.off[s] = 0
	}
	p.boundary = p.boundary[:0]
	for _, s := range player {
		if s >= 0 {
			p.off[s+1]++
		}
	}
	for s := 0; s < shards; s++ {
		p.off[s+1] += p.off[s]
	}
	p.order = resizeInt32(p.order, int(p.off[shards]))
	cursor := append([]int32(nil), p.off[:shards]...)
	if cap(p.resShard) >= shards {
		cursor = p.resShard[:0] // borrow scratch to avoid the alloc
		cursor = append(cursor, p.off[:shards]...)
	}
	for i, s := range player {
		if s < 0 {
			p.boundary = append(p.boundary, int32(i))
			continue
		}
		p.order[cursor[s]] = int32(i)
		cursor[s]++
	}
	return nil
}

// Shards returns the number of shards in the plan.
func (p *ShardPlan) Shards() int {
	if p == nil {
		return 0
	}
	return p.shards
}

// Players returns the number of players the plan covers.
func (p *ShardPlan) Players() int { return len(p.player) }

// Boundary returns how many players are in the boundary set.
func (p *ShardPlan) Boundary() int { return len(p.boundary) }

// check verifies the plan against the bound game: the player count must
// match, and interior players' resources must be disjoint across shards
// (the property that makes the parallel region race-free). The result is
// memoized per game structure generation — one arena pass per build or
// churn, not per solve.
func (p *ShardPlan) check(g *Game) error {
	if len(p.player) != g.Players() {
		return fmt.Errorf("game: shard plan covers %d players, game has %d", len(p.player), g.Players())
	}
	if p.checkedGame == g && p.checkedGen == g.structGen {
		return nil
	}
	p.resShard = resizeInt32(p.resShard, g.Resources())
	for r := range p.resShard {
		p.resShard[r] = -1
	}
	for i, s := range p.player {
		if s < 0 {
			continue
		}
		first, last := g.playerStrategies(i)
		for _, u := range g.uses[g.useOff[first]:g.useOff[last]] {
			switch p.resShard[u.res] {
			case -1:
				p.resShard[u.res] = s
			case s:
			default:
				return fmt.Errorf("game: resource %d used by interior players of shards %d and %d — plan is not resource-disjoint",
					u.res, p.resShard[u.res], s)
			}
		}
	}
	p.checkedGame, p.checkedGen = g, g.structGen
	return nil
}

// sweepEnd is how a sweep stopped.
type sweepEnd int

const (
	sweepQuiet     sweepEnd = iota // a pass moved nobody
	sweepMoved                     // the single pass of a once sweep moved someone
	sweepTruncated                 // a deadline poll found the budget spent
	sweepOverrun                   // the sweep made its budget-th move
)

// sweeper is one sweep's private state: the scratch sweepScore's
// in-place removal needs, the stamp clock, the move budget and deadline
// poll, and the tallies merged after the sweep. Each shard owns one in
// phase 1; phases 2 and 3 and the nil plan share the serial one.
type sweeper struct {
	saveRes  []int32
	saveLoad []float64
	stamps   bool   // skip unchanged players, keep the change stamps
	clock    uint64 // a move advances it, a score records it
	budget   int64  // moves allowed before sweepOverrun

	// Deadline poll: the serial phases consume dl's checkpoints; shards
	// (dl nil) compare the wall clock against the pre-region snapshot
	// and touch no shared deadline state, so a blown budget stops a
	// shard alone.
	dl     *solver.Deadline
	expire time.Time
	timed  bool

	moves, hits, misses int64
	end                 sweepEnd
}

// start readies the sweeper for one sweep: fresh tallies, the given
// scratch, stamp mode, clock and budget, no deadline.
func (sw *sweeper) start(saveRes []int32, saveLoad []float64, stamps bool, clock uint64, budget int64) {
	*sw = sweeper{
		saveRes:  saveRes,
		saveLoad: saveLoad,
		stamps:   stamps,
		clock:    clock,
		budget:   budget,
	}
}

// expired is the sweep's deadline poll.
func (sw *sweeper) expired() bool {
	if sw.dl != nil {
		return sw.dl.Expired()
	}
	return sw.timed && !time.Now().Before(sw.expire)
}

// sweep is the one sweep body of every phase and of the nil plan:
// Gauss–Seidel passes over players in order (with all, over every
// player in index order instead), each λ-dissatisfied player moving to
// its best response at once. With stamps on, a player none of whose
// footprint resources changed since its last score is skipped and
// tallied as a hit: its loads are bit-identical to those it was found
// satisfied against, so a score would reproduce the same bits and move
// nobody. Passes repeat until one moves nobody, or with once end after
// the first pass. Deadline polls sit at each pass start and every 256
// players, before the skip, so the counted checkpoints consumed do not
// depend on which players skip.
func (e *Engine) sweep(sw *sweeper, players []int32, all bool, lambda float64, once bool) sweepEnd {
	g := e.g
	count := len(players)
	if all {
		count = g.Players()
	}
	for {
		moved := false
		for idx := 0; idx < count; idx++ {
			if idx&fastSweepCheckMask == 0 && sw.expired() {
				return sweepTruncated
			}
			i := idx
			if !all {
				i = int(players[idx])
			}
			if sw.stamps && e.unchanged(i) {
				sw.hits++
				continue
			}
			cur, br, brCost := e.sweepScore(i, sw.saveRes, sw.saveLoad)
			sw.misses++
			if sw.stamps {
				e.scoreStamp[i] = sw.clock
			}
			// Algorithm 3 line 2 with the exact loop's relEps guard.
			if (1-lambda)*cur > brCost+relEps*(cur+1) {
				if sw.stamps {
					sw.clock++
					for _, u := range g.strategyUses(i, e.profile[i]) {
						e.resStamp[u.res] = sw.clock
					}
					for _, u := range g.strategyUses(i, int(br)) {
						e.resStamp[u.res] = sw.clock
					}
				}
				e.fastMove(i, int(br))
				sw.moves++
				moved = true
				if sw.moves >= sw.budget {
					return sweepOverrun
				}
			}
		}
		if !moved {
			return sweepQuiet
		}
		if once {
			return sweepMoved
		}
	}
}

// unchanged reports whether no resource in player i's footprint has
// changed load since the player was last scored.
func (e *Engine) unchanged(i int) bool {
	g := e.g
	scored := e.scoreStamp[i]
	for _, r := range g.fpRes[g.fpOff[i]:g.fpOff[i+1]] {
		if e.resStamp[r] > scored {
			return false
		}
	}
	return true
}

// merge adds a finished sweep's tallies to the engine's, moves the
// serial clock past the sweep's, and returns the sweep's move count.
func (e *Engine) merge(sw *sweeper) int {
	e.tally.moves += sw.moves
	e.tally.hits += sw.hits
	e.tally.misses += sw.misses
	if sw.clock > e.clock {
		e.clock = sw.clock
	}
	return int(sw.moves)
}

// shardSweepTask is the persistent parallel-region task (a pointer to it
// converts to par.Task without allocating).
type shardSweepTask struct {
	e      *Engine
	plan   *ShardPlan
	lambda float64
}

// Run sweeps shard sIdx's interior players to a locally certified
// quiescence against the boundary players' frozen loads.
func (t *shardSweepTask) Run(sIdx int) {
	sw := &t.e.shardSw[sIdx]
	sw.end = t.e.sweep(sw, t.plan.order[t.plan.off[sIdx]:t.plan.off[sIdx+1]], false, t.lambda, false)
}

// CGBASharded runs CGBA factorized by the plan: parallel per-shard
// interior solves, serial boundary reconciliation, and a serial global
// certification sweep that alone may terminate the solve. The returned
// profile is a certified λ-equilibrium of the global game, and the
// result is identical at every pool size. A nil or single-shard plan is
// the unsharded solve: serial sweeps over every player until a pass
// moves nobody, that quiet pass being the certification. Configurations
// the sweeps do not model — CGBAConfig.Exact, non-default pivots (the
// sweeps' dynamics are Gauss–Seidel) and per-move objective tracking —
// run the exact loop whatever the plan.
func (e *Engine) CGBASharded(cfg CGBAConfig, plan *ShardPlan, src *rng.Source) (Result, error) {
	if cfg.Lambda < 0 || cfg.Lambda >= 0.125 {
		return Result{}, fmt.Errorf("game: λ = %v outside [0, 0.125)", cfg.Lambda)
	}
	if cfg.Exact || cfg.Pivot != PivotMaxImprovement || cfg.TrackObjective {
		return e.cgbaExact(cfg, src)
	}
	g := e.g
	n := g.Players()
	sharded := plan.Shards() > 1
	if sharded {
		if err := plan.check(g); err != nil {
			return Result{}, err
		}
		g.footprints()
	}

	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 200*n + 10000
	}

	if cfg.Initial != nil {
		if err := e.Reset(cfg.Initial); err != nil {
			return Result{}, err
		}
	} else {
		// Congestion-aware greedy fill instead of the exact loop's random
		// profile: one pass's work, lands near an equilibrium, and draws
		// no RNG. Like any initial profile it only affects which
		// λ-equilibrium the certified dynamics select, never the
		// guarantee.
		e.greedyFill()
	}

	moves := 0
	finish := func(truncated bool, err error) (Result, error) {
		e.invalidateAll()
		e.recordCGBA(moves)
		return Result{
			Profile:    e.profile.Clone(),
			Objective:  e.SocialCost(),
			Iterations: moves,
			Truncated:  truncated,
		}, err
	}
	// serial runs one sweep on the serial sweeper, which borrows the
	// engine's scratch.
	serial := func(players []int32, all, once bool) (end sweepEnd) {
		sw := &e.serialSw
		sw.start(e.saveRes, e.saveLoad, sharded, e.clock, int64(maxIter-moves))
		sw.dl = e.deadline
		end = e.sweep(sw, players, all, cfg.Lambda, once)
		moves += e.merge(sw)
		return end
	}

	if !sharded {
		switch serial(nil, true, false) {
		case sweepTruncated:
			return finish(true, nil)
		case sweepOverrun:
			return finish(false, ErrNoConverge)
		}
		return finish(false, nil)
	}

	// Fresh clock, every resource stamped with it: every score stamp left
	// by an earlier solve is older, so no skip outlives a reweight, a
	// reset, an Engine.Move or a truncated solve.
	e.clock++
	e.resStamp = resizeUint64(e.resStamp, g.Resources())
	for r := range e.resStamp {
		e.resStamp[r] = e.clock
	}
	e.scoreStamp = resizeUint64(e.scoreStamp, n)

	shards := plan.shards
	if cap(e.shardSw) < shards {
		e.shardSw = make([]sweeper, shards)
	} else {
		e.shardSw = e.shardSw[:shards]
	}

	for {
		// Serial checkpoint once per round: the counted budget is consumed
		// at the same points regardless of pool size.
		if e.deadline.Expired() {
			return finish(true, nil)
		}

		// Phase 1 — parallel interior solves. Shard s stamps with the
		// round's base clock plus its own counter and writes only its own
		// players' score stamps and its own resources' change stamps, so
		// the region is race-free (the plan's disjointness check) and its
		// stamps compare correctly within the shard; merge then moves the
		// serial clock past every shard's.
		expire, timed := e.deadline.ExpireTime()
		for s := range e.shardSw {
			sw := &e.shardSw[s]
			sw.start(resizeInt32(sw.saveRes, g.maxUses), resizeFloat(sw.saveLoad, g.maxUses), true, e.clock, int64(maxIter-moves))
			sw.expire, sw.timed = expire, timed
		}
		e.shardT = shardSweepTask{e: e, plan: plan, lambda: cfg.Lambda}
		e.pool.Run(shards, &e.shardT)
		overrun := false
		for s := range e.shardSw {
			moves += e.merge(&e.shardSw[s])
			overrun = overrun || e.shardSw[s].end == sweepOverrun
		}
		if overrun || moves >= maxIter {
			return finish(false, ErrNoConverge)
		}

		// Phase 2 — serial boundary reconciliation: sweeps over the
		// boundary players against the shards' frozen congestion sums,
		// until a quiet pass.
		switch serial(plan.boundary, false, false) {
		case sweepTruncated:
			return finish(true, nil)
		case sweepOverrun:
			return finish(false, ErrNoConverge)
		}

		// Phase 3 — serial global certification: one pass over every
		// player in index order. sweepScore is refresh's arithmetic, so a
		// quiet pass proves every player (interior and boundary) is within
		// λ of its true best response — a certified λ-equilibrium of the
		// global game. Any move sends the solve into another round: the
		// sharded decomposition converges because every phase only ever
		// applies λ-improving moves to the one global potential.
		switch serial(nil, true, true) {
		case sweepTruncated:
			return finish(true, nil)
		case sweepOverrun:
			return finish(false, ErrNoConverge)
		case sweepQuiet:
			return finish(false, nil)
		}
	}
}

func resizeUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}
