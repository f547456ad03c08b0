// Engine: the mutable solve state of a Game. The Game arena is immutable
// structure; an Engine owns a profile and the per-resource loads, kept
// current in O(resources-touched) per move. The exact CGBA loop scores
// every player against those loads each iteration (sweepScore, shared
// with the sweeps); it keeps no per-player cache, because on the paper's
// topology a move touches a resource nearly every player uses, so a cache
// invalidated on each move would be rescored anyway.
//
// Exact equivalence is the contract: every score is computed with the
// same floating-point operations, in the same order, as the one-shot
// reference methods (Game.PlayerCost and Game.bestResponse, kept in
// oracle_test.go, and Game.Loads), so the engine-backed CGBA/MCBA
// reproduce the original implementation bit-for-bit. The property and
// golden tests in engine_test.go enforce this.
package game

import (
	"errors"
	"math"

	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/solver"
)

// Engine is reusable mutable solve state bound to one Game. It is not safe
// for concurrent use; create one Engine per goroutine. (An attached
// par.Pool does not change that contract: the engine drives the pool's
// workers from inside a single Engine call, never the other way around.)
type Engine struct {
	g       *Game
	profile Profile
	loads   []float64

	// Scratch buffers (hoisted out of the solve loops).
	scan       scan  // the exact loop's and greedyFill's best-response scratch
	candidates []int // PivotRandom mover candidates
	candStrats []int
	scratchLds []float64 // fresh-loads scratch for exact SocialCost
	mcbaBest   Profile   // MCBA best-so-far buffer

	// Observability (see instruments.go): instr holds the optional obs
	// handles; tally is the engine-local count state flushed per solve.
	instr Instruments
	tally engineTallies

	// pool runs the sharded solve's parallel phase (see engine_shard.go).
	pool *par.Pool

	// deadline, when non-nil, is polled at iteration boundaries: an
	// expired deadline truncates the solve, returning the current
	// (feasible) iterate with Result.Truncated set. Nil never expires,
	// so the undeadlined path is unchanged (see SetDeadline).
	deadline *solver.Deadline

	// Sharded solve's change stamps (see engine_shard.go): resStamp[r] is
	// the clock value of resource r's last load change, scoreStamp[i] the
	// clock value of player i's last score, and clock the serial clock.
	resStamp   []uint64
	scoreStamp []uint64
	clock      uint64

	// Sweep driver (see engine_shard.go): per-shard sweepers, the serial
	// sweeper, and the persistent parallel-region task.
	shardSw  []sweeper
	serialSw sweeper
	shardT   shardSweepTask
}

// NewEngine returns an Engine bound to g.
func NewEngine(g *Game) *Engine {
	e := &Engine{}
	e.Bind(g)
	return e
}

// Bind (re)binds the engine to a game, resizing buffers without
// reallocating when capacities suffice — the cross-slot reuse path where
// a Builder rebuilt the arena in place. Call Reset or ResetRandom before
// querying. The profile is poisoned (every entry -1, never a valid
// strategy) so a recycled profile from an earlier binding can never pass
// Game.Valid as a solved one.
func (e *Engine) Bind(g *Game) {
	e.g = g
	n, r := g.Players(), g.Resources()
	e.profile = resizeProfile(e.profile, n)
	for i := range e.profile {
		e.profile[i] = -1
	}
	e.loads = resizeFloat(e.loads, r)
	e.scan.resize(g)
	e.scratchLds = resizeFloat(e.scratchLds, r)
}

// SetDeadline attaches a cooperative deadline polled at CGBA/MCBA
// iteration boundaries. When the deadline expires mid-solve the engine
// returns its current feasible iterate (CGBA) or best-so-far profile
// (MCBA) with Result.Truncated set instead of running to termination. A
// nil deadline (the default) never expires and adds only a nil check per
// iteration, keeping the undeadlined solve bit-identical.
func (e *Engine) SetDeadline(dl *solver.Deadline) { e.deadline = dl }

// Reset sets the engine to the given profile, recomputing loads from
// scratch.
func (e *Engine) Reset(p Profile) error {
	if !e.g.Valid(p) {
		return errors.New("game: invalid initial profile")
	}
	copy(e.profile, p)
	e.reload()
	return nil
}

// ResetRandom sets a uniformly random profile, drawing exactly one Intn
// per player in index order (the draw sequence CGBA's one-shot path uses).
func (e *Engine) ResetRandom(src *rng.Source) {
	for i := range e.profile {
		e.profile[i] = src.Intn(e.g.StrategyCount(i))
	}
	e.reload()
}

func (e *Engine) reload() {
	clearFloats(e.loads)
	e.g.loadsInto(e.loads, e.profile)
}

// score evaluates player i against the current loads on the engine's
// scratch, tallied as a cache miss: its current cost T_i(z) and its best
// response. sweepScore's arithmetic mirrors Game.PlayerCost and
// Game.bestResponse exactly.
func (e *Engine) score(i int) (cur float64, best int32, bestCost float64) {
	e.tally.misses++
	return e.sweepScore(i, &e.scan)
}

// SocialCost returns Σ_r m_r p_r(z)² for the current profile, recomputed
// from scratch (not from the incrementally maintained loads) so the value
// is bit-identical to Game.SocialCost.
func (e *Engine) SocialCost() float64 {
	clearFloats(e.scratchLds)
	e.g.loadsInto(e.scratchLds, e.profile)
	obj := 0.0
	for r, l := range e.scratchLds {
		obj += e.g.weights[r] * l * l
	}
	return obj
}

// relEps guards against floating-point non-termination at λ = 0: a move
// must improve by more than a vanishing relative amount.
const relEps = 1e-12

// dissatisfied reports whether player i can improve beyond the λ
// tolerance, returning its best response when so.
func (e *Engine) dissatisfied(i int, lambda float64) (strategy int, improve float64, ok bool) {
	cur, br, c := e.score(i)
	// Algorithm 3 line 2: (1−λ)·T_i > min T_i.
	if (1-lambda)*cur <= c+relEps*(cur+1) {
		return 0, 0, false
	}
	return int(br), cur - c, true
}

// CGBA runs Algorithm 3 on the engine. The paper's max-improvement
// rule runs as Gauss–Seidel sweeps (CGBASharded with a nil plan): a
// certified λ-equilibrium with the same 2.62/(1−8λ) guarantee. The exact
// loop below runs only when the config asks for it — CGBAConfig.Exact, a
// non-default pivot, or TrackObjective. The engine's state is reset on
// entry.
func (e *Engine) CGBA(cfg CGBAConfig, src *rng.Source) (Result, error) {
	return e.CGBASharded(cfg, nil, src)
}

// cgbaExact is the exact loop: each iteration the pivot rule scores the
// players against the incrementally maintained loads and picks one
// dissatisfied player, which moves to its best response. The result —
// profile, objective, iteration count, RNG draw sequence — is
// bit-identical to the one-shot best-response dynamics for the same
// inputs. λ has been validated when this runs.
func (e *Engine) cgbaExact(cfg CGBAConfig, src *rng.Source) (Result, error) {
	g := e.g
	n := g.Players()

	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 200*n + 10000
	}

	if cfg.Initial != nil {
		if err := e.Reset(cfg.Initial); err != nil {
			return Result{}, err
		}
	} else {
		e.ResetRandom(src)
	}

	var objTrace []float64
	if cfg.TrackObjective {
		objTrace = append(objTrace, g.SocialCost(e.profile))
	}

	iterations := 0
	rrCursor := 0
	for ; iterations < maxIter; iterations++ {
		// Deadline checkpoint: one poll per iteration, before any scoring
		// work. The checkpoint count is a function of the iteration count
		// alone, so counted budgets degrade deterministically. The
		// current iterate is always a feasible profile, so truncation can
		// return it directly.
		if e.deadline.Expired() {
			e.recordCGBA(iterations)
			return Result{
				Profile:        e.profile.Clone(),
				Objective:      e.SocialCost(),
				Iterations:     iterations,
				ObjectiveTrace: objTrace,
				Truncated:      true,
			}, nil
		}
		mover, strategy := -1, -1
		switch cfg.Pivot {
		case PivotRoundRobin:
			for scanned := 0; scanned < n; scanned++ {
				i := (rrCursor + scanned) % n
				if s, _, ok := e.dissatisfied(i, cfg.Lambda); ok {
					mover, strategy = i, s
					rrCursor = (i + 1) % n
					break
				}
			}
		case PivotRandom:
			e.candidates = e.candidates[:0]
			e.candStrats = e.candStrats[:0]
			for i := 0; i < n; i++ {
				if s, _, ok := e.dissatisfied(i, cfg.Lambda); ok {
					e.candidates = append(e.candidates, i)
					e.candStrats = append(e.candStrats, s)
				}
			}
			if len(e.candidates) > 0 {
				pick := src.Intn(len(e.candidates))
				mover, strategy = e.candidates[pick], e.candStrats[pick]
			}
		default: // PivotMaxImprovement — Algorithm 3 line 3
			bestImprove := 0.0
			for i := 0; i < n; i++ {
				if s, improve, ok := e.dissatisfied(i, cfg.Lambda); ok && improve > bestImprove {
					bestImprove = improve
					mover, strategy = i, s
				}
			}
		}
		if mover < 0 {
			e.recordCGBA(iterations)
			return Result{
				Profile:        e.profile.Clone(),
				Objective:      e.SocialCost(),
				Iterations:     iterations,
				ObjectiveTrace: objTrace,
			}, nil
		}
		e.move(mover, strategy)
		e.tally.moves++
		if cfg.TrackObjective {
			objTrace = append(objTrace, g.SocialCost(e.profile))
		}
	}
	e.recordCGBA(iterations)
	return Result{
		Profile:        e.profile.Clone(),
		Objective:      e.SocialCost(),
		Iterations:     iterations,
		ObjectiveTrace: objTrace,
	}, ErrNoConverge
}

// recordCGBA flushes the solve's tallies and records its iteration count.
func (e *Engine) recordCGBA(iterations int) {
	e.instr.CGBASolves.Inc()
	e.instr.CGBAIterations.Observe(float64(iterations))
	e.flushInstr()
}

// IsEquilibrium reports whether the engine's current profile is a λ-Nash
// equilibrium under the given tolerance, scoring every player.
func (e *Engine) IsEquilibrium(tol float64) bool {
	for i := range e.profile {
		if cur, _, c := e.score(i); (1-tol)*cur > c+1e-9*(cur+1) {
			return false
		}
	}
	return true
}

// MCBA runs the Markov chain Monte Carlo baseline on the engine, reusing
// its profile/loads buffers as the walk state. Draw sequence and result
// are bit-identical to the package-level MCBA.
func (e *Engine) MCBA(cfg MCBAConfig, src *rng.Source) (Result, error) {
	g := e.g
	n := g.Players()
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 400 * n
	}
	cooling := cfg.Cooling
	if cooling <= 0 || cooling > 1 {
		cooling = 0.999
	}

	e.ResetRandom(src)
	profile, loads := e.profile, e.loads
	cur := g.SocialCost(profile)

	temp := cfg.Temperature
	if temp <= 0 {
		temp = 0.1
	}
	temp *= cur + 1 // scale to the objective

	e.mcbaBest = resizeProfile(e.mcbaBest, n)
	best := e.mcbaBest
	copy(best, profile)
	bestObj := cur
	for it := 0; it < iters; it++ {
		// Deadline checkpoint every 64 moves: the walk is too hot to pay a
		// time.Now() per iteration, and 64 keeps the counted-checkpoint
		// sequence deterministic (it depends only on the iteration index).
		if it&63 == 0 && e.deadline.Expired() {
			e.instr.MCBAIterations.Observe(float64(it))
			e.flushInstr()
			return Result{Profile: best.Clone(), Objective: g.SocialCost(best), Iterations: it, Truncated: true}, nil
		}
		i := src.Intn(n)
		count := g.StrategyCount(i)
		if count == 1 {
			continue
		}
		s := src.Intn(count)
		if s == profile[i] {
			continue
		}
		old := profile[i]
		oldUses := g.strategyUses(i, old)
		newUses := g.strategyUses(i, s)
		// Δ objective of the unilateral move: because the social cost is
		// Σ_r m_r p_r², the delta equals the mover's cost change times 2
		// minus the self-term corrections; recompute incrementally via
		// player costs against updated loads. The loops below are
		// Game.PlayerCost and Game.applyMove inlined by hand (the walk is
		// too hot for the call overhead), with identical operation order.
		before := 0.0
		for _, u := range oldUses {
			before += u.wm * loads[u.res]
		}
		for _, u := range oldUses {
			loads[u.res] -= u.w
		}
		profile[i] = s
		for _, u := range newUses {
			loads[u.res] += u.w
		}
		after := 0.0
		for _, u := range newUses {
			after += u.wm * loads[u.res]
		}
		// ΔΦ = after − before, and ΔSocial = 2·ΔΦ − Δ(self terms) where
		// the self terms Σ m p² differ between the two strategies.
		delta := 2 * (after - before)
		for _, u := range newUses {
			delta -= u.wm * u.w
		}
		for _, u := range oldUses {
			delta += u.wm * u.w
		}
		accept := delta <= 0 || src.Float64() < math.Exp(-delta/temp)
		if accept {
			cur += delta
			if cur < bestObj {
				bestObj = cur
				copy(best, profile)
			}
		} else {
			for _, u := range newUses {
				loads[u.res] -= u.w
			}
			profile[i] = old
			for _, u := range oldUses {
				loads[u.res] += u.w
			}
		}
		temp *= cooling
	}
	e.instr.MCBAIterations.Observe(float64(iters))
	e.flushInstr()
	return Result{Profile: best.Clone(), Objective: g.SocialCost(best), Iterations: iters}, nil
}

// resizeProfile grows a recycled profile to n entries with make-parity
// semantics: slots beyond the previous length are zeroed, so a
// shrink-then-grow cycle (population churn) never resurfaces stale
// strategy indices from an earlier, larger binding.
func resizeProfile(p Profile, n int) Profile {
	if cap(p) < n {
		return make(Profile, n)
	}
	old := len(p)
	p = p[:n]
	for i := old; i < n; i++ {
		p[i] = 0
	}
	return p
}
