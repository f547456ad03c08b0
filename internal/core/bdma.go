package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"eotora/internal/game"
	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/solver"
	"eotora/internal/trace"
)

// ErrSlotDeadline reports that a slot deadline expired before any feasible
// decision was produced. The controller's fallback ladder treats it as a
// signal to descend a rung (reuse the previous decision, then the greedy
// baseline); any other solver error still propagates as a hard failure.
var ErrSlotDeadline = errors.New("core: slot deadline expired before a decision was found")

// BDMAConfig parameterizes Algorithm 2.
type BDMAConfig struct {
	// Iterations is z, the number of alternating rounds (paper: z = 5 for
	// the DPP experiments): at most z rounds run; the alternation stops
	// after a round that provably replays, with the decision bit-identical
	// to running all z. Zero selects 1, the value used by the Theorem 3
	// proof.
	Iterations int
	// Solver solves P2-A each round; nil selects CGBA(0).
	Solver P2ASolver
}

// BDMAResult is the decision of Algorithm 2 plus solver statistics.
type BDMAResult struct {
	// Selection is (x̄_t, ȳ_t).
	Selection Selection
	// Freq is Ω̄_t.
	Freq Frequencies
	// Objective is f(x̄, ȳ, Ω̄) = V·T_t + Q·Θ.
	Objective float64
	// Latency is T_t(x̄, ȳ, Ω̄, β) in seconds summed over devices.
	Latency float64
	// Theta is Θ(Ω̄, p_t) = C_t − C̄.
	Theta float64
	// SolverIterations accumulates the P2-A solver's iterations across
	// the z rounds (the Figure 5/6 complexity metric).
	SolverIterations int
	// RoomThetas holds the per-room violations Θ_m under the per-room
	// budget extension (nil in the paper's global-budget mode).
	RoomThetas map[int]float64
	// Degraded reports that the slot deadline expired during the solve:
	// the decision is the best feasible iterate found before expiry (an
	// anytime result) and does not carry the full z-round Theorem 3
	// guarantee. Always false when no deadline is armed.
	Degraded bool
}

// BDMA runs Algorithm 2, the Benders'-decomposition-motivated alternation:
// starting from Ω = Ω^L it repeats at most z times — solve P2-A for (x, y)
// under the current Ω, then solve P2-B for Ω under the new (x, y) — and
// returns the best iterate under the P2 objective f = V·T_t + Q·Θ. It
// stops after a round that provably replays (a warm-started round that
// moved no player and reproduced its Ω): the remaining rounds would
// repeat it bit for bit, so the decision equals the full z-round one.
//
// Theorem 3: the returned decision satisfies
// V·T(ᾱ) + Q·Θ(Ω̄) ≤ R·V·T(α) + Q·Θ(Ω) for any feasible α, with
// R = 2.62·R_F/(1−8λ) and R_F = max_n F_n^U/F_n^L.
func (s *System) BDMA(st *trace.State, v, q float64, cfg BDMAConfig, src *rng.Source) (BDMAResult, error) {
	return s.bdmaScratch(st, v, q, cfg, src, nil, solveInstr{}, nil, nil)
}

// bdmaScratch is BDMA with an optional reusable P2A; the controller passes
// its per-instance scratch so steady-state slots rebuild the game arena in
// place instead of reallocating it, plus its solve instruments and its
// worker pool (nil = serial; results are bit-identical either way). dl is
// the optional slot deadline threaded down to the round checkpoints, the
// P2-A engine, and P2-B (nil never expires).
func (s *System) bdmaScratch(st *trace.State, v, q float64, cfg BDMAConfig, src *rng.Source, scratch *P2A, in solveInstr, pool *par.Pool, dl *solver.Deadline) (BDMAResult, error) {
	if q < 0 || math.IsNaN(q) {
		return BDMAResult{}, fmt.Errorf("core: BDMA needs Q ≥ 0, got %v", q)
	}
	solve := func(compute []float64, sdl *solver.Deadline) (Frequencies, error) {
		return s.solveP2B(compute, st, v, func(int) float64 { return q }, in, pool, sdl)
	}
	objective := func(latency float64, freq Frequencies) float64 {
		return s.p2Objective(latency, freq, st, v, q)
	}
	best, err := s.bdmaLoop(st, cfg, src, solve, objective, scratch, in, pool, dl)
	if err != nil {
		return BDMAResult{}, err
	}
	best.Theta = s.ThetaActive(best.Freq, st.Price, st.ServerActive)
	return best, nil
}

// bdmaLoop is the shared alternation body of Algorithm 2, parameterized by
// the P2-B solver and the P2 objective so the global-budget and per-room
// variants share one implementation. scratch, when non-nil, supplies a
// reusable P2A; round 0 rebuilds it for the slot state and later rounds
// only reweight the N compute resources (the sole Ω-dependent part of the
// game), skipping the structural rebuild entirely. in records the
// alternation's round statistics, executed and skipped (zero value
// records nothing); pool is the intra-slot worker pool handed down to the
// P2-A engine (the sharded solve's interior sweeps) — the P2-B closure
// captured it already.
//
// Each round is priced from its profile on the game, not from the state:
// the round's loads p_r(z) are the Lemma-1 sums of its selection (the
// game's player-resource weights are the same square roots, added in the
// same device order), so P2-B reads its per-server sums A_n from the
// compute loads, and the objective and Latency reduce the loads with
// lemma1Latency. The best round's profile and loads stay in scratch for
// the controller's allocation (P2A.bestAllocation), and the Selection
// is materialized once, from that profile.
//
// dl, when non-nil, is the slot deadline. Checkpoints sit at round
// boundaries, inside the P2-A engine's iteration loop, and at P2-B entry.
// On expiry the loop returns the best feasible decision found so far with
// Degraded set (the anytime contract); a truncated P2-A solve is still
// priced by a deadline-free P2-B pass — a bounded grace completion — so
// its iterate becomes a full (x, y, Ω) decision rather than being thrown
// away. ErrSlotDeadline is returned only when expiry precedes the first
// complete round, i.e. there is no decision to degrade to. A replay exit
// precedes the next round's checkpoint, so a budget that would have run
// out only inside skipped rounds leaves the decision undegraded.
func (s *System) bdmaLoop(
	st *trace.State,
	cfg BDMAConfig,
	src *rng.Source,
	solveP2B func(compute []float64, sdl *solver.Deadline) (Frequencies, error),
	objective func(latency float64, freq Frequencies) float64,
	scratch *P2A,
	in solveInstr,
	pool *par.Pool,
	dl *solver.Deadline,
) (BDMAResult, error) {
	if err := s.CheckState(st); err != nil {
		return BDMAResult{}, err
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 1
	}
	p2aSolver := cfg.Solver
	if p2aSolver == nil {
		p2aSolver = CGBASolver{}
	}
	if scratch == nil {
		scratch = new(P2A)
	}
	scratch.SetPool(pool)
	scratch.SetDeadline(dl)

	freq := s.LowestFrequencies()
	best := BDMAResult{Objective: math.Inf(1)}
	bestRound := 0
	rounds, skipped := 0, 0
	var warm game.Profile
	for iter := 0; iter < iters; iter++ {
		// Round-boundary checkpoint: one poll per round, so counted
		// budgets degrade identically at every pool size.
		if iter > 0 && dl.Expired() {
			best.Degraded = true
			break
		}
		var err error
		if iter == 0 {
			// Every slot rebuilds into the recycled arena; the state was
			// checked above.
			err = s.buildP2A(scratch, st, freq)
		} else {
			err = scratch.Reweight(freq)
		}
		if err != nil {
			return BDMAResult{}, fmt.Errorf("core: BDMA round %d: %w", iter, err)
		}
		// Rounds after the first warm-start from the previous round's
		// profile when the solver supports it: only the compute weights
		// changed since, so the old equilibrium is a near-equilibrium of
		// the new game and the best-response transient collapses. The warm
		// profile never crosses a slot boundary.
		var res game.Result
		var err2 error
		replay := false
		if ws, ok := p2aSolver.(warmStartSolver); ok && warm != nil {
			res, err2 = ws.SolveFrom(scratch, warm, src)
			replay = res.Iterations == 0 && slices.Equal(res.Profile, warm)
		} else {
			res, err2 = p2aSolver.Solve(scratch, src)
		}
		if err2 != nil {
			return BDMAResult{}, fmt.Errorf("core: BDMA round %d (%s): %w", iter, p2aSolver.Name(), err2)
		}
		warm = res.Profile
		best.SolverIterations += res.Iterations
		loads := scratch.priceLoads(res.Profile)
		compute, _, _ := s.splitSums(loads)

		// A truncated P2-A iterate is still a feasible profile; price it
		// with a deadline-free P2-B grace pass (bounded: N golden-section
		// solves) so the anytime result is a complete decision.
		sdl := dl
		if res.Truncated {
			best.Degraded = true
			sdl = nil
		}
		built := freq
		freq, err = solveP2B(compute, sdl)
		if err != nil {
			if errors.Is(err, ErrSlotDeadline) {
				best.Degraded = true
				break
			}
			return BDMAResult{}, fmt.Errorf("core: BDMA round %d: %w", iter, err)
		}

		rounds++
		latency := s.lemma1Latency(loads, freq, st)
		if obj := objective(latency, freq); obj < best.Objective {
			best.Objective = obj
			best.Latency = latency
			best.Freq = freq
			scratch.best = append(scratch.best[:0], res.Profile...)
			scratch.bestLoads = append(scratch.bestLoads[:0], loads...)
			bestRound = iter + 1
		}
		if res.Truncated {
			break
		}
		// Exit on replay: a warm-started round that moved no player and
		// re-derived the Ω its game was built with leaves the next round
		// an identical game and initial profile. A solve that makes no
		// move draws no RNG, so every later round replays this one bit
		// for bit and its objective cannot beat best.
		if replay && slices.Equal(freq, built) {
			skipped = iters - iter - 1
			break
		}
	}
	if bestRound == 0 {
		if best.Degraded {
			return BDMAResult{}, fmt.Errorf("core: BDMA: %w", ErrSlotDeadline)
		}
		return BDMAResult{}, errors.New("core: BDMA produced no decision")
	}
	in.bdmaRounds.Add(int64(rounds))
	in.bdmaSkipped.Add(int64(skipped))
	in.bdmaBestRound.Observe(float64(bestRound))
	best.Selection = scratch.Selection(scratch.best)
	return best, nil
}

// ApproxRatio returns the R of Theorem 3 for this system and λ:
// R = 2.62·R_F/(1−8λ), with R_F the largest frequency-range ratio.
func (s *System) ApproxRatio(lambda float64) (float64, error) {
	if lambda < 0 || lambda >= 0.125 {
		return 0, fmt.Errorf("core: λ = %v outside [0, 0.125)", lambda)
	}
	rf := 0.0
	for n := range s.Net.Servers {
		r := float64(s.Net.Servers[n].MaxFreq) / float64(s.Net.Servers[n].MinFreq)
		if r > rf {
			rf = r
		}
	}
	return 2.62 * rf / (1 - 8*lambda), nil
}
