package game

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"eotora/internal/rng"
	"eotora/internal/solver"
)

// runCGBA solves g with a fresh engine.
func runCGBA(t testing.TB, g *Game, cfg CGBAConfig, seed int64) Result {
	t.Helper()
	res, err := NewEngine(g).CGBA(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Truncated != want.Truncated {
		t.Errorf("%s: truncated %v, want %v", label, got.Truncated, want.Truncated)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Errorf("%s: objective bits %#x, want %#x",
			label, math.Float64bits(got.Objective), math.Float64bits(want.Objective))
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d, want %d", label, got.Iterations, want.Iterations)
	}
	if !reflect.DeepEqual(got.Profile, want.Profile) {
		t.Fatalf("%s: profile %v, want %v", label, got.Profile, want.Profile)
	}
}

// referenceSweep is the specification of the unsharded sweep, written
// from the Game's one-shot methods: the greedy fill (players placed in
// index order, each on its cheapest strategy against those already
// placed) or cfg.Initial, then plain full-width Gauss–Seidel passes in
// index order until one moves nobody. A positive checks is a counted
// deadline budget: the sweep polls at each pass start and every 256
// players, and the poll after the budget's last checkpoint truncates it.
// It ignores MaxIterations.
func referenceSweep(g *Game, cfg CGBAConfig, checks int) Result {
	p, loads := referenceStart(g, cfg)
	moves, polls := 0, 0
	result := func(truncated bool) Result {
		return Result{Profile: p, Objective: g.SocialCost(p), Iterations: moves, Truncated: truncated}
	}
	for moved := true; moved; {
		moved = false
		for i := range p {
			if i%256 == 0 {
				if polls++; checks > 0 && polls > checks {
					return result(true)
				}
			}
			cur := g.PlayerCost(p, loads, i)
			if s, c := g.bestResponse(p, loads, i); (1-cfg.Lambda)*cur > c+relEps*(cur+1) {
				g.applyMove(p, loads, i, s)
				moves++
				moved = true
			}
		}
	}
	return result(false)
}

// referenceStart is the reference solvers' initial profile and its
// loads: cfg.Initial, or the greedy fill (players placed in index order,
// each on its cheapest strategy against those already placed).
func referenceStart(g *Game, cfg CGBAConfig) (Profile, []float64) {
	p := make(Profile, g.Players())
	loads := make([]float64, g.Resources())
	if cfg.Initial != nil {
		copy(p, cfg.Initial)
		g.loadsInto(loads, p)
		return p, loads
	}
	for i := range p {
		best, bestCost := 0, math.Inf(1)
		for s := 0; s < g.StrategyCount(i); s++ {
			c := 0.0
			for _, u := range g.strategyUses(i, s) {
				c += u.wm * (loads[u.res] + u.w)
			}
			if c < bestCost {
				best, bestCost = s, c
			}
		}
		p[i] = best
		for _, u := range g.strategyUses(i, best) {
			loads[u.res] += u.w
		}
	}
	return p, loads
}

// requireSweepMatchesReference solves g with a fresh engine and twice
// with one reused engine, and requires each result to equal
// referenceSweep bit for bit and to certify as a λ-equilibrium of g.
func requireSweepMatchesReference(t *testing.T, build func() *Game, cfg CGBAConfig) {
	t.Helper()
	g := build()
	want := referenceSweep(g, cfg, 0)
	if !g.IsEquilibrium(want.Profile, cfg.Lambda) {
		t.Fatalf("reference result is not a λ=%v equilibrium", cfg.Lambda)
	}
	requireSameResult(t, "fresh", runCGBA(t, build(), cfg, 1), want)
	// Engine reuse (the BDMA-round pattern) must match fresh.
	e := NewEngine(build())
	for rep := 0; rep < 2; rep++ {
		got, err := e.CGBA(cfg, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("reuse %d", rep), got, want)
	}
}

// TestCGBASweepMatchesReference pins the sweep's dynamics: at every
// width from 2 to 24 strategies, the default CGBA must reproduce
// referenceSweep — profile, iterations and objective bits — at every λ,
// from the greedy fill and from an Initial profile, on fresh and reused
// engines.
func TestCGBASweepMatchesReference(t *testing.T) {
	for _, lambda := range []float64{0, 0.05, 0.1} {
		for _, start := range []string{"cold", "initial"} {
			t.Run(fmt.Sprintf("lambda=%v/%s", lambda, start), func(t *testing.T) {
				for width := 2; width <= 24; width++ {
					build := func() *Game { return randomGame(t, rng.New(601), 40, width, 10) }
					cfg := CGBAConfig{Lambda: lambda}
					if start == "initial" {
						src := rng.New(603)
						cfg.Initial = make(Profile, 40)
						for i := range cfg.Initial {
							cfg.Initial[i] = src.Intn(width)
						}
					}
					requireSweepMatchesReference(t, build, cfg)
				}
			})
		}
	}
}

// TestCGBASweepMatchesReferenceFactored is TestCGBASweepMatchesReference
// on factoredGames, whose near-ties the factored best response must
// break as the arena scan does; GreedyProfile, which runs the same scan,
// must place every player where referenceStart does.
func TestCGBASweepMatchesReferenceFactored(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		build := func() *Game {
			g, _ := factoredGame(t, rng.New(800+seed), 1, 40, 0)
			return g
		}
		g := build()
		if f := factoredPlayers(g); 4*f < g.Players() {
			t.Fatalf("seed %d: only %d of %d players factored", seed, f, g.Players())
		}
		want, _ := referenceStart(g, CGBAConfig{})
		if got := GreedyProfile(g).Profile; !reflect.DeepEqual(got, want) {
			t.Errorf("seed %d: GreedyProfile %v, want %v", seed, got, want)
		}
		for _, lambda := range []float64{0, 0.05, 0.1} {
			for _, start := range []string{"cold", "initial"} {
				t.Run(fmt.Sprintf("seed=%d/lambda=%v/%s", seed, lambda, start), func(t *testing.T) {
					cfg := CGBAConfig{Lambda: lambda}
					if start == "initial" {
						src := rng.New(seed)
						cfg.Initial = make(Profile, g.Players())
						for i := range cfg.Initial {
							cfg.Initial[i] = src.Intn(g.StrategyCount(i))
						}
					}
					requireSweepMatchesReference(t, build, cfg)
				})
			}
		}
	}
}

// TestCGBASweepDeadlinePolls pins where the unsharded sweep polls its
// deadline: for every counted budget short of a full solve, the result
// — profile, iterations, truncation — must equal referenceSweep's under
// the same budget, on a game wider than one 256-player poll stride and
// on a narrow one.
func TestCGBASweepDeadlinePolls(t *testing.T) {
	for _, tc := range []struct {
		name                           string
		players, strategies, resources int
	}{
		{"wide", 600, 24, 40},
		{"narrow", 40, 6, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGame(t, rng.New(631), tc.players, tc.strategies, tc.resources)
			cfg := CGBAConfig{Lambda: 0.01}
			e := NewEngine(g)
			for checks := 1; ; checks++ {
				var dl solver.Deadline
				dl.Start(0, checks)
				e.SetDeadline(&dl)
				got, err := e.CGBA(cfg, rng.New(1))
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, fmt.Sprintf("%d checkpoints", checks), got, referenceSweep(g, cfg, checks))
				if !got.Truncated {
					if checks < 3 {
						t.Fatalf("%d checkpoints sufficed: too few truncated solves", checks)
					}
					break
				}
			}
		})
	}
}

// TestCGBAExactRoutingBitIdentical: CGBAConfig.Exact, non-default pivots
// and TrackObjective take the exact loop, bit-identical to an Exact
// solve on the same RNG stream, run after run.
func TestCGBAExactRoutingBitIdentical(t *testing.T) {
	cases := []struct {
		name       string
		strategies int
		cfg        CGBAConfig
	}{
		{"exact-flag", 20, CGBAConfig{Exact: true}},
		{"round-robin", 20, CGBAConfig{Pivot: PivotRoundRobin}},
		{"random", 20, CGBAConfig{Pivot: PivotRandom}},
		{"track-objective", 20, CGBAConfig{TrackObjective: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Game {
				return randomGame(t, rng.New(501), 30, tc.strategies, 12)
			}
			exactCfg := tc.cfg
			exactCfg.Exact = true
			want := runCGBA(t, build(), exactCfg, 502)
			for run := 0; run < 2; run++ {
				requireSameResult(t, fmt.Sprintf("run %d", run), runCGBA(t, build(), tc.cfg, 502), want)
			}
		})
	}
}

// TestCGBASweepInitialProfile checks the warm-start entry: a supplied
// Initial seeds the sweep dynamics (instead of the greedy fill) and the
// result is still a certified equilibrium; an already-certified profile
// terminates with zero moves.
func TestCGBASweepInitialProfile(t *testing.T) {
	g := randomGame(t, rng.New(611), 25, 24, 9)
	first, err := CGBA(g, CGBAConfig{}, rng.New(612))
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := CGBAConfig{Initial: first.Profile}
	warm, err := CGBA(g, warmCfg, rng.New(613))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations != 0 {
		t.Errorf("warm start from an equilibrium made %d moves, want 0", warm.Iterations)
	}
	if !reflect.DeepEqual(warm.Profile, first.Profile) {
		t.Fatalf("warm start moved off the equilibrium: %v, want %v", warm.Profile, first.Profile)
	}
	// An arbitrary initial profile must still converge to a certified
	// equilibrium.
	arb := make(Profile, g.Players())
	warmCfg.Initial = arb
	res, err := CGBA(g, warmCfg, rng.New(614))
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsEquilibrium(res.Profile, 0) {
		t.Fatal("sweep from arbitrary initial profile is not an equilibrium")
	}
}

// TestCGBASweepReweightMatchesFreshBuild: after SetResourceWeights a
// reused engine must solve exactly like a fresh build with the new
// weights — even when the reweight inverts which resources are cheap.
func TestCGBASweepReweightMatchesFreshBuild(t *testing.T) {
	src := rng.New(641)
	weights := []float64{1.0, 1.1, 0.9, 1.2, 1.05, 0.95}
	strats := randomStrategies(src, 15, 24, len(weights))
	g, err := New(weights, strats)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	var cfg CGBAConfig
	before, err := e.CGBA(cfg, rng.New(642))
	if err != nil {
		t.Fatal(err)
	}

	// Invert the weight landscape: formerly cheap resources become 50x
	// more expensive, so stale premultiplied factors would steer into
	// congestion.
	newWeights := []float64{50, 1.1, 45, 1.2, 55, 0.95}
	if err := g.SetResourceWeights(0, newWeights); err != nil {
		t.Fatal(err)
	}
	got, err := e.CGBA(cfg, rng.New(643))
	if err != nil {
		t.Fatal(err)
	}
	freshG, err := New(newWeights, strats)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := CGBA(freshG, cfg, rng.New(643))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "reweighted vs fresh", got, wantRes)
	if reflect.DeepEqual(got.Profile, before.Profile) && got.Iterations == before.Iterations {
		t.Log("note: reweight left the equilibrium unchanged (legal but suspicious)")
	}
	if !freshG.IsEquilibrium(got.Profile, 0) {
		t.Fatal("post-reweight sweep result is not an equilibrium of the reweighted game")
	}
}

// TestResizeShrinkGrowZeroesTail pins the make-parity semantics of
// resizeProfile: a shrink-then-grow cycle (population churn) must hand
// back zeroed tail slots, never stale strategy indices from an earlier,
// larger binding.
func TestResizeShrinkGrowZeroesTail(t *testing.T) {
	p := Profile{7, 8, 9, 6}
	p = resizeProfile(p, 2)
	p = resizeProfile(p, 4)
	if len(p) != 4 || p[0] != 7 || p[1] != 8 {
		t.Fatalf("resizeProfile clobbered live slots: %v", p)
	}
	if p[2] != 0 || p[3] != 0 {
		t.Fatalf("resizeProfile resurfaced stale tail slots: %v", p)
	}
	// Growth past capacity allocates fresh (and therefore zero) storage.
	p = resizeProfile(p, 100)
	for i := 4; i < 100; i++ {
		if p[i] != 0 {
			t.Fatalf("resizeProfile slot %d not zeroed on realloc", i)
		}
	}
}

// TestBindPoisonsProfile: Bind must leave a profile that Game.Valid
// rejects, so a recycled profile that happens to be valid for the new
// game can never pass as a solved one.
func TestBindPoisonsProfile(t *testing.T) {
	gA := randomGame(t, rng.New(651), 6, 4, 5)
	e := NewEngine(gA)
	e.ResetRandom(rng.New(652))
	if !gA.Valid(e.Profile()) {
		t.Fatal("solved profile should be valid")
	}
	// Same shape: without poisoning, the recycled profile would be valid
	// for gB too.
	gB := randomGame(t, rng.New(653), 6, 4, 5)
	e.Bind(gB)
	if gB.Valid(e.Profile()) {
		t.Fatal("recycled profile still valid after Bind")
	}
}

// TestChurnShrinkGrowMatchesFreshBuild drives the full shrink-then-grow
// churn cycle through one Builder arena and one reused engine, rebound
// after each rebuild — the buffer-recycling pattern the resize zeroing
// protects — and requires every post-churn solve to match a fresh build
// of the same content bit-for-bit.
func TestChurnShrinkGrowMatchesFreshBuild(t *testing.T) {
	src := rng.New(661)
	weights := make([]float64, 6)
	for r := range weights {
		weights[r] = src.Uniform(0.5, 2)
	}
	strats := randomStrategies(src, 10, 3, len(weights))
	extra := randomStrategies(src, 5, 3, len(weights))
	// Shrink to players 0..2, then grow back to 8 players (within the
	// recycled buffers' capacity), so the resize path reuses tails written
	// by the 10-player binding.
	shrunk := strats[:3]
	grown := append(append([][][]Use(nil), strats[:3]...), extra...)

	b := NewBuilder()
	e := NewEngine(streamInto(t, b, weights, strats))
	for _, cfg := range []CGBAConfig{{}, {Lambda: 0.05}} {
		if _, err := e.CGBA(cfg, rng.New(662)); err != nil {
			t.Fatal(err)
		}
		for k, content := range [][][][]Use{shrunk, grown, strats} {
			seed := int64(663 + k)
			e.Bind(streamInto(t, b, weights, content))
			got, err := e.CGBA(cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			want, err := CGBA(streamInto(t, NewBuilder(), weights, content), cfg, rng.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, fmt.Sprintf("%d players vs fresh", len(content)), got, want)
		}
	}
}

// FuzzIncrementalBestResponseEquivalence fuzzes the sweep's whole
// contract: for arbitrary games, tolerances and starts, CGBA must return
// a certified λ-equilibrium of the game, deterministically, equal to
// referenceSweep bit for bit at every width; with Exact it must return a
// certified equilibrium too. An odd shape byte draws a factoredGame, so
// the factored best response and its near-ties are fuzzed as well.
func FuzzIncrementalBestResponseEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(4), uint8(0), uint8(0))
	f.Add(int64(42), int64(43), uint8(1), uint8(5), uint8(0))
	f.Add(int64(-7), int64(99), uint8(200), uint8(11), uint8(0))
	f.Add(int64(3), int64(4), uint8(0), uint8(0), uint8(1))
	f.Add(int64(77), int64(5), uint8(9), uint8(3), uint8(1))
	f.Add(int64(-12), int64(6), uint8(14), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, gameSeed, solveSeed int64, startRaw, lamRaw, shapeRaw uint8) {
		gsrc := rng.New(gameSeed)
		players := 2 + gsrc.Intn(12)
		var g *Game
		if shapeRaw%2 == 1 {
			g, _ = factoredGame(t, gsrc, 1, 2*players, 0)
		} else {
			g = randomGame(t, gsrc, players, 2+gsrc.Intn(23), 3+gsrc.Intn(8))
		}
		strategies := g.StrategyCount(0)
		cfg := CGBAConfig{Lambda: float64(lamRaw%12) / 100}
		if startRaw%2 == 1 {
			cfg.Initial = make(Profile, g.Players())
			for i := range cfg.Initial {
				cfg.Initial[i] = int(startRaw/2) % g.StrategyCount(i)
			}
		}

		res, err := CGBA(g, cfg, rng.New(solveSeed))
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsEquilibrium(res.Profile, cfg.Lambda) {
			t.Fatalf("S=%d λ=%v: result is not a certified equilibrium", strategies, cfg.Lambda)
		}
		again, err := CGBA(g, cfg, rng.New(solveSeed))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "repeat", again, res)
		requireSameResult(t, fmt.Sprintf("S=%d λ=%v", strategies, cfg.Lambda), res, referenceSweep(g, cfg, 0))

		exactCfg := cfg
		exactCfg.Exact = true
		exact, err := CGBA(g, exactCfg, rng.New(solveSeed))
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsEquilibrium(exact.Profile, cfg.Lambda) {
			t.Fatalf("S=%d λ=%v: exact result is not a certified equilibrium", strategies, cfg.Lambda)
		}
	})
}
