package game

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/solver"
)

// clusteredGame builds a game whose resources split into `clusters`
// disjoint blocks of resPerCluster resources: every interior player's
// strategies stay inside its cluster's block, and `boundary` players
// have strategies spanning several blocks. Returns the game and the
// player → shard assignment (−1 = boundary) for a one-shard-per-cluster
// plan. Players are interleaved across clusters so the plan's CSR
// compilation is exercised on a non-contiguous assignment.
func clusteredGame(t testing.TB, src *rng.Source, clusters, perCluster, boundary, strategies, resPerCluster int) (*Game, []int32) {
	t.Helper()
	if resPerCluster < 3 {
		t.Fatal("clusteredGame needs at least 3 resources per cluster")
	}
	resources := clusters * resPerCluster
	weights := make([]float64, resources)
	for r := range weights {
		weights[r] = src.Uniform(0.5, 2)
	}
	n := clusters*perCluster + boundary
	strats := make([][][]Use, n)
	assign := make([]int32, n)
	blockStrategies := func(block int) [][]Use {
		base := block * resPerCluster
		out := make([][]Use, 0, strategies)
		for s := 0; s < strategies; s++ {
			perm := src.Perm(resPerCluster)
			out = append(out, []Use{
				{Resource: base + perm[0], Weight: src.Uniform(0.2, 3)},
				{Resource: base + perm[1], Weight: src.Uniform(0.2, 3)},
				{Resource: base + perm[2], Weight: src.Uniform(0.2, 3)},
			})
		}
		return out
	}
	for i := 0; i < clusters*perCluster; i++ {
		c := i % clusters // interleaved
		assign[i] = int32(c)
		strats[i] = blockStrategies(c)
	}
	for i := clusters * perCluster; i < n; i++ {
		assign[i] = -1
		var all [][]Use
		// One strategy batch per block: the boundary player genuinely
		// couples every cluster.
		for c := 0; c < clusters; c++ {
			all = append(all, blockStrategies(c)...)
		}
		strats[i] = all
	}
	g, err := New(weights, strats)
	if err != nil {
		t.Fatal(err)
	}
	return g, assign
}

func runCGBASharded(t testing.TB, g *Game, cfg CGBAConfig, plan *ShardPlan, seed int64, size int) Result {
	t.Helper()
	e := NewEngine(g)
	if size > 0 {
		pool := par.New(size)
		defer pool.Close()
		e.SetPool(pool)
	}
	res, err := e.CGBASharded(cfg, plan, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// referenceSharded is the specification of CGBASharded, written from
// the Game's one-shot methods with no skip of any kind. From
// referenceStart it runs rounds of three phases: each shard's interior
// players swept in plan order until a pass moves nobody, shard after
// shard, each with the round's remaining move budget; the boundary
// players swept the same way; then one pass over every player in index
// order, a quiet one ending the solve. Shards share no resources, so
// running them one after another equals running them in parallel. It
// ignores deadlines.
func referenceSharded(g *Game, cfg CGBAConfig, plan *ShardPlan) (Result, error) {
	n := g.Players()
	maxIter := cfg.MaxIterations
	if maxIter <= 0 {
		maxIter = 200*n + 10000
	}
	p, loads := referenceStart(g, cfg)
	// sweep runs Gauss–Seidel passes over players until one moves nobody,
	// or once after the first pass, and stops at the budget-th move.
	sweep := func(players []int32, budget int, once bool) (moves int, moved, overrun bool) {
		for {
			moved = false
			for _, pi := range players {
				i := int(pi)
				cur := g.PlayerCost(p, loads, i)
				if s, c := g.bestResponse(p, loads, i); (1-cfg.Lambda)*cur > c+relEps*(cur+1) {
					g.applyMove(p, loads, i, s)
					moves++
					moved = true
					if moves >= budget {
						return moves, true, true
					}
				}
			}
			if !moved || once {
				return moves, moved, false
			}
		}
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	moves := 0
	result := func(err error) (Result, error) {
		return Result{Profile: p, Objective: g.SocialCost(p), Iterations: moves}, err
	}
	for {
		overrun, budget := false, maxIter-moves
		for s := 0; s < plan.Shards(); s++ {
			m, _, o := sweep(plan.order[plan.off[s]:plan.off[s+1]], budget, false)
			moves += m
			overrun = overrun || o
		}
		if overrun || moves >= maxIter {
			return result(ErrNoConverge)
		}
		m, _, o := sweep(plan.boundary, maxIter-moves, false)
		moves += m
		if o {
			return result(ErrNoConverge)
		}
		m, moved, o := sweep(all, maxIter-moves, true)
		moves += m
		if o {
			return result(ErrNoConverge)
		}
		if !moved {
			return result(nil)
		}
	}
}

// requireShardedMatchesReference solves g with a fresh engine at the
// given pool size and requires the result and error to equal
// referenceSharded's bit for bit.
func requireShardedMatchesReference(t *testing.T, label string, g *Game, cfg CGBAConfig, plan *ShardPlan, size int) {
	t.Helper()
	want, wantErr := referenceSharded(g, cfg, plan)
	e := NewEngine(g)
	if size > 0 {
		pool := par.New(size)
		defer pool.Close()
		e.SetPool(pool)
	}
	got, err := e.CGBASharded(cfg, plan, rng.New(1))
	if !errors.Is(err, wantErr) {
		t.Fatalf("%s: error %v, want %v", label, err, wantErr)
	}
	requireSameResult(t, label, got, want)
}

// CGBASharded must make exactly the reference's moves: its change-stamp
// skips only ever pass over players a score would leave where they are.
// Iteration caps cut the solve in each phase.
func TestCGBAShardedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed                        int64
		clusters, perCluster, bound int
		strategies, perRes          int
		maxIter                     int
	}{
		{811, 4, 10, 6, 8, 5, 0},
		{812, 3, 10, 0, 8, 5, 0},
		{813, 2, 10, 5, 8, 5, 0},
		{814, 5, 10, 3, 8, 5, 0},
		{815, 4, 10, 6, 8, 5, 5},  // cut in phase 1
		{816, 4, 10, 6, 8, 5, 40}, // cut in a later phase or round
		{817, 3, 10, 4, 8, 5, 60},
		// Footprints narrower than their cluster: a move changes loads
		// only some of the cluster's players can see, so a move that
		// failed to stamp its old strategy's resources would show.
		{851, 4, 3, 4, 3, 10, 0},
		{852, 3, 4, 4, 2, 12, 0},
	} {
		g, assign := clusteredGame(t, rng.New(tc.seed), tc.clusters, tc.perCluster, tc.bound, tc.strategies, tc.perRes)
		plan, err := NewShardPlan(tc.clusters, assign)
		if err != nil {
			t.Fatal(err)
		}
		for _, lambda := range []float64{0, 0.01, 0.05, 0.11} {
			for size := 0; size <= 4; size++ {
				label := fmt.Sprintf("seed %d λ=%v cap %d pool %d", tc.seed, lambda, tc.maxIter, size)
				cfg := CGBAConfig{Lambda: lambda, MaxIterations: tc.maxIter}
				requireShardedMatchesReference(t, label, g, cfg, plan, size)
			}
		}
	}
}

// TestShardStampLifetime: no change stamp outlives the solve that wrote
// it. On one engine, a solve after a resource reweight, after an
// Engine.Move, and after a truncated or capped solve must equal a fresh
// engine's solve bit for bit.
func TestShardStampLifetime(t *testing.T) {
	g, assign := clusteredGame(t, rng.New(822), 4, 12, 5, 8, 6)
	plan, err := NewShardPlan(4, assign)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CGBAConfig{Lambda: 0.01}
	pool := par.New(2)
	defer pool.Close()
	e := NewEngine(g)
	e.SetPool(pool)
	solve := func(label string, e *Engine) Result {
		t.Helper()
		res, err := e.CGBASharded(cfg, plan, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res
	}
	// fresh solves on a new engine and requires it to move someone, so
	// a skip that wrongly survived would show as a missing move.
	fresh := func(label string) Result {
		t.Helper()
		res := solve(label+"/fresh", NewEngine(g))
		if res.Iterations == 0 {
			t.Fatalf("%s: fresh solve made no move", label)
		}
		return res
	}
	solve("warm", e)

	if err := g.SetResourceWeights(2, []float64{2.5 * g.weights[2]}); err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "reweight", solve("reweight", e), fresh("reweight"))

	if err := e.Move(0, (e.Profile()[0]+1)%g.StrategyCount(0)); err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "move", solve("move", e), fresh("move"))

	// Every counted budget short of a full solve, each cutting the solve
	// at a later checkpoint.
	want := fresh("truncated")
	for checks := 1; ; checks++ {
		var dl solver.Deadline
		dl.Start(0, checks)
		e.SetDeadline(&dl)
		res, err := e.CGBASharded(cfg, plan, rng.New(1))
		e.SetDeadline(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Truncated {
			if checks < 3 {
				t.Fatalf("%d checkpoints sufficed: too few truncated solves", checks)
			}
			break
		}
		requireSameResult(t, fmt.Sprintf("after %d checkpoints", checks), solve("truncated", e), want)
	}
	for _, cap := range []int{1, want.Iterations / 2, want.Iterations - 1} {
		capped := cfg
		capped.MaxIterations = cap
		if _, err := e.CGBASharded(capped, plan, rng.New(1)); !errors.Is(err, ErrNoConverge) {
			t.Fatalf("cap %d: err %v, want ErrNoConverge", cap, err)
		}
		requireSameResult(t, fmt.Sprintf("after cap %d", cap), solve("capped", e), want)
	}
}

func TestShardPlanValidation(t *testing.T) {
	if _, err := NewShardPlan(0, []int32{0}); err == nil {
		t.Error("0 shards should be rejected")
	}
	if _, err := NewShardPlan(2, []int32{0, 2}); err == nil {
		t.Error("shard index == shards should be rejected")
	}
	if _, err := NewShardPlan(2, []int32{0, -2}); err == nil {
		t.Error("shard index below -1 should be rejected")
	}
	plan, err := NewShardPlan(3, []int32{2, -1, 0, 1, 0, -1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Shards() != 3 || len(plan.player) != 7 || len(plan.boundary) != 2 {
		t.Fatalf("Shards/Players/Boundary = %d/%d/%d, want 3/7/2",
			plan.Shards(), len(plan.player), len(plan.boundary))
	}
	// CSR groups interior players by shard, ascending inside each.
	wantOrder := []int32{2, 4, 3, 0, 6}
	if !reflect.DeepEqual(plan.order, wantOrder) {
		t.Errorf("order = %v, want %v", plan.order, wantOrder)
	}
	if !reflect.DeepEqual(plan.boundary, []int32{1, 5}) {
		t.Errorf("boundary = %v, want [1 5]", plan.boundary)
	}
	// Reset reuses the plan for a different assignment.
	if err := plan.Reset(2, []int32{1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if plan.Shards() != 2 || len(plan.player) != 3 || len(plan.boundary) != 0 {
		t.Fatalf("after Reset: %d/%d/%d, want 2/3/0", plan.Shards(), len(plan.player), len(plan.boundary))
	}
	var nilPlan *ShardPlan
	if nilPlan.Shards() != 0 {
		t.Error("nil plan should report 0 shards")
	}
}

// A plan whose "interior" players actually share resources across shards
// must be rejected before any parallel work touches the loads.
func TestCGBAShardedRejectsNonDisjointPlan(t *testing.T) {
	g := randomGame(t, rng.New(701), 12, 4, 6) // every player roams all 6 resources
	assign := make([]int32, 12)
	for i := range assign {
		assign[i] = int32(i % 2)
	}
	plan, err := NewShardPlan(2, assign)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	if _, err := e.CGBASharded(CGBAConfig{Lambda: 0.01}, plan, rng.New(1)); err == nil {
		t.Fatal("non-disjoint plan should be rejected")
	}
	// Player-count mismatch is rejected too.
	small, err := NewShardPlan(2, []int32{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CGBASharded(CGBAConfig{Lambda: 0.01}, small, rng.New(1)); err == nil {
		t.Fatal("player-count mismatch should be rejected")
	}
}

// The sharded solve must return a certified λ-equilibrium of the global
// game, identical at every pool size and on every repeat.
func TestCGBAShardedCertifiedEquilibrium(t *testing.T) {
	for _, tc := range []struct {
		name               string
		exact              bool
		clusters, boundary int
	}{
		{"pruned", false, 4, 6},     // interior sweeps skip by change stamps
		{"exact-width", true, 4, 6}, // the exact loop, whatever the plan
		{"narrow", false, 3, 5},     // three shards
		{"no-boundary", false, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, assign := clusteredGame(t, rng.New(711), tc.clusters, 12, tc.boundary, 8, 6)
			plan, err := NewShardPlan(tc.clusters, assign)
			if err != nil {
				t.Fatal(err)
			}
			cfg := CGBAConfig{Lambda: 0.01, Exact: tc.exact}
			base := runCGBASharded(t, g, cfg, plan, 1, 0)

			// Certified: the profile is a λ-equilibrium of the global game.
			e := NewEngine(g)
			if err := e.Reset(base.Profile); err != nil {
				t.Fatal(err)
			}
			if !e.IsEquilibrium(cfg.Lambda) {
				t.Fatal("sharded result is not a λ-equilibrium of the global game")
			}
			if math.Float64bits(base.Objective) != math.Float64bits(g.SocialCost(base.Profile)) {
				t.Error("objective does not match the returned profile")
			}

			// Pool-invariant and deterministic.
			for _, size := range []int{1, 2, 4} {
				requireSameResult(t, tc.name, runCGBASharded(t, g, cfg, plan, 1, size), base)
			}
			requireSameResult(t, tc.name+"/repeat", runCGBASharded(t, g, cfg, plan, 1, 0), base)
		})
	}
}

// A nil or single-shard plan must delegate to the unsharded path
// bit-for-bit — the shards=1 half of the equivalence contract.
func TestCGBAShardedSingleShardBitIdentical(t *testing.T) {
	g, assign := clusteredGame(t, rng.New(721), 3, 10, 4, 8, 6)
	for _, exact := range []bool{false, true} {
		cfg := CGBAConfig{Lambda: 0.01, Exact: exact}
		want := runCGBA(t, g, cfg, 7)
		one := make([]int32, len(assign))
		plan, err := NewShardPlan(1, one)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{0, 1, 4} {
			requireSameResult(t, "plan=1", runCGBASharded(t, g, cfg, plan, 7, size), want)
			requireSameResult(t, "plan=nil", runCGBASharded(t, g, cfg, nil, 7, size), want)
		}
	}
}

// Warm starts: an initial profile is honored, and the solve still ends
// certified.
func TestCGBAShardedInitialProfile(t *testing.T) {
	g, assign := clusteredGame(t, rng.New(731), 3, 10, 4, 8, 6)
	plan, err := NewShardPlan(3, assign)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CGBAConfig{Lambda: 0.01}
	first := runCGBASharded(t, g, cfg, plan, 1, 0)
	cfg.Initial = first.Profile
	e := NewEngine(g)
	res, err := e.CGBASharded(cfg, plan, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	// Warm-starting from an equilibrium converges with zero moves.
	if res.Iterations != 0 {
		t.Errorf("warm start from equilibrium made %d moves, want 0", res.Iterations)
	}
	if !reflect.DeepEqual(res.Profile, first.Profile) {
		t.Error("warm start from equilibrium changed the profile")
	}
	cfg.Initial = Profile{0} // wrong length
	if _, err := e.CGBASharded(cfg, plan, rng.New(1)); err == nil {
		t.Error("invalid initial profile should be rejected")
	}
}

// An exhausted counted deadline truncates the sharded solve at a serial
// checkpoint, still returning a feasible profile.
func TestCGBAShardedDeadline(t *testing.T) {
	g, assign := clusteredGame(t, rng.New(741), 3, 12, 4, 8, 6)
	plan, err := NewShardPlan(3, assign)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	var dl solver.Deadline
	dl.Start(0, 1) // one checkpoint: expires at the first round boundary
	e.SetDeadline(&dl)
	res, err := e.CGBASharded(CGBAConfig{Lambda: 0.01}, plan, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("exhausted deadline should truncate")
	}
	if !g.Valid(res.Profile) {
		t.Fatal("truncated result is not a feasible profile")
	}
}

// FuzzShardedEquivalence fuzzes the sharded solve's whole contract: for
// arbitrary clustered games, tolerances, and pool sizes the
// sharded result must be a certified λ-equilibrium of the global
// game, bit-identical to referenceSharded at every pool size (to the
// unsharded exact loop with Exact), and — with a one-shard plan —
// bit-identical to the unsharded path. An odd shape byte draws the
// clusters as a factoredGame, so the factored best response is fuzzed
// in every phase.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(3), uint8(2), uint8(0), uint8(0), uint8(2), uint8(0))
	f.Add(int64(42), int64(43), uint8(2), uint8(0), uint8(4), uint8(5), uint8(1), uint8(0))
	f.Add(int64(-7), int64(99), uint8(5), uint8(6), uint8(19), uint8(11), uint8(4), uint8(0))
	// Footprints narrower than their cluster: skipping a player after a
	// move only freed load on its resources breaks certification.
	f.Add(int64(9), int64(-90), uint8(205), uint8(184), uint8(63), uint8(121), uint8(190), uint8(0))
	// Clusters of factoredGame shape (odd shapeRaw), which the factored
	// best response scores.
	f.Add(int64(5), int64(6), uint8(0), uint8(2), uint8(0), uint8(0), uint8(1), uint8(1))
	f.Add(int64(31), int64(-4), uint8(3), uint8(4), uint8(1), uint8(6), uint8(2), uint8(1))
	f.Add(int64(9), int64(-90), uint8(205), uint8(184), uint8(63), uint8(121), uint8(190), uint8(1))
	f.Fuzz(func(t *testing.T, gameSeed, solveSeed int64, clustersRaw, boundaryRaw, exactRaw, lamRaw, poolRaw, shapeRaw uint8) {
		gsrc := rng.New(gameSeed)
		clusters := 2 + int(clustersRaw)%4
		perCluster := 2 + gsrc.Intn(8)
		boundary := int(boundaryRaw) % 5
		var g *Game
		var assign []int32
		if shapeRaw%2 == 1 {
			g, assign = factoredGame(t, gsrc, clusters, 2*perCluster, boundary)
		} else {
			g, assign = clusteredGame(t, gsrc, clusters, perCluster, boundary, 2+gsrc.Intn(6), 3+gsrc.Intn(12))
		}
		lambda := float64(lamRaw%12) / 100
		exact := exactRaw%20 == 19 // sometimes the exact loop, whatever the plan
		cfg := CGBAConfig{Lambda: lambda, Exact: exact}
		plan, err := NewShardPlan(clusters, assign)
		if err != nil {
			t.Fatal(err)
		}

		res := runCGBASharded(t, g, cfg, plan, solveSeed, 0)
		if !g.IsEquilibrium(res.Profile, lambda) {
			t.Fatalf("clusters=%d boundary=%d exact=%v λ=%v: not a certified global equilibrium",
				clusters, boundary, exact, lambda)
		}
		want, err := referenceSharded(g, cfg, plan)
		if err != nil {
			t.Fatal(err)
		}
		if exact {
			want = runCGBA(t, g, cfg, solveSeed)
		}
		requireSameResult(t, "reference", res, want)
		size := 1 + int(poolRaw)%4
		requireSameResult(t, "pooled repeat", runCGBASharded(t, g, cfg, plan, solveSeed, size), want)

		// shards=1 must stay bit-identical to the unsharded path.
		planOne, err := NewShardPlan(1, make([]int32, len(assign)))
		if err != nil {
			t.Fatal(err)
		}
		unsharded := runCGBA(t, g, cfg, solveSeed)
		requireSameResult(t, "shards=1", runCGBASharded(t, g, cfg, planOne, solveSeed, 0), unsharded)
	})
}

// Churn: after a structural rebuild the plan is re-verified (the memo
// keys on the structure generation), and a stale plan that no longer
// matches the new player count is rejected.
func TestCGBAShardedAfterMutation(t *testing.T) {
	g, assign := clusteredGame(t, rng.New(751), 3, 8, 3, 6, 6)
	plan, err := NewShardPlan(3, assign)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	if _, err := e.CGBASharded(CGBAConfig{Lambda: 0.01}, plan, rng.New(1)); err != nil {
		t.Fatal(err)
	}

	// Rebuild the same content through a Builder to get a fresh game; the
	// plan must be re-checked (different *Game pointer) and still work.
	b := NewBuilder()
	b.Reset(g.Resources())
	copy(b.Weights(), g.weights)
	for i := 0; i < g.Players(); i++ {
		b.NextPlayer()
		for s := 0; s < g.StrategyCount(i); s++ {
			b.NextStrategy()
			for _, u := range g.strategyUses(i, s) {
				b.AddUse(int(u.res), u.w)
			}
		}
	}
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e2 := NewEngine(g2)
	res2, err := e2.CGBASharded(CGBAConfig{Lambda: 0.01}, plan, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	eq := NewEngine(g2)
	if err := eq.Reset(res2.Profile); err != nil {
		t.Fatal(err)
	}
	if !eq.IsEquilibrium(0.01) {
		t.Error("post-rebuild sharded result is not an equilibrium")
	}
}
