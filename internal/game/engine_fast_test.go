package game

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"eotora/internal/par"
	"eotora/internal/rng"
)

// runCGBAPooled solves g with a fresh engine and an attached pool of the
// given size (0 = no pool).
func runCGBAPooled(t testing.TB, g *Game, cfg CGBAConfig, seed int64, size int) Result {
	t.Helper()
	e := NewEngine(g)
	if size > 0 {
		pool := par.New(size)
		defer pool.Close()
		e.SetPool(pool)
	}
	res, err := e.CGBA(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireSameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
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

// TestCGBAShortlistFullWidthBitIdentical is the first half of the
// equivalence contract: whenever the effective shortlist width covers
// every player's strategy set — small games under the default width, an
// explicit width ≥ the max strategy count, or ShortlistFull — CGBA must
// take the exact path and return bit-identical results at every pool
// size (the ISSUE's 0/1/4 matrix).
func TestCGBAShortlistFullWidthBitIdentical(t *testing.T) {
	cases := []struct {
		name       string
		strategies int
		cfg        CGBAConfig
	}{
		// DefaultShortlist (16) covers a 6-strategy set: zero-valued
		// configs stay on the exact path (the goldens' regime).
		{"default-covers-small", 6, CGBAConfig{}},
		{"explicit-width-at-max", 20, CGBAConfig{Shortlist: 20}},
		{"explicit-width-above-max", 20, CGBAConfig{Shortlist: 64}},
		{"shortlist-full", 20, CGBAConfig{Shortlist: ShortlistFull}},
		// Non-max-improvement pivots never prune, however small k is.
		{"round-robin-ignores-k", 20, CGBAConfig{Shortlist: 4, Pivot: PivotRoundRobin}},
		{"random-ignores-k", 20, CGBAConfig{Shortlist: 4, Pivot: PivotRandom}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Game {
				return randomGame(t, rng.New(501), 30, tc.strategies, 12)
			}
			exactCfg := tc.cfg
			exactCfg.Shortlist = ShortlistFull
			want := runCGBAPooled(t, build(), exactCfg, 502, 0)
			for _, size := range []int{0, 1, 4} {
				got := runCGBAPooled(t, build(), tc.cfg, 502, size)
				requireSameResult(t, fmt.Sprintf("pool %d", size), got, want)
			}
		})
	}
}

// TestCGBAPrunedCertifiedEquilibrium is the second half of the contract:
// with k below the strategy count the pruned sweep path runs, and its
// result must be a certified λ-equilibrium of the unpruned game,
// deterministic, and identical at every pool size (the path is serial by
// construction).
func TestCGBAPrunedCertifiedEquilibrium(t *testing.T) {
	for _, lambda := range []float64{0, 0.05, 0.1} {
		for _, k := range []int{1, 3, 8} {
			t.Run(fmt.Sprintf("lambda=%v/k=%d", lambda, k), func(t *testing.T) {
				build := func() *Game {
					return randomGame(t, rng.New(601), 40, 24, 10)
				}
				cfg := CGBAConfig{Lambda: lambda, Shortlist: k}
				g := build()
				want := runCGBAPooled(t, g, cfg, 602, 0)
				if !g.IsEquilibrium(want.Profile, lambda) {
					t.Fatalf("pruned k=%d result is not a λ=%v equilibrium of the unpruned game", k, lambda)
				}
				// Pool invariance and determinism: fresh engines, every
				// pool size, bit-identical.
				for _, size := range []int{0, 1, 4} {
					got := runCGBAPooled(t, build(), cfg, 602, size)
					requireSameResult(t, fmt.Sprintf("pool %d", size), got, want)
				}
				// Engine reuse (the BDMA-round pattern) must match fresh.
				e := NewEngine(build())
				for rep := 0; rep < 3; rep++ {
					got, err := e.CGBA(cfg, rng.New(602))
					if err != nil {
						t.Fatal(err)
					}
					requireSameResult(t, fmt.Sprintf("reuse %d", rep), got, want)
				}
			})
		}
	}
}

// TestCGBAPrunedInitialProfile checks the warm-start entry: a supplied
// Initial seeds the pruned dynamics (instead of the greedy fill) and the
// result is still a certified equilibrium; an already-certified profile
// terminates with zero moves.
func TestCGBAPrunedInitialProfile(t *testing.T) {
	g := randomGame(t, rng.New(611), 25, 24, 9)
	cfg := CGBAConfig{Shortlist: 5}
	first, err := CGBA(g, cfg, rng.New(612))
	if err != nil {
		t.Fatal(err)
	}
	warmCfg := cfg
	warmCfg.Initial = first.Profile
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
		t.Fatal("pruned solve from arbitrary initial profile is not an equilibrium")
	}
}

// TestCGBAPrunedTrackObjective: the pruned path's objective trace is one
// entry per move plus the initial profile, strictly decreasing under the
// improving-move dynamics.
func TestCGBAPrunedTrackObjective(t *testing.T) {
	g := randomGame(t, rng.New(621), 20, 24, 8)
	res, err := CGBA(g, CGBAConfig{Shortlist: 4, TrackObjective: true}, rng.New(622))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ObjectiveTrace) != res.Iterations+1 {
		t.Fatalf("trace length %d, want %d", len(res.ObjectiveTrace), res.Iterations+1)
	}
	if math.Float64bits(res.ObjectiveTrace[len(res.ObjectiveTrace)-1]) != math.Float64bits(res.Objective) {
		t.Error("trace tail differs from the final objective")
	}
}

// TestCGBAPrunedMutationMatchesFreshBuild: shortlists are keyed on the
// game's weight generation, so a churned game must solve exactly like a
// fresh build of the same content — through the same reused engine that
// solved (and cached shortlists for) the pre-churn game.
func TestCGBAPrunedMutationMatchesFreshBuild(t *testing.T) {
	src := rng.New(631)
	weights := make([]float64, 8)
	for r := range weights {
		weights[r] = src.Uniform(0.5, 2)
	}
	strats := randomStrategies(src, 12, 24, len(weights))
	news := randomStrategies(src, 3, 24, len(weights))

	b := NewBuilder()
	g := streamInto(t, b, weights, strats)
	e := NewEngine(g)
	cfg := CGBAConfig{Shortlist: 6}
	if _, err := e.CGBA(cfg, rng.New(632)); err != nil {
		t.Fatal(err)
	}

	// Churn: drop players 2 and 7, append three new ones.
	m := b.BeginMutation()
	var want [][][]Use
	for i := range strats {
		if i == 2 || i == 7 {
			continue
		}
		m.KeepPlayer(i)
		want = append(want, strats[i])
	}
	for _, p := range news {
		m.NextPlayer()
		for _, strat := range p {
			m.NextStrategy()
			for _, u := range strat {
				m.AddUse(u.Resource, u.Weight)
			}
		}
		want = append(want, p)
	}
	e.PrepareMutation(m.Removed())
	g2, err := m.Commit()
	if err != nil {
		t.Fatal(err)
	}
	e.ApplyMutation(g2, m.Remap(), nil)

	got, err := e.CGBA(cfg, rng.New(633))
	if err != nil {
		t.Fatal(err)
	}
	fresh := streamInto(t, NewBuilder(), weights, want)
	wantRes, err := CGBA(fresh, cfg, rng.New(633))
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "churned vs fresh", got, wantRes)
	if !g2.IsEquilibrium(got.Profile, 0) {
		t.Fatal("post-churn pruned result is not an equilibrium")
	}
}

// TestCGBAPrunedReweightInvalidatesShortlists: SetResourceWeight advances
// the weight generation, so a reused engine must rebuild its shortlist
// ranking and solve exactly like a fresh build with the new weights —
// even when the reweight inverts the ranking the stale tables encoded.
func TestCGBAPrunedReweightInvalidatesShortlists(t *testing.T) {
	src := rng.New(641)
	weights := []float64{1.0, 1.1, 0.9, 1.2, 1.05, 0.95}
	strats := randomStrategies(src, 15, 24, len(weights))
	g, err := New(weights, strats)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	cfg := CGBAConfig{Shortlist: 4}
	before, err := e.CGBA(cfg, rng.New(642))
	if err != nil {
		t.Fatal(err)
	}

	// Invert the weight landscape: formerly cheap resources become 50x
	// more expensive, so stale shortlists would steer into congestion.
	newWeights := []float64{50, 1.1, 45, 1.2, 55, 0.95}
	for r, w := range newWeights {
		if err := g.SetResourceWeight(r, w); err != nil {
			t.Fatal(err)
		}
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
		t.Fatal("post-reweight pruned result is not an equilibrium of the reweighted game")
	}
}

// TestUnchangedReweightKeepsShortlists: setting a resource to its current
// weight is a no-op — the weight generation stays put and the next pruned
// solve reuses the shortlist tables instead of rebuilding them. A changed
// weight still invalidates them.
func TestUnchangedReweightKeepsShortlists(t *testing.T) {
	src := rng.New(651)
	weights := []float64{1.0, 1.1, 0.9, 1.2, 1.05, 0.95}
	g, err := New(weights, randomStrategies(src, 15, 24, len(weights)))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	cfg := CGBAConfig{Shortlist: 4}
	if _, err := e.CGBA(cfg, rng.New(652)); err != nil {
		t.Fatal(err)
	}
	// topScore is rebuildShortlists' selection scratch: nothing else
	// writes it, so a poisoned entry surviving a solve proves no rebuild.
	const poison = -1.0
	e.fast.topScore[0] = poison
	gen := g.weightGen
	for r, w := range weights {
		if err := g.SetResourceWeight(r, w); err != nil {
			t.Fatal(err)
		}
	}
	if g.weightGen != gen {
		t.Fatalf("unchanged weights advanced weightGen %d → %d", gen, g.weightGen)
	}
	if _, err := e.CGBA(cfg, rng.New(653)); err != nil {
		t.Fatal(err)
	}
	if e.fast.topScore[0] != poison {
		t.Fatal("pruned CGBA rebuilt its shortlists after a no-op reweight")
	}

	if err := g.SetResourceWeight(2, 4.5); err != nil {
		t.Fatal(err)
	}
	if g.weightGen == gen {
		t.Fatal("a changed weight did not advance weightGen")
	}
	if _, err := e.CGBA(cfg, rng.New(654)); err != nil {
		t.Fatal(err)
	}
	if e.fast.topScore[0] == poison {
		t.Fatal("pruned CGBA kept stale shortlists after a changed weight")
	}
}

// TestResizeShrinkGrowZeroesTail pins the make-parity semantics of the
// recycled-slice helpers: a shrink-then-grow cycle (population churn)
// must hand back zeroed tail slots, never stale strategy indices or
// dirty bits from an earlier, larger binding.
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
	b := []bool{true, true, true, true}
	b = resizeBool(b, 1)
	b = resizeBool(b, 3)
	if len(b) != 3 || !b[0] {
		t.Fatalf("resizeBool clobbered live slots: %v", b)
	}
	if b[1] || b[2] {
		t.Fatalf("resizeBool resurfaced stale tail slots: %v", b)
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
// rejects, so PrepareMutation's "has been solved" proxy cannot be fooled
// by a recycled profile that happens to be valid for the new game.
func TestBindPoisonsProfile(t *testing.T) {
	gA := randomGame(t, rng.New(651), 6, 4, 5)
	e := NewEngine(gA)
	e.ResetRandom(rng.New(652))
	if !gA.Valid(e.Profile()) {
		t.Fatal("solved profile should be valid")
	}
	// Same shape: without poisoning, the recycled profile would be valid
	// for gB too and PrepareMutation would carry garbage loads.
	gB := randomGame(t, rng.New(653), 6, 4, 5)
	e.Bind(gB)
	if gB.Valid(e.Profile()) {
		t.Fatal("recycled profile still valid after Bind")
	}
	e.PrepareMutation(nil)
	if e.mutOK {
		t.Fatal("PrepareMutation trusted an unsolved engine after Bind")
	}
}

// TestChurnShrinkGrowMatchesFreshBuild drives the full shrink-then-grow
// churn cycle through one reused engine — the buffer-recycling pattern
// the resize zeroing protects — and requires every post-churn solve to
// match a fresh build of the same content bit-for-bit.
func TestChurnShrinkGrowMatchesFreshBuild(t *testing.T) {
	src := rng.New(661)
	weights := make([]float64, 6)
	for r := range weights {
		weights[r] = src.Uniform(0.5, 2)
	}
	strats := randomStrategies(src, 10, 3, len(weights))
	extra := randomStrategies(src, 5, 3, len(weights))

	b := NewBuilder()
	g := streamInto(t, b, weights, strats)
	e := NewEngine(g)
	for _, cfg := range []CGBAConfig{{}, {Shortlist: 2}} {
		if _, err := e.CGBA(cfg, rng.New(662)); err != nil {
			t.Fatal(err)
		}

		// Shrink: keep only players 0..2.
		m := b.BeginMutation()
		for i := 0; i < 3; i++ {
			m.KeepPlayer(i)
		}
		e.PrepareMutation(m.Removed())
		g2, err := m.Commit()
		if err != nil {
			t.Fatal(err)
		}
		e.ApplyMutation(g2, m.Remap(), nil)
		small, err := e.CGBA(cfg, rng.New(663))
		if err != nil {
			t.Fatal(err)
		}
		wantSmall, err := CGBA(streamInto(t, NewBuilder(), weights, strats[:3]), cfg, rng.New(663))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "shrunk vs fresh", small, wantSmall)

		// Grow back to 8 players (within the recycled buffers' capacity),
		// so the resize path reuses tails written by the 10-player binding.
		m = b.BeginMutation()
		for i := 0; i < 3; i++ {
			m.KeepPlayer(i)
		}
		grown := append(append([][][]Use(nil), strats[:3]...), extra...)
		for _, p := range extra {
			m.NextPlayer()
			for _, strat := range p {
				m.NextStrategy()
				for _, u := range strat {
					m.AddUse(u.Resource, u.Weight)
				}
			}
		}
		e.PrepareMutation(m.Removed())
		g3, err := m.Commit()
		if err != nil {
			t.Fatal(err)
		}
		e.ApplyMutation(g3, m.Remap(), nil)
		big, err := e.CGBA(cfg, rng.New(664))
		if err != nil {
			t.Fatal(err)
		}
		wantBig, err := CGBA(streamInto(t, NewBuilder(), weights, grown), cfg, rng.New(664))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "regrown vs fresh", big, wantBig)

		// Restore the 10-player arena for the next config's round.
		g = streamInto(t, b, weights, strats)
		e.Bind(g)
	}
}

// FuzzIncrementalBestResponseEquivalence fuzzes the fast path's whole
// equivalence contract: for arbitrary games, widths, and tolerances the
// pruned solve must return a certified λ-equilibrium of the unpruned
// game, deterministically; and whenever the width covers every strategy
// set it must be bit-identical to the exact path.
func FuzzIncrementalBestResponseEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(4), uint8(0))
	f.Add(int64(42), int64(43), uint8(1), uint8(5))
	f.Add(int64(-7), int64(99), uint8(200), uint8(11))
	f.Fuzz(func(t *testing.T, gameSeed, solveSeed int64, kRaw, lamRaw uint8) {
		gsrc := rng.New(gameSeed)
		players := 2 + gsrc.Intn(12)
		strategies := 2 + gsrc.Intn(22)
		resources := 3 + gsrc.Intn(8)
		g := randomGame(t, gsrc, players, strategies, resources)
		k := 1 + int(kRaw)%(strategies+4) // sometimes covering, mostly pruning
		lambda := float64(lamRaw%12) / 100
		cfg := CGBAConfig{Lambda: lambda, Shortlist: k}

		res, err := CGBA(g, cfg, rng.New(solveSeed))
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsEquilibrium(res.Profile, lambda) {
			t.Fatalf("k=%d λ=%v: result is not a certified equilibrium of the unpruned game", k, lambda)
		}
		again, err := CGBA(g, cfg, rng.New(solveSeed))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(again.Objective) != math.Float64bits(res.Objective) ||
			again.Iterations != res.Iterations || !reflect.DeepEqual(again.Profile, res.Profile) {
			t.Fatalf("k=%d λ=%v: non-deterministic result", k, lambda)
		}
		if k >= g.maxStrategyCount() {
			exact, err := CGBA(g, CGBAConfig{Lambda: lambda, Shortlist: ShortlistFull}, rng.New(solveSeed))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(exact.Objective) != math.Float64bits(res.Objective) ||
				exact.Iterations != res.Iterations || !reflect.DeepEqual(exact.Profile, res.Profile) {
				t.Fatalf("k=%d covers every strategy set but diverged from the exact path", k)
			}
		}
	})
}
