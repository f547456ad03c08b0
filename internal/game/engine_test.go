package game

import (
	"math"
	"testing"

	"eotora/internal/rng"
)

// checkEngineAgainstShadow asserts the engine's cached quantities are
// bit-identical to the seed implementation's path: a shadow profile whose
// loads are maintained through Game.applyMove (exactly as the pre-Engine
// CGBA loop did), with costs evaluated by the one-shot Game methods on
// those loads. It also cross-checks against a full from-scratch load
// recomputation within a small relative tolerance (incremental loads
// accumulate in move order, so from-scratch bits may legitimately differ
// in the last ulp — the seed path had the same property).
func checkEngineAgainstShadow(t *testing.T, e *Engine, g *Game, shadow Profile, loads []float64) {
	t.Helper()
	p := e.Profile()
	for i := range p {
		if p[i] != shadow[i] {
			t.Fatalf("profile diverged: engine %v, shadow %v", p, shadow)
		}
	}
	for r, want := range loads {
		if got := e.Loads()[r]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("resource %d load: engine %v (bits %#x), shadow %v (bits %#x)",
				r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	if got, want := e.SocialCost(), g.SocialCost(p); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("social cost: engine %v, recomputed %v", got, want)
	}
	fresh := g.Loads(p)
	for i := range p {
		if got, want := e.PlayerCost(i), g.PlayerCost(shadow, loads, i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("player %d cost: engine %v, shadow %v", i, got, want)
		}
		gotS, gotC := e.BestResponse(i)
		wantS, wantC := g.bestResponse(shadow, loads, i)
		if gotS != wantS || math.Float64bits(gotC) != math.Float64bits(wantC) {
			t.Fatalf("player %d best response: engine (%d, %v), shadow (%d, %v)", i, gotS, gotC, wantS, wantC)
		}
		// Full recomputation agrees up to accumulation-order rounding.
		if _, fullBR := g.bestResponse(p, fresh, i); math.Abs(gotC-fullBR) > 1e-9*(math.Abs(fullBR)+1) {
			t.Fatalf("player %d: engine best response %v far from recomputed %v", i, gotC, fullBR)
		}
	}
}

// TestEngineMatchesRecomputation drives engines through random move
// sequences and checks every cached quantity against the seed
// implementation's incremental dynamics and against full recomputation —
// the exact-equivalence contract of the incremental solve path.
func TestEngineMatchesRecomputation(t *testing.T) {
	src := rng.New(1001)
	for trial := 0; trial < 20; trial++ {
		players := 2 + src.Intn(10)
		strategies := 1 + src.Intn(6)
		resources := 3 + src.Intn(8)
		g := randomGame(t, src, players, strategies, resources)
		e := NewEngine(g)
		e.ResetRandom(src)
		shadow := e.Profile().Clone()
		loads := g.Loads(shadow)
		checkEngineAgainstShadow(t, e, g, shadow, loads)
		for step := 0; step < 50; step++ {
			i := src.Intn(players)
			s := src.Intn(g.StrategyCount(i))
			if err := e.Move(i, s); err != nil {
				t.Fatal(err)
			}
			g.applyMove(shadow, loads, i, s)
			checkEngineAgainstShadow(t, e, g, shadow, loads)
		}
	}
}

// FuzzEngineEquivalence fuzzes the move-sequence equivalence: arbitrary
// seeds generate a game, a starting profile, and a walk; the engine must
// agree with recomputation at every step.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(42), int64(43))
	f.Add(int64(-7), int64(99))
	f.Fuzz(func(t *testing.T, gameSeed, walkSeed int64) {
		gsrc := rng.New(gameSeed)
		players := 2 + gsrc.Intn(6)
		strategies := 1 + gsrc.Intn(5)
		resources := 3 + gsrc.Intn(6)
		weights := make([]float64, resources)
		for r := range weights {
			weights[r] = gsrc.Uniform(0.5, 2)
		}
		strats := make([][][]Use, players)
		for i := range strats {
			strats[i] = make([][]Use, strategies)
			for s := range strats[i] {
				perm := gsrc.Perm(resources)
				n := 1 + gsrc.Intn(3)
				for u := 0; u < n; u++ {
					strats[i][s] = append(strats[i][s], Use{Resource: perm[u], Weight: gsrc.Uniform(0.2, 3)})
				}
			}
		}
		g, err := New(weights, strats)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(g)
		wsrc := rng.New(walkSeed)
		e.ResetRandom(wsrc)
		shadow := e.Profile().Clone()
		loads := g.Loads(shadow)
		for step := 0; step < 25; step++ {
			i := wsrc.Intn(players)
			s := wsrc.Intn(g.StrategyCount(i))
			if err := e.Move(i, s); err != nil {
				t.Fatal(err)
			}
			g.applyMove(shadow, loads, i, s)
			for j := 0; j < players; j++ {
				if got, want := e.PlayerCost(j), g.PlayerCost(shadow, loads, j); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d player %d cost: engine %v, shadow %v", step, j, got, want)
				}
				gotS, gotC := e.BestResponse(j)
				wantS, wantC := g.bestResponse(shadow, loads, j)
				if gotS != wantS || math.Float64bits(gotC) != math.Float64bits(wantC) {
					t.Fatalf("step %d player %d best response: engine (%d, %v), shadow (%d, %v)", step, j, gotS, gotC, wantS, wantC)
				}
			}
			if got, want := e.SocialCost(), g.SocialCost(shadow); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d social cost: engine %v, recomputed %v", step, got, want)
			}
		}
	})
}

// TestCGBAGoldenSeed pins CGBA's exact loop to byte-identical results
// captured from the seed implementation (pre-refactor [][][]Use + full
// rescan): same profiles, same objective bits, same iteration counts,
// same RNG draw sequence. Any divergence means the incremental engine
// broke the exact-equivalence contract. Max-improvement cases ask for the
// loop with Exact; the other pivots and TrackObjective take it anyway.
func TestCGBAGoldenSeed(t *testing.T) {
	wantProfile := Profile{3, 3, 3, 0, 5, 2, 1, 0, 3, 0, 0, 4}
	const wantObjBits = 0x405f86dfa42598ee
	cases := []struct {
		name      string
		cfg       CGBAConfig
		wantIters int
	}{
		{"max-improvement", CGBAConfig{Exact: true}, 9},
		{"round-robin", CGBAConfig{Pivot: PivotRoundRobin}, 12},
		{"random", CGBAConfig{Pivot: PivotRandom}, 12},
		{"lambda=0.1", CGBAConfig{Lambda: 0.1, Exact: true}, 9},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGame(t, rng.New(42), 12, 6, 9)
			res, err := CGBA(g, tc.cfg, rng.New(43))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.Objective) != wantObjBits {
				t.Errorf("objective bits %#x, want %#x", math.Float64bits(res.Objective), uint64(wantObjBits))
			}
			if res.Iterations != tc.wantIters {
				t.Errorf("iterations %d, want %d", res.Iterations, tc.wantIters)
			}
			for i := range wantProfile {
				if res.Profile[i] != wantProfile[i] {
					t.Fatalf("profile %v, want %v", res.Profile, wantProfile)
				}
			}
		})
	}

	t.Run("big", func(t *testing.T) {
		want := Profile{7, 4, 5, 6, 4, 5, 0, 6, 1, 3, 7, 0, 5, 2, 5, 6, 3, 4, 3, 2, 5, 0, 1, 4, 5, 1, 5, 6, 3, 7, 7, 6, 6, 6, 2, 4, 3, 2, 4, 3}
		g := randomGame(t, rng.New(7), 40, 8, 16)
		res, err := CGBA(g, CGBAConfig{Exact: true}, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Objective) != 0x40907f044a702a39 {
			t.Errorf("objective bits %#x, want 0x40907f044a702a39", math.Float64bits(res.Objective))
		}
		if res.Iterations != 36 {
			t.Errorf("iterations %d, want 36", res.Iterations)
		}
		for i := range want {
			if res.Profile[i] != want[i] {
				t.Fatalf("profile %v, want %v", res.Profile, want)
			}
		}
	})

	t.Run("track-objective", func(t *testing.T) {
		g := randomGame(t, rng.New(21), 8, 4, 7)
		res, err := CGBA(g, CGBAConfig{TrackObjective: true}, rng.New(22))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ObjectiveTrace) != 5 {
			t.Fatalf("trace length %d, want 5", len(res.ObjectiveTrace))
		}
		sum := 0.0
		for _, o := range res.ObjectiveTrace {
			sum += o
		}
		if math.Float64bits(sum) != 0x408bf0e110cd03a2 {
			t.Errorf("trace sum bits %#x, want 0x408bf0e110cd03a2", math.Float64bits(sum))
		}
	})
}

// TestMCBAGoldenSeed pins the MCBA walk (draw sequence, accept/reject
// arithmetic, best-so-far tracking) to seed-captured values.
func TestMCBAGoldenSeed(t *testing.T) {
	want := Profile{3, 3, 4, 2, 3, 0, 1, 2, 1, 2}
	g := randomGame(t, rng.New(11), 10, 5, 8)
	res, err := MCBA(g, MCBAConfig{Iterations: 500}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Objective) != 0x4066e149820e5815 {
		t.Errorf("objective bits %#x, want 0x4066e149820e5815", math.Float64bits(res.Objective))
	}
	if res.Iterations != 500 {
		t.Errorf("iterations %d, want 500", res.Iterations)
	}
	for i := range want {
		if res.Profile[i] != want[i] {
			t.Fatalf("profile %v, want %v", res.Profile, want)
		}
	}
}

// TestEngineReuseMatchesFresh solves several games through one reused
// engine and through fresh per-call engines, with identical RNG streams;
// results must match bit-for-bit (the BDMA-round reuse pattern).
func TestEngineReuseMatchesFresh(t *testing.T) {
	gsrc := rng.New(71)
	games := make([]*Game, 6)
	for k := range games {
		games[k] = randomGame(t, gsrc, 4+k, 3, 5+k)
	}
	var e *Engine
	fresh := rng.New(72)
	reused := rng.New(72)
	for k, g := range games {
		want, err := CGBA(g, CGBAConfig{}, fresh)
		if err != nil {
			t.Fatal(err)
		}
		if e == nil {
			e = NewEngine(g)
		} else {
			e.Bind(g)
		}
		got, err := e.CGBA(CGBAConfig{}, reused)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || got.Iterations != want.Iterations {
			t.Fatalf("game %d: reused engine (%v, %d), fresh (%v, %d)", k, got.Objective, got.Iterations, want.Objective, want.Iterations)
		}
		for i := range want.Profile {
			if got.Profile[i] != want.Profile[i] {
				t.Fatalf("game %d: profile %v, want %v", k, got.Profile, want.Profile)
			}
		}
	}
}

// TestSetResourceWeightMatchesFresh checks the Reweight fast path's
// foundation: swapping m_r in place must leave the game bit-identical to
// one built from scratch with the new weights.
func TestSetResourceWeightMatchesFresh(t *testing.T) {
	src := rng.New(81)
	weights := []float64{1.5, 0.75, 2.25, 0.5, 1.25}
	strats := make([][][]Use, 6)
	for i := range strats {
		strats[i] = make([][]Use, 4)
		for s := range strats[i] {
			perm := src.Perm(len(weights))
			strats[i][s] = []Use{
				{Resource: perm[0], Weight: src.Uniform(0.2, 3)},
				{Resource: perm[1], Weight: src.Uniform(0.2, 3)},
			}
		}
	}
	g, err := New(weights, strats)
	if err != nil {
		t.Fatal(err)
	}
	newWeights := []float64{1.5, 3.125, 2.25, 0.875, 1.25}
	for r, m := range newWeights {
		if err := g.SetResourceWeight(r, m); err != nil {
			t.Fatal(err)
		}
	}
	freshG, err := New(newWeights, strats)
	if err != nil {
		t.Fatal(err)
	}
	a, err := CGBA(g, CGBAConfig{}, rng.New(82))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CGBA(freshG, CGBAConfig{}, rng.New(82))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || a.Iterations != b.Iterations {
		t.Fatalf("reweighted (%v, %d), fresh (%v, %d)", a.Objective, a.Iterations, b.Objective, b.Iterations)
	}
	for i := range a.Profile {
		if a.Profile[i] != b.Profile[i] {
			t.Fatalf("profile %v, want %v", a.Profile, b.Profile)
		}
	}

	if err := g.SetResourceWeight(-1, 1); err == nil {
		t.Error("expected error for resource -1")
	}
	if err := g.SetResourceWeight(0, math.NaN()); err == nil {
		t.Error("expected error for NaN weight")
	}
	if err := g.SetResourceWeight(0, 0); err == nil {
		t.Error("expected error for zero weight")
	}
}

// TestEngineMoveValidation covers Move's bounds checking and Reset's
// profile validation.
func TestEngineMoveValidation(t *testing.T) {
	g := randomGame(t, rng.New(5), 3, 2, 4)
	e := NewEngine(g)
	e.ResetRandom(rng.New(6))
	for _, move := range [][2]int{{-1, 0}, {3, 0}, {0, -1}, {0, 2}} {
		if err := e.Move(move[0], move[1]); err == nil {
			t.Errorf("Move(%d, %d): expected error", move[0], move[1])
		}
	}
	if err := e.Reset(Profile{0, 0}); err == nil {
		t.Error("Reset with short profile: expected error")
	}
	if err := e.Reset(Profile{0, 0, 5}); err == nil {
		t.Error("Reset with out-of-range strategy: expected error")
	}
	if err := e.Reset(Profile{1, 0, 1}); err != nil {
		t.Errorf("Reset with valid profile: %v", err)
	}
	// Reset reloads from scratch, so the shadow is just the fresh state.
	shadow := Profile{1, 0, 1}
	checkEngineAgainstShadow(t, e, g, shadow, g.Loads(shadow))
}

// TestEngineIsEquilibrium checks the cached equilibrium test against the
// Game-level one on CGBA outputs and on perturbed non-equilibria.
func TestEngineIsEquilibrium(t *testing.T) {
	g := randomGame(t, rng.New(31), 8, 4, 6)
	res, err := CGBA(g, CGBAConfig{}, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(g)
	if err := e.Reset(res.Profile); err != nil {
		t.Fatal(err)
	}
	if !e.IsEquilibrium(0) {
		t.Error("CGBA(0) output not an engine equilibrium")
	}
	if !g.IsEquilibrium(res.Profile, 0) {
		t.Error("CGBA(0) output not a game equilibrium")
	}
	// Engine and Game must agree on arbitrary profiles.
	src := rng.New(33)
	for trial := 0; trial < 30; trial++ {
		p := make(Profile, g.Players())
		for i := range p {
			p[i] = src.Intn(g.StrategyCount(i))
		}
		if err := e.Reset(p); err != nil {
			t.Fatal(err)
		}
		if got, want := e.IsEquilibrium(0), g.IsEquilibrium(p, 0); got != want {
			t.Fatalf("profile %v: engine says %v, game says %v", p, got, want)
		}
	}
}
