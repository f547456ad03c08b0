package game

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"eotora/internal/rng"
	"eotora/internal/solver"
)

// twoPlayerGame builds a classic 2-player, 2-resource load-balancing game:
// each player picks resource 0 or 1 with unit weight.
func twoPlayerGame(t *testing.T) *Game {
	t.Helper()
	strategies := [][][]Use{
		{{{Resource: 0, Weight: 1}}, {{Resource: 1, Weight: 1}}},
		{{{Resource: 0, Weight: 1}}, {{Resource: 1, Weight: 1}}},
	}
	g, err := New([]float64{1, 1}, strategies)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomGame builds a random instance shaped like P2-A: each strategy uses
// exactly three resources (access link, fronthaul, server), mirroring
// R_i(z_i) = {B_k^A, B_k^F, C_n}.
func randomGame(t testing.TB, src *rng.Source, players, strategies, resources int) *Game {
	t.Helper()
	if resources < 3 {
		t.Fatal("randomGame needs at least 3 resources")
	}
	weights := make([]float64, resources)
	for r := range weights {
		weights[r] = src.Uniform(0.5, 2)
	}
	strats := make([][][]Use, players)
	for i := range strats {
		strats[i] = make([][]Use, strategies)
		for s := range strats[i] {
			perm := src.Perm(resources)
			strats[i][s] = []Use{
				{Resource: perm[0], Weight: src.Uniform(0.2, 3)},
				{Resource: perm[1], Weight: src.Uniform(0.2, 3)},
				{Resource: perm[2], Weight: src.Uniform(0.2, 3)},
			}
		}
	}
	g, err := New(weights, strats)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	valid := [][][]Use{{{{Resource: 0, Weight: 1}}}}
	tests := []struct {
		name       string
		weights    []float64
		strategies [][][]Use
	}{
		{"no resources", nil, valid},
		{"zero weight resource", []float64{0}, valid},
		{"negative weight resource", []float64{-1}, valid},
		{"infinite weight resource", []float64{math.Inf(1)}, valid},
		{"no players", []float64{1}, nil},
		{"player without strategies", []float64{1}, [][][]Use{{}}},
		{"strategy without resources", []float64{1}, [][][]Use{{{}}}},
		{"resource out of range", []float64{1}, [][][]Use{{{{Resource: 3, Weight: 1}}}}},
		{"negative resource index", []float64{1}, [][][]Use{{{{Resource: -1, Weight: 1}}}}},
		{"zero use weight", []float64{1}, [][][]Use{{{{Resource: 0, Weight: 0}}}}},
		{"duplicate resource in strategy", []float64{1, 1}, [][][]Use{{{{Resource: 0, Weight: 1}, {Resource: 0, Weight: 2}}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.weights, tt.strategies); err == nil {
				t.Error("New accepted invalid game")
			}
		})
	}
	if _, err := New([]float64{1}, valid); err != nil {
		t.Errorf("New rejected valid game: %v", err)
	}
}

// TestBuilderStreamValidation streams invalid pairs, stations and
// players through NextStation/AddPair and requires Build's error text,
// the first error of its player-order walk, as the fully deferred
// validation reported it. Resources: servers 0 and 1, access 2,
// fronthaul 3.
func TestBuilderStreamValidation(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	valid := func(b *Builder) {
		b.NextPlayer()
		b.NextStation(2, 1, 3, 1)
		b.AddPair(0, 1)
		b.AddPair(1, 1)
	}
	pair := func(server int, w float64) func(*Builder) {
		return func(b *Builder) {
			b.NextPlayer()
			b.NextStation(2, 1, 3, 1)
			b.AddPair(server, w)
		}
	}
	station := func(access int, accessW float64, fronthaul int, fronthaulW float64) func(*Builder) {
		return func(b *Builder) {
			b.NextPlayer()
			b.NextStation(access, accessW, fronthaul, fronthaulW)
			b.AddPair(0, 1)
		}
	}
	tests := []struct {
		name    string
		weights []float64 // nil = all 1
		stream  []func(*Builder)
		want    string
	}{
		{"zero pair weight", nil, []func(*Builder){pair(0, 0)}, "game: player 0 strategy 0 has invalid weight 0"},
		{"negative pair weight", nil, []func(*Builder){pair(0, -1)}, "game: player 0 strategy 0 has invalid weight -1"},
		{"NaN pair weight", nil, []func(*Builder){pair(0, nan)}, "game: player 0 strategy 0 has invalid weight NaN"},
		{"+Inf pair weight", nil, []func(*Builder){pair(0, inf)}, "game: player 0 strategy 0 has invalid weight +Inf"},
		{"zero access weight", nil, []func(*Builder){station(2, 0, 3, 1)}, "game: player 0 strategy 0 has invalid weight 0"},
		{"negative fronthaul weight", nil, []func(*Builder){station(2, 1, 3, -1)}, "game: player 0 strategy 0 has invalid weight -1"},
		{"NaN fronthaul weight", nil, []func(*Builder){station(2, 1, 3, nan)}, "game: player 0 strategy 0 has invalid weight NaN"},
		{"+Inf access weight", nil, []func(*Builder){station(2, inf, 3, 1)}, "game: player 0 strategy 0 has invalid weight +Inf"},
		{"server out of range", nil, []func(*Builder){pair(4, 1)}, "game: player 0 strategy 0 references resource 4 of 4"},
		{"negative server", nil, []func(*Builder){pair(-1, 1)}, "game: player 0 strategy 0 references resource -1 of 4"},
		{"station out of range", nil, []func(*Builder){station(5, 1, 3, 1)}, "game: player 0 strategy 0 references resource 5 of 4"},
		{"server equals access", nil, []func(*Builder){pair(2, 1)}, "game: player 0 strategy 0 uses resource 2 twice"},
		{"server equals fronthaul", nil, []func(*Builder){pair(3, 1)}, "game: player 0 strategy 0 uses resource 3 twice"},
		{"access equals fronthaul", nil, []func(*Builder){station(2, 1, 2, 1)}, "game: player 0 strategy 0 uses resource 2 twice"},
		{"pair before any station", nil, []func(*Builder){func(b *Builder) {
			b.NextPlayer()
			b.AddPair(0, 1)
		}}, "game: player 0 strategy 0 has invalid weight 0"},
		{"player with no pairs", nil, []func(*Builder){valid, func(b *Builder) { b.NextPlayer() }, valid}, "game: player 1 has no strategies"},
		{"player with a station but no pairs", nil, []func(*Builder){func(b *Builder) {
			b.NextPlayer()
			b.NextStation(2, 1, 3, 1)
		}, valid}, "game: player 0 has no strategies"},
		{"last player with no pairs", nil, []func(*Builder){valid, func(b *Builder) { b.NextPlayer() }}, "game: player 1 has no strategies"},
		{"resource weight before bad pair", []float64{1, 0, 1, 1}, []func(*Builder){pair(4, nan)}, "game: resource 1 has invalid weight 0"},
		{"bad second pair of a player", nil, []func(*Builder){valid, func(b *Builder) {
			b.NextPlayer()
			b.NextStation(2, 1, 3, 1)
			b.AddPair(0, 1)
			b.NextStation(2, 1, 3, 1)
			b.AddPair(1, -3)
		}}, "game: player 1 strategy 1 has invalid weight -3"},
		{"generic use before bad pair", nil, []func(*Builder){func(b *Builder) {
			b.NextPlayer()
			b.NextStrategy()
			b.AddUse(0, -2)
		}, pair(0, nan)}, "game: player 0 strategy 0 has invalid weight -2"},
		{"bad pair before generic use", nil, []func(*Builder){pair(0, nan), func(b *Builder) {
			b.NextPlayer()
			b.NextStrategy()
			b.AddUse(0, -2)
		}}, "game: player 0 strategy 0 has invalid weight NaN"},
		{"generic duplicate after valid pairs", nil, []func(*Builder){valid, func(b *Builder) {
			b.NextPlayer()
			b.NextStrategy()
			b.AddUse(1, 1)
			b.AddUse(1, 2)
		}}, "game: player 1 strategy 0 uses resource 1 twice"},
	}
	b := NewBuilder()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			// One recycled builder: a failed build must not leak into the
			// next, so each case also rebuilds a valid game after it.
			weights := tt.weights
			if weights == nil {
				weights = []float64{1, 1, 1, 1}
			}
			b.Reset(len(weights))
			copy(b.Weights(), weights)
			for _, stream := range tt.stream {
				stream(b)
			}
			_, err := b.Build()
			if err == nil || err.Error() != tt.want {
				t.Fatalf("Build error %v, want %q", err, tt.want)
			}
			b.Reset(4)
			copy(b.Weights(), []float64{1, 1, 1, 1})
			valid(b)
			if _, err := b.Build(); err != nil {
				t.Fatalf("valid rebuild after the failure: %v", err)
			}
		})
	}
}

func TestSocialCostTelescopes(t *testing.T) {
	// Σ_i T_i(z) must equal Σ_r m_r p_r(z)².
	src := rng.New(1)
	for trial := 0; trial < 20; trial++ {
		g := randomGame(t, src, 2+src.Intn(6), 2+src.Intn(3), 4+src.Intn(4))
		p := make(Profile, g.Players())
		for i := range p {
			p[i] = src.Intn(g.StrategyCount(i))
		}
		loads := g.Loads(p)
		sum := 0.0
		for i := range p {
			sum += g.PlayerCost(p, loads, i)
		}
		social := g.SocialCost(p)
		if math.Abs(sum-social) > 1e-9*(social+1) {
			t.Fatalf("Σ T_i = %v ≠ social %v", sum, social)
		}
	}
}

func TestPotentialMovePropertyExact(t *testing.T) {
	// ΔΦ under a unilateral move must equal the mover's cost change.
	src := rng.New(2)
	for trial := 0; trial < 30; trial++ {
		g := randomGame(t, src, 3+src.Intn(5), 2+src.Intn(3), 5)
		p := make(Profile, g.Players())
		for i := range p {
			p[i] = src.Intn(g.StrategyCount(i))
		}
		i := src.Intn(g.Players())
		s := src.Intn(g.StrategyCount(i))
		loadsBefore := g.Loads(p)
		costBefore := g.PlayerCost(p, loadsBefore, i)
		phiBefore := g.Potential(p)

		q := p.Clone()
		q[i] = s
		loadsAfter := g.Loads(q)
		costAfter := g.PlayerCost(q, loadsAfter, i)
		phiAfter := g.Potential(q)

		dPhi := phiAfter - phiBefore
		dCost := costAfter - costBefore
		if math.Abs(dPhi-dCost) > 1e-9*(math.Abs(dCost)+1) {
			t.Fatalf("trial %d: ΔΦ = %v ≠ ΔT_i = %v", trial, dPhi, dCost)
		}
	}
}

func TestValidProfile(t *testing.T) {
	g := twoPlayerGame(t)
	if !g.Valid(Profile{0, 1}) {
		t.Error("valid profile rejected")
	}
	if g.Valid(Profile{0}) {
		t.Error("short profile accepted")
	}
	if g.Valid(Profile{0, 2}) {
		t.Error("out-of-range strategy accepted")
	}
	if g.Valid(Profile{-1, 0}) {
		t.Error("negative strategy accepted")
	}
}

func TestCGBAOnLoadBalancing(t *testing.T) {
	// Two unit players, two unit resources: equilibrium spreads them out,
	// social cost 2 (vs 4 when colliding).
	g := twoPlayerGame(t)
	res, err := CGBA(g, CGBAConfig{Initial: Profile{0, 0}}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-2) > 1e-9 {
		t.Errorf("objective = %v, want 2", res.Objective)
	}
	if res.Profile[0] == res.Profile[1] {
		t.Errorf("players collided: %v", res.Profile)
	}
	if !g.IsEquilibrium(res.Profile, 0) {
		t.Error("CGBA result is not an equilibrium")
	}
}

func TestCGBATerminatesAtEquilibrium(t *testing.T) {
	src := rng.New(4)
	for trial := 0; trial < 15; trial++ {
		g := randomGame(t, src, 10, 4, 6)
		res, err := CGBA(g, CGBAConfig{}, src)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsEquilibrium(res.Profile, 0) {
			t.Fatalf("trial %d: result not an equilibrium", trial)
		}
		if !g.Valid(res.Profile) {
			t.Fatalf("trial %d: invalid profile", trial)
		}
	}
}

func TestCGBALambdaTradeoff(t *testing.T) {
	// Larger λ must not increase iteration count (on the same instance
	// and start), matching Figure 6.
	src := rng.New(5)
	g := randomGame(t, src, 40, 6, 10)
	initial := make(Profile, g.Players())
	for i := range initial {
		initial[i] = src.Intn(g.StrategyCount(i))
	}
	var prevIters int
	for idx, lambda := range []float64{0, 0.04, 0.08, 0.12} {
		res, err := CGBA(g, CGBAConfig{Lambda: lambda, Initial: initial}, rng.New(6))
		if err != nil {
			t.Fatal(err)
		}
		if idx > 0 && res.Iterations > prevIters {
			t.Errorf("λ=%v used %d iterations, more than smaller λ's %d", lambda, res.Iterations, prevIters)
		}
		prevIters = res.Iterations
	}
}

func TestCGBAConfigValidation(t *testing.T) {
	g := twoPlayerGame(t)
	if _, err := CGBA(g, CGBAConfig{Lambda: 0.125}, rng.New(1)); err == nil {
		t.Error("λ = 0.125 accepted")
	}
	if _, err := CGBA(g, CGBAConfig{Lambda: -0.1}, rng.New(1)); err == nil {
		t.Error("negative λ accepted")
	}
	if _, err := CGBA(g, CGBAConfig{Initial: Profile{0}}, rng.New(1)); err == nil {
		t.Error("short initial profile accepted")
	}
}

func TestCGBAIterationCap(t *testing.T) {
	src := rng.New(7)
	g := randomGame(t, src, 30, 5, 8)
	_, err := CGBA(g, CGBAConfig{MaxIterations: 1, Initial: worstProfile(t, g)}, src)
	if err == nil {
		t.Skip("instance converged in one step; cap not exercised")
	}
	if err != ErrNoConverge {
		t.Errorf("err = %v, want ErrNoConverge", err)
	}
}

// worstProfile returns a profile that is very likely not an equilibrium:
// everyone picks strategy 0.
func worstProfile(t *testing.T, g *Game) Profile {
	t.Helper()
	p := make(Profile, g.Players())
	return p
}

func TestCGBANearOptimalOnSmallInstances(t *testing.T) {
	// Theorem 2 guarantees 2.62× at λ=0; empirically the paper reports
	// ≈1.02×. Verify the hard bound on random small instances.
	src := rng.New(8)
	for trial := 0; trial < 20; trial++ {
		g := randomGame(t, src, 6, 3, 5)
		res, err := CGBA(g, CGBAConfig{}, src)
		if err != nil {
			t.Fatal(err)
		}
		opt, bnb, err := Optimal(g, solver.BnBConfig{}, src)
		if err != nil {
			t.Fatal(err)
		}
		if !bnb.Optimal {
			t.Fatal("unbudgeted BnB not optimal")
		}
		if res.Objective > 2.62*opt.Objective+1e-9 {
			t.Errorf("trial %d: CGBA %v > 2.62 × optimal %v", trial, res.Objective, opt.Objective)
		}
		if opt.Objective > res.Objective+1e-9 {
			t.Errorf("trial %d: optimal %v above CGBA %v", trial, opt.Objective, res.Objective)
		}
	}
}

func TestMCBAImprovesOverRandom(t *testing.T) {
	src := rng.New(9)
	g := randomGame(t, src, 20, 5, 8)
	randomSum, mcbaSum := 0.0, 0.0
	for trial := 0; trial < 5; trial++ {
		randomSum += RandomProfile(g, src).Objective
		res, err := MCBA(g, MCBAConfig{}, src)
		if err != nil {
			t.Fatal(err)
		}
		mcbaSum += res.Objective
		if !g.Valid(res.Profile) {
			t.Fatal("MCBA returned invalid profile")
		}
	}
	if mcbaSum >= randomSum {
		t.Errorf("MCBA average %v not better than random %v", mcbaSum/5, randomSum/5)
	}
}

func TestMCBABestSeenConsistency(t *testing.T) {
	// The reported objective must equal the social cost of the reported
	// profile (best-seen bookkeeping).
	src := rng.New(10)
	g := randomGame(t, src, 10, 4, 6)
	res, err := MCBA(g, MCBAConfig{Iterations: 500}, src)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Objective-g.SocialCost(res.Profile)) > 1e-9*(res.Objective+1) {
		t.Errorf("objective %v ≠ recomputed %v", res.Objective, g.SocialCost(res.Profile))
	}
	if res.Iterations != 500 {
		t.Errorf("iterations = %d, want 500", res.Iterations)
	}
}

func TestMCBASinglePlayerSingleStrategy(t *testing.T) {
	g, err := New([]float64{1}, [][][]Use{{{{Resource: 0, Weight: 1}}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := MCBA(g, MCBAConfig{Iterations: 10}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective != 1 {
		t.Errorf("objective = %v, want 1", res.Objective)
	}
}

func TestRandomProfileValid(t *testing.T) {
	src := rng.New(11)
	g := randomGame(t, src, 15, 4, 6)
	for trial := 0; trial < 10; trial++ {
		res := RandomProfile(g, src)
		if !g.Valid(res.Profile) {
			t.Fatal("random profile invalid")
		}
		if math.Abs(res.Objective-g.SocialCost(res.Profile)) > 1e-9 {
			t.Fatal("random profile objective mismatch")
		}
	}
}

func TestOptimalMatchesExhaustiveSearch(t *testing.T) {
	// Brute-force over all profiles on tiny instances.
	src := rng.New(12)
	for trial := 0; trial < 10; trial++ {
		g := randomGame(t, src, 4, 3, 4)
		opt, bnb, err := Optimal(g, solver.BnBConfig{}, src)
		if err != nil {
			t.Fatal(err)
		}
		if !bnb.Optimal {
			t.Fatal("BnB truncated on tiny instance")
		}
		best := math.Inf(1)
		var rec func(i int, p Profile)
		rec = func(i int, p Profile) {
			if i == g.Players() {
				if c := g.SocialCost(p); c < best {
					best = c
				}
				return
			}
			for s := 0; s < g.StrategyCount(i); s++ {
				p[i] = s
				rec(i+1, p)
			}
		}
		rec(0, make(Profile, g.Players()))
		if math.Abs(opt.Objective-best) > 1e-9*(best+1) {
			t.Fatalf("trial %d: Optimal = %v, brute force = %v", trial, opt.Objective, best)
		}
	}
}

func TestOptimalWithBudgetReportsGap(t *testing.T) {
	src := rng.New(13)
	g := randomGame(t, src, 25, 6, 10)
	_, bnb, err := Optimal(g, solver.BnBConfig{MaxNodes: 200}, src)
	if err != nil {
		t.Fatal(err)
	}
	if bnb.Optimal && bnb.Nodes > 200 {
		t.Error("budget exceeded yet marked optimal")
	}
	if bnb.Bound > bnb.Cost+1e-9 {
		t.Errorf("bound %v above cost %v", bnb.Bound, bnb.Cost)
	}
}

// Property: CGBA from any random start lands within the Theorem 2 factor
// of the exact optimum on small random instances.
func TestCGBAApproximationProperty(t *testing.T) {
	src := rng.New(14)
	prop := func(seed int64) bool {
		g := randomGame(t, src, 3+src.Intn(3), 2+src.Intn(2), 4)
		res, err := CGBA(g, CGBAConfig{}, src)
		if err != nil {
			return false
		}
		opt, bnb, err := Optimal(g, solver.BnBConfig{}, src)
		if err != nil || !bnb.Optimal {
			return false
		}
		return res.Objective <= 2.62*opt.Objective+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the potential strictly decreases along CGBA's improvement path
// (checked indirectly: the final potential never exceeds the initial one).
func TestCGBAPotentialDecreases(t *testing.T) {
	src := rng.New(15)
	for trial := 0; trial < 10; trial++ {
		g := randomGame(t, src, 12, 4, 6)
		initial := make(Profile, g.Players())
		for i := range initial {
			initial[i] = src.Intn(g.StrategyCount(i))
		}
		phi0 := g.Potential(initial)
		res, err := CGBA(g, CGBAConfig{Initial: initial}, src)
		if err != nil {
			t.Fatal(err)
		}
		if g.Potential(res.Profile) > phi0+1e-9 {
			t.Fatalf("trial %d: potential increased", trial)
		}
	}
}

func TestPivotRuleStrings(t *testing.T) {
	if PivotMaxImprovement.String() != "max-improvement" ||
		PivotRoundRobin.String() != "round-robin" ||
		PivotRandom.String() != "random" {
		t.Error("pivot rule strings wrong")
	}
	if PivotRule(9).String() != "PivotRule(9)" {
		t.Error("unknown pivot rule string wrong")
	}
}

func TestAllPivotRulesReachEquilibrium(t *testing.T) {
	src := rng.New(40)
	for trial := 0; trial < 8; trial++ {
		g := randomGame(t, src, 15, 4, 7)
		initial := make(Profile, g.Players())
		for i := range initial {
			initial[i] = src.Intn(g.StrategyCount(i))
		}
		for _, pivot := range []PivotRule{PivotMaxImprovement, PivotRoundRobin, PivotRandom} {
			res, err := CGBA(g, CGBAConfig{Initial: initial, Pivot: pivot}, rng.New(int64(trial)))
			if err != nil {
				t.Fatalf("pivot %v: %v", pivot, err)
			}
			if !g.IsEquilibrium(res.Profile, 0) {
				t.Errorf("trial %d pivot %v: not an equilibrium", trial, pivot)
			}
			if res.Iterations <= 0 && !g.IsEquilibrium(initial, 0) {
				t.Errorf("trial %d pivot %v: zero iterations from non-equilibrium start", trial, pivot)
			}
		}
	}
}

func TestPivotRulesApproximationHolds(t *testing.T) {
	// Theorem 2's bound relies only on reaching an equilibrium, so every
	// pivot rule must satisfy it.
	src := rng.New(41)
	for trial := 0; trial < 6; trial++ {
		g := randomGame(t, src, 5, 3, 5)
		opt, bnb, err := Optimal(g, solver.BnBConfig{}, src)
		if err != nil || !bnb.Optimal {
			t.Fatal(err)
		}
		for _, pivot := range []PivotRule{PivotRoundRobin, PivotRandom} {
			res, err := CGBA(g, CGBAConfig{Pivot: pivot}, rng.New(int64(trial)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Objective > 2.62*opt.Objective+1e-9 {
				t.Errorf("trial %d pivot %v: %v > 2.62 × %v", trial, pivot, res.Objective, opt.Objective)
			}
		}
	}
}

func TestEnumerateEquilibria(t *testing.T) {
	// The 2-player load-balancing game has exactly two pure equilibria:
	// (0,1) and (1,0).
	g := twoPlayerGame(t)
	eqs, complete := g.EnumerateEquilibria(0)
	if !complete {
		t.Fatal("enumeration truncated without a cap")
	}
	if len(eqs) != 2 {
		t.Fatalf("equilibria = %v, want exactly 2", eqs)
	}
	for _, eq := range eqs {
		if eq[0] == eq[1] {
			t.Errorf("colliding profile %v reported as equilibrium", eq)
		}
	}
	// Cap below the profile count truncates.
	if _, complete := g.EnumerateEquilibria(2); complete {
		t.Error("cap of 2 on 4 profiles reported complete")
	}
}

func TestPriceOfAnarchyWithinTheorem2(t *testing.T) {
	// The empirical PoA on random micro instances must respect the 2.62
	// bound of Theorem 2 (which holds for every equilibrium CGBA reaches).
	src := rng.New(60)
	for trial := 0; trial < 10; trial++ {
		g := randomGame(t, src, 4, 3, 4)
		poa, err := g.PriceOfAnarchy(0)
		if err != nil {
			t.Fatal(err)
		}
		if poa < 1-1e-9 {
			t.Errorf("trial %d: PoA %v below 1", trial, poa)
		}
		if poa > 2.62+1e-9 {
			t.Errorf("trial %d: PoA %v breaks the 2.62 bound", trial, poa)
		}
	}
}

func TestPriceOfAnarchyErrors(t *testing.T) {
	g := twoPlayerGame(t)
	if _, err := g.PriceOfAnarchy(1); err == nil {
		t.Error("truncated enumeration accepted")
	}
}

func TestCGBAObjectiveTrace(t *testing.T) {
	src := rng.New(45)
	g := randomGame(t, src, 12, 4, 6)
	res, err := CGBA(g, CGBAConfig{TrackObjective: true}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ObjectiveTrace) != res.Iterations+1 {
		t.Fatalf("trace length %d, want iterations+1 = %d", len(res.ObjectiveTrace), res.Iterations+1)
	}
	// Final trace entry matches the reported objective.
	if last := res.ObjectiveTrace[len(res.ObjectiveTrace)-1]; math.Abs(last-res.Objective) > 1e-9 {
		t.Errorf("trace end %v ≠ objective %v", last, res.Objective)
	}
	// Untracked runs carry no trace.
	res2, err := CGBA(g, CGBAConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if res2.ObjectiveTrace != nil {
		t.Error("trace recorded without TrackObjective")
	}
}

// randomStrategies draws P2-A-shaped strategy sets (three uses per
// strategy, distinct resources) as raw Use lists, so the same content can
// be streamed through a Builder or New.
func randomStrategies(src *rng.Source, players, strategies, resources int) [][][]Use {
	strats := make([][][]Use, players)
	for i := range strats {
		strats[i] = make([][]Use, strategies)
		for s := range strats[i] {
			perm := src.Perm(resources)
			strats[i][s] = []Use{
				{Resource: perm[0], Weight: src.Uniform(0.2, 3)},
				{Resource: perm[1], Weight: src.Uniform(0.2, 3)},
				{Resource: perm[2], Weight: src.Uniform(0.2, 3)},
			}
		}
	}
	return strats
}

// factoredGame builds a game of P2-A's shape through NextStation and
// AddPair, so most players carry a factor description: clusters blocks,
// each of stations sharing rooms of servers, every station reaching
// one or more of its cluster's rooms. Interior players cover stations of
// one cluster; the last boundary players cover stations of every
// cluster. Servers share one weight, and each player's server weights
// are one draw moved by a few ulps, while its access and fronthaul
// weights are larger, so two servers' terms often differ by less than
// the rounding of (C + A) + F: near-ties the factored scan must break
// as the arena scan does. One player in eight streams the same pairs as
// generic strategies, one repeats a server with another weight, and one
// omits its fronthaul uses; all three keep the arena scan. It returns the
// game and the player → cluster assignment (−1 = boundary).
func factoredGame(t testing.TB, src *rng.Source, clusters, perCluster, boundary int) (*Game, []int32) {
	t.Helper()
	type block struct{ stations, servers, base int }
	roomSize := 6 + src.Intn(4)
	rooms := 1 + src.Intn(3)
	stations := 3 + src.Intn(3)
	blocks := make([]block, clusters)
	resources := 0
	for c := range blocks {
		blocks[c] = block{stations: stations, servers: rooms * roomSize, base: resources}
		resources += rooms*roomSize + 2*stations
	}
	b := NewBuilder()
	b.Reset(resources)
	weights := b.Weights()
	reach := make([][][]int, clusters) // [cluster][station] → servers
	for c, bl := range blocks {
		for n := 0; n < bl.servers; n++ {
			weights[bl.base+n] = 1
		}
		for k := 0; k < 2*bl.stations; k++ {
			weights[bl.base+bl.servers+k] = src.Uniform(0.5, 2)
		}
		// Most stations reach a prefix of the rooms, so their servers form
		// runs of the player's distinct servers; the rest reach a suffix,
		// which can break the run and leave the player generic.
		reach[c] = make([][]int, bl.stations)
		for k := range reach[c] {
			lo, hi := 0, 1+src.Intn(rooms)
			if k > 0 && src.Intn(4) == 0 {
				lo, hi = src.Intn(rooms), rooms
			}
			for n := lo * roomSize; n < hi*roomSize; n++ {
				reach[c][k] = append(reach[c][k], bl.base+n)
			}
		}
	}
	n := clusters*perCluster + boundary
	assign := make([]int32, n)
	computeW := make([]float64, resources)
	for i := 0; i < n; i++ {
		covered := []int{i % clusters}
		assign[i] = int32(covered[0])
		if i >= clusters*perCluster {
			assign[i] = -1
			covered = covered[:0]
			for c := 0; c < clusters; c++ {
				covered = append(covered, c)
			}
		}
		w := src.Uniform(0.2, 1)
		for r := range computeW {
			computeW[r] = w
			for step := src.Intn(4); step > 0; step-- {
				computeW[r] = math.Nextafter(computeW[r], 2)
			}
		}
		shape := src.Intn(8)
		b.NextPlayer()
		for _, c := range covered {
			bl := blocks[c]
			for k := 0; k < bl.stations; k++ {
				if k > 0 && src.Intn(4) == 0 {
					continue // not covered
				}
				access, fronthaul := bl.base+bl.servers+k, bl.base+bl.servers+bl.stations+k
				aw, fw := src.Uniform(2, 6), src.Uniform(2, 6)
				b.NextStation(access, aw, fronthaul, fw)
				for _, srv := range reach[c][k] {
					switch shape {
					case 0: // generic strategies, same content
						b.NextStrategy()
						b.AddUse(srv, computeW[srv])
						b.AddUse(access, aw)
						b.AddUse(fronthaul, fw)
					case 1: // a server's weight differs between stations
						b.AddPair(srv, computeW[srv]*float64(1+k))
					case 2: // no fronthaul use
						b.NextStrategy()
						b.AddUse(srv, computeW[srv])
						b.AddUse(access, aw)
					default:
						b.AddPair(srv, computeW[srv])
					}
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, assign
}

// factoredPlayers counts the players of g that carry a factor
// description.
func factoredPlayers(g *Game) int {
	count := 0
	for i := 0; i < g.Players(); i++ {
		if g.facStOff[i] < g.facStOff[i+1] {
			count++
		}
	}
	return count
}

// streamInto streams weights and strategies into the builder and builds.
func streamInto(t *testing.T, b *Builder, weights []float64, strats [][][]Use) *Game {
	t.Helper()
	b.Reset(len(weights))
	copy(b.Weights(), weights)
	for _, player := range strats {
		b.NextPlayer()
		for _, strat := range player {
			b.NextStrategy()
			for _, u := range strat {
				b.AddUse(u.Resource, u.Weight)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireGamesEqual compares two games structurally — weights, strategy
// sets, and the derived costs on a shared profile must be bit-identical,
// the recycled-arena rebuild's build-equivalence contract.
func requireGamesEqual(t *testing.T, got, want *Game) {
	t.Helper()
	if got.Players() != want.Players() || got.Resources() != want.Resources() {
		t.Fatalf("shape: got %d players x %d resources, want %d x %d",
			got.Players(), got.Resources(), want.Players(), want.Resources())
	}
	for r := 0; r < want.Resources(); r++ {
		if math.Float64bits(got.weights[r]) != math.Float64bits(want.weights[r]) {
			t.Fatalf("resource %d weight: got %v, want %v", r, got.weights[r], want.weights[r])
		}
	}
	profile := make(Profile, want.Players())
	for i := 0; i < want.Players(); i++ {
		if got.StrategyCount(i) != want.StrategyCount(i) {
			t.Fatalf("player %d: got %d strategies, want %d", i, got.StrategyCount(i), want.StrategyCount(i))
		}
		for s := 0; s < want.StrategyCount(i); s++ {
			gu, wu := got.StrategyUses(i, s), want.StrategyUses(i, s)
			if len(gu) != len(wu) {
				t.Fatalf("player %d strategy %d: got %d uses, want %d", i, s, len(gu), len(wu))
			}
			for k := range wu {
				if gu[k].Resource != wu[k].Resource ||
					math.Float64bits(gu[k].Weight) != math.Float64bits(wu[k].Weight) {
					t.Fatalf("player %d strategy %d use %d: got %+v, want %+v", i, s, k, gu[k], wu[k])
				}
			}
		}
	}
	// The premultiplied factors must match too: identical social cost and
	// potential on a shared profile, bit for bit.
	if math.Float64bits(got.SocialCost(profile)) != math.Float64bits(want.SocialCost(profile)) {
		t.Fatalf("social cost: got %v, want %v", got.SocialCost(profile), want.SocialCost(profile))
	}
	if math.Float64bits(got.Potential(profile)) != math.Float64bits(want.Potential(profile)) {
		t.Fatalf("potential: got %v, want %v", got.Potential(profile), want.Potential(profile))
	}
	// The footprint index, built on demand, must match the fresh build's
	// bit for bit.
	for _, g := range []*Game{got, want} {
		g.footprints()
	}
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"fpOff", got.fpOff, want.fpOff},
		{"fpRes", got.fpRes, want.fpRes},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// requireFootprints fails unless the footprint index's currency for the
// game's structure is the wanted one.
func requireFootprints(t *testing.T, label string, g *Game, built bool) {
	t.Helper()
	if f := g.fpGen == g.structGen; f != built {
		t.Fatalf("%s: footprint index built=%v, want %v", label, f, built)
	}
}

// TestBuildAndCommitLeaveIndexesUnbuilt: Build does not pay for the
// footprint index, on a fresh Builder or on a rebuild into a recycled
// arena whose index was current for the previous structure; only its
// reader builds it.
func TestBuildAndCommitLeaveIndexesUnbuilt(t *testing.T) {
	src := rng.New(47)
	weights := []float64{1.3, 0.6, 2.2, 1.1, 0.8}
	strats := randomStrategies(src, 6, 3, len(weights))
	b := NewBuilder()
	g := streamInto(t, b, weights, strats)
	requireFootprints(t, "Build", g, false)

	// Build the index, then rebuild different content into the same
	// arena: the rebuilt game must leave it stale.
	g.footprints()
	content := [][][]Use{strats[1], strats[4], strats[0]}
	if g2 := streamInto(t, b, weights, content); g2 != g {
		t.Fatal("rebuild did not reuse the Builder's stable game")
	}
	requireFootprints(t, "rebuild", g, false)
	requireGamesEqual(t, g, streamInto(t, NewBuilder(), weights, content))
}

// TestIndexReadersBuildFirst: the footprint index's one reader, the
// sharded solve, builds it for the current structure before reading; the
// engine's moves, scores, exact loop and reweights read no index. Each
// case first builds the index for a stale structure, so a reader that
// trusted it would diverge from the fresh build the result is compared
// against (requireGamesEqual also compares the index).
func TestIndexReadersBuildFirst(t *testing.T) {
	weights := []float64{1.4, 0.7, 2.0, 1.2, 0.9, 1.6}
	// setup builds a game, warms the index, and rebuilds different
	// content (odd players plus two new ones) into the same arena.
	setup := func(t *testing.T, seed int64) (*Game, [][][]Use) {
		t.Helper()
		src := rng.New(seed)
		strats := randomStrategies(src, 8, 3, len(weights))
		b := NewBuilder()
		g := streamInto(t, b, weights, strats)
		g.footprints()
		var content [][][]Use
		for i := 1; i < len(strats); i += 2 {
			content = append(content, strats[i])
		}
		content = append(content, randomStrategies(src, 2, 2, len(weights))...)
		streamInto(t, b, weights, content)
		requireFootprints(t, "setup", g, false)
		return g, content
	}
	fresh := func(t *testing.T, w []float64, content [][][]Use) *Game {
		return streamInto(t, NewBuilder(), w, content)
	}

	t.Run("Bind+Move", func(t *testing.T) {
		g, content := setup(t, 1)
		e := NewEngine(g)
		requireFootprints(t, "Bind", g, false)
		want := NewEngine(fresh(t, weights, content))
		for _, eng := range []*Engine{e, want} {
			eng.ResetRandom(rng.New(2))
			if err := eng.Move(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		requireFootprints(t, "Move", g, false)
		// Scores after the move match the fresh build's bit for bit.
		for i := 0; i < g.Players(); i++ {
			gotS, gotC := e.BestResponse(i)
			wantS, wantC := want.BestResponse(i)
			gotCur, wantCur := e.PlayerCost(i), want.PlayerCost(i)
			if math.Float64bits(gotCur) != math.Float64bits(wantCur) || gotS != wantS || math.Float64bits(gotC) != math.Float64bits(wantC) {
				t.Fatalf("player %d: cost %v best (%d, %v), fresh %v (%d, %v)", i, gotCur, gotS, gotC, wantCur, wantS, wantC)
			}
		}
		requireFootprints(t, "scores", g, false)
		requireGamesEqual(t, g, fresh(t, weights, content))
	})
	t.Run("SetResourceWeight", func(t *testing.T) {
		g, content := setup(t, 3)
		if err := g.SetResourceWeights(2, []float64{3.5}); err != nil {
			t.Fatal(err)
		}
		requireFootprints(t, "SetResourceWeight", g, false)
		w := append([]float64(nil), weights...)
		w[2] = 3.5
		requireGamesEqual(t, g, fresh(t, w, content))
	})
	t.Run("CGBA", func(t *testing.T) {
		g, content := setup(t, 7)
		want, err := NewEngine(fresh(t, weights, content)).CGBA(CGBAConfig{Exact: true}, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewEngine(g).CGBA(CGBAConfig{Exact: true}, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		requireFootprints(t, "CGBA", g, false)
		requireSameResult(t, "CGBA", got, want)
	})
	t.Run("CGBASharded", func(t *testing.T) {
		g, assign := clusteredGame(t, rng.New(9), 3, 10, 4, 6, 5)
		plan, err := NewShardPlan(3, assign)
		if err != nil {
			t.Fatal(err)
		}
		requireFootprints(t, "New", g, false)
		runCGBASharded(t, g, CGBAConfig{Lambda: 0.01}, plan, 1, 2)
		// The sharded sweeps read only the footprint index.
		requireFootprints(t, "CGBASharded", g, true)
	})
}
