package core

import (
	"math"
	"testing"

	"eotora/internal/game"
	"eotora/internal/rng"
)

// TestReweightMatchesFresh checks the BDMA-round fast path: Reweight on a
// built P2A must leave the game bit-identical to a fresh NewP2A with the
// same state and frequencies — same resource weights, same CGBA outcome.
func TestReweightMatchesFresh(t *testing.T) {
	sys, gen := buildSystem(t, 12, 41)
	st := gen.Next()

	p, err := sys.NewP2A(st, sys.LowestFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	// A frequency vector strictly inside every server's range.
	freq := make(Frequencies, len(sys.Net.Servers))
	for n := range freq {
		srv := &sys.Net.Servers[n]
		freq[n] = srv.MinFreq + (srv.MaxFreq-srv.MinFreq)/3
	}
	if err := p.Reweight(freq); err != nil {
		t.Fatal(err)
	}
	fresh, err := sys.NewP2A(st, freq)
	if err != nil {
		t.Fatal(err)
	}

	for r := 0; r < fresh.Game().Resources(); r++ {
		got := p.Game().ResourceWeight(r)
		want := fresh.Game().ResourceWeight(r)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("resource %d weight: reweighted %v (bits %#x), fresh %v (bits %#x)",
				r, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	a, err := CGBASolver{}.Solve(p, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CGBASolver{}.Solve(fresh, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || a.Iterations != b.Iterations {
		t.Fatalf("reweighted CGBA (%v, %d), fresh (%v, %d)", a.Objective, a.Iterations, b.Objective, b.Iterations)
	}
	for i := range a.Profile {
		if a.Profile[i] != b.Profile[i] {
			t.Fatalf("profile %v, want %v", a.Profile, b.Profile)
		}
	}

	// Out-of-range frequencies must be rejected, like NewP2A.
	bad := freq.Clone()
	bad[0] = sys.Net.Servers[0].MaxFreq * 2
	if err := p.Reweight(bad); err == nil {
		t.Error("Reweight accepted out-of-range frequency")
	}
}

// TestBuildP2AReuseMatchesFresh rebuilds one P2A across several slot
// states and checks every rebuild against a fresh NewP2A: identical
// structure, weights, pair tables, and solver results (the controller's
// cross-slot reuse pattern).
func TestBuildP2AReuseMatchesFresh(t *testing.T) {
	sys, gen := buildSystem(t, 10, 42)
	freq := sys.LowestFrequencies()
	var reused P2A
	for slot := 0; slot < 6; slot++ {
		st := gen.Next()
		if err := sys.BuildP2A(&reused, st, freq); err != nil {
			t.Fatal(err)
		}
		fresh, err := sys.NewP2A(st, freq)
		if err != nil {
			t.Fatal(err)
		}
		rg, fg := reused.Game(), fresh.Game()
		if rg.Players() != fg.Players() || rg.Resources() != fg.Resources() {
			t.Fatalf("slot %d: dims (%d, %d) vs fresh (%d, %d)", slot, rg.Players(), rg.Resources(), fg.Players(), fg.Resources())
		}
		for i := 0; i < rg.Players(); i++ {
			if rg.StrategyCount(i) != fg.StrategyCount(i) {
				t.Fatalf("slot %d: player %d has %d strategies, fresh %d", slot, i, rg.StrategyCount(i), fg.StrategyCount(i))
			}
		}
		for r := 0; r < rg.Resources(); r++ {
			if math.Float64bits(rg.ResourceWeight(r)) != math.Float64bits(fg.ResourceWeight(r)) {
				t.Fatalf("slot %d: resource %d weight differs", slot, r)
			}
		}
		a, err := CGBASolver{}.Solve(&reused, rng.New(int64(100+slot)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := CGBASolver{}.Solve(fresh, rng.New(int64(100+slot)))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || a.Iterations != b.Iterations {
			t.Fatalf("slot %d: reused CGBA (%v, %d), fresh (%v, %d)", slot, a.Objective, a.Iterations, b.Objective, b.Iterations)
		}
		selA, selB := reused.Selection(a.Profile), fresh.Selection(b.Profile)
		for i := range selA.Station {
			if selA.Station[i] != selB.Station[i] || selA.Server[i] != selB.Server[i] {
				t.Fatalf("slot %d: selections diverge at device %d", slot, i)
			}
		}
	}
}

// TestProfileLookupRoundTrip exercises the (station, server) → strategy
// inverse (a scan of each device's pair row) against the pair table, plus
// its error paths.
func TestProfileLookupRoundTrip(t *testing.T) {
	sys, gen := buildSystem(t, 9, 43)
	st := gen.Next()
	p, err := sys.NewP2A(st, sys.LowestFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	g := p.Game()
	// Every strategy of every player round-trips through Selection/Profile.
	profile := make(game.Profile, g.Players())
	src := rng.New(44)
	for trial := 0; trial < 50; trial++ {
		for i := range profile {
			profile[i] = src.Intn(g.StrategyCount(i))
		}
		sel := p.Selection(profile)
		back, err := p.Profile(sel)
		if err != nil {
			t.Fatal(err)
		}
		for i := range profile {
			if back[i] != profile[i] {
				t.Fatalf("round trip %v → %v", profile, back)
			}
		}
	}
	// Infeasible and out-of-range pairs error.
	sel := p.Selection(make(game.Profile, g.Players()))
	for _, bad := range []struct{ k, n int }{
		{-1, 0},
		{len(sys.Net.BaseStations), 0},
		{0, -1},
		{0, len(sys.Net.Servers)},
	} {
		s2 := sel.Clone()
		s2.Station[0], s2.Server[0] = bad.k, bad.n
		if _, err := p.Profile(s2); err == nil {
			t.Errorf("Profile accepted pair (%d, %d)", bad.k, bad.n)
		}
	}
}

// TestBDMAGoldenSeed pins the full BDMA alternation — Builder-based P2A
// reuse, Reweight rounds, engine-backed CGBA, pooled scratch — to captured
// values. Re-captured when the shortlist fast path and round warm-starting
// landed (same equilibrium as the seed here, reached in fewer steps), and
// when narrow games (at most 16 strategies, as here) moved from the exact
// loop to the sweep: a different certified λ-equilibrium.
func TestBDMAGoldenSeed(t *testing.T) {
	sys, gen := buildSystem(t, 14, 33)
	st := gen.Next()
	res, err := sys.BDMA(st, 75, 12, BDMAConfig{Iterations: 4}, rng.New(91))
	if err != nil {
		t.Fatal(err)
	}
	if bits := math.Float64bits(res.Objective); bits != 0x4038676f9836ee80 {
		t.Errorf("objective bits %#x, want 0x4038676f9836ee80", bits)
	}
	if bits := math.Float64bits(res.Latency); bits != 0x3fd5e1ede3637a34 {
		t.Errorf("latency bits %#x, want 0x3fd5e1ede3637a34", bits)
	}
	if res.SolverIterations != 4 {
		t.Errorf("solver iterations %d, want 4", res.SolverIterations)
	}
	wantStation := []int{0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1}
	wantServer := []int{2, 3, 3, 3, 3, 2, 3, 3, 2, 2, 3, 3, 3, 3}
	for i := range wantStation {
		if res.Selection.Station[i] != wantStation[i] || res.Selection.Server[i] != wantServer[i] {
			t.Fatalf("selection (%v, %v), want (%v, %v)", res.Selection.Station, res.Selection.Server, wantStation, wantServer)
		}
	}
}

// TestControllerGoldenSeed pins 12 controller slots (per-slot derived RNG,
// persistent P2A scratch, queue updates) to captured aggregates.
// Re-captured when the shortlist fast path and round warm-starting landed,
// and when narrow games moved from the exact loop to the sweep: each time
// the solve dynamics select a different (still certified) λ-equilibrium.
func TestControllerGoldenSeed(t *testing.T) {
	sys, gen := buildSystem(t, 10, 34)
	ctrl, err := NewBDMAController(sys, 120, 3, 0.05, 17)
	if err != nil {
		t.Fatal(err)
	}
	var latSum, costSum float64
	for s := 0; s < 12; s++ {
		r, err := ctrl.Step(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		latSum += r.Latency.Value()
		costSum += r.EnergyCost.Dollars()
	}
	if bits := math.Float64bits(latSum); bits != 0x3ff99e8ddda3c11c {
		t.Errorf("latency sum bits %#x, want 0x3ff99e8ddda3c11c", bits)
	}
	if bits := math.Float64bits(costSum); bits != 0x4010c937710fca28 {
		t.Errorf("cost sum bits %#x, want 0x4010c937710fca28", bits)
	}
	if bits := math.Float64bits(ctrl.Backlog()); bits != 0x3fed810e75073b46 {
		t.Errorf("backlog bits %#x, want 0x3fed810e75073b46", bits)
	}
}
