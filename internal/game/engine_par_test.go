package game

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/rng"
)

// testPoolSizes is the pool-size matrix every equivalence test runs:
// size 0 stands for "no pool attached" (the exact pre-pool serial path),
// 1 a pool that degrades to serial, then genuinely parallel sizes.
func testPoolSizes() []int {
	return []int{0, 1, 2, 3, runtime.NumCPU() + 1}
}

func instrumentedEngine(g *Game, reg *obs.Registry) *Engine {
	e := NewEngine(g)
	e.SetInstruments(Instruments{
		CGBASolves:     reg.Counter("cgba.solves"),
		CGBAIterations: reg.Histogram("cgba.iterations"),
		CacheHits:      reg.Counter("engine.cache_hits"),
		CacheMisses:    reg.Counter("engine.cache_miss"),
		Moves:          reg.Counter("engine.moves"),
	})
	return e
}

// TestEngineCGBAPoolMatrix is the core determinism contract: an attached
// pool leaves the unsharded CGBA's profile, objective bits, iteration
// count, RNG draw sequence, and even its cache-hit/miss/move tallies
// identical for every pool size, on the sweep and on the exact loop.
func TestEngineCGBAPoolMatrix(t *testing.T) {
	configs := []CGBAConfig{
		{},                   // max-improvement, λ=0
		{Lambda: 0.1},        // max-improvement, λ>0
		{Pivot: PivotRandom}, // draws from src: trajectory must match
		{Pivot: PivotRoundRobin},
		{Pivot: PivotRandom, Lambda: 0.05},
	}
	shapes := []struct{ players, strategies, resources int }{
		{30, 5, 11},
		{33, 5, 11},
		{80, 7, 23},
	}
	for gi, shape := range shapes {
		for ci, cfg := range configs {
			t.Run(fmt.Sprintf("shape%d/cfg%d", gi, ci), func(t *testing.T) {
				buildGame := func() *Game {
					return randomGame(t, rng.New(int64(100+gi)), shape.players, shape.strategies, shape.resources)
				}
				serialReg := obs.New()
				serial := instrumentedEngine(buildGame(), serialReg)
				want, err := serial.CGBA(cfg, rng.New(int64(7+ci)))
				if err != nil {
					t.Fatal(err)
				}
				wantSnap := serialReg.Snapshot()

				for _, size := range testPoolSizes()[1:] {
					pool := par.New(size)
					reg := obs.New()
					e := instrumentedEngine(buildGame(), reg)
					e.SetPool(pool)
					got, err := e.CGBA(cfg, rng.New(int64(7+ci)))
					pool.Close()
					if err != nil {
						t.Fatalf("pool %d: %v", size, err)
					}
					if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
						t.Errorf("pool %d: objective bits %#x, want %#x",
							size, math.Float64bits(got.Objective), math.Float64bits(want.Objective))
					}
					if got.Iterations != want.Iterations {
						t.Errorf("pool %d: iterations %d, want %d", size, got.Iterations, want.Iterations)
					}
					if !reflect.DeepEqual(got.Profile, want.Profile) {
						t.Errorf("pool %d: profile diverged", size)
					}
					snap := reg.Snapshot()
					if !reflect.DeepEqual(snap.Counters, wantSnap.Counters) {
						t.Errorf("pool %d: tallies %v, want %v", size, snap.Counters, wantSnap.Counters)
					}
					if !reflect.DeepEqual(snap.Histograms, wantSnap.Histograms) {
						t.Errorf("pool %d: histograms diverged", size)
					}
				}
			})
		}
	}
}

// TestEngineCGBAPoolReuse runs several solves on one pooled engine
// (random restarts, as BDMA rounds do) and checks each against a fresh
// serial engine fed the same RNG stream.
func TestEngineCGBAPoolReuse(t *testing.T) {
	pool := par.New(3)
	defer pool.Close()
	g := randomGame(t, rng.New(5), 64, 6, 17)
	e := NewEngine(g)
	e.SetPool(pool)
	srcPar, srcSerial := rng.New(91), rng.New(91)
	for round := 0; round < 5; round++ {
		got, err := e.CGBA(CGBAConfig{}, srcPar)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewEngine(randomGame(t, rng.New(5), 64, 6, 17)).CGBA(CGBAConfig{}, srcSerial)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
			got.Iterations != want.Iterations || !reflect.DeepEqual(got.Profile, want.Profile) {
			t.Fatalf("round %d diverged: got (%v, %d), want (%v, %d)",
				round, got.Objective, got.Iterations, want.Objective, want.Iterations)
		}
	}
}
