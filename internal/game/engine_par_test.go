package game

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/rng"
)

// testPoolSizes is the pool-size matrix every pool-invariance test runs:
// size 0 stands for "no pool attached" (the serial path), 1 a pool that
// degrades to serial, then genuinely parallel sizes.
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
		ScanTerms:      reg.Counter("engine.scan_terms"),
	})
	return e
}

// randomProfile draws a uniformly random valid profile of g.
func randomProfile(g *Game, src *rng.Source) Profile {
	p := make(Profile, g.Players())
	for i := range p {
		p[i] = src.Intn(g.StrategyCount(i))
	}
	return p
}

// TestEngineCGBAPoolMatrix is the core determinism contract of the one
// solve that uses a pool, the sharded CGBA on a plan of two or more
// shards: an attached pool leaves its profile, objective bits, iteration
// count, and even its skip/score/move tallies identical for every
// pool size, cold and warm-started, at λ = 0 and λ > 0.
func TestEngineCGBAPoolMatrix(t *testing.T) {
	configs := []func(g *Game) CGBAConfig{
		func(*Game) CGBAConfig { return CGBAConfig{} },
		func(*Game) CGBAConfig { return CGBAConfig{Lambda: 0.1} },
		func(*Game) CGBAConfig { return CGBAConfig{Lambda: 0.01} },
		func(g *Game) CGBAConfig {
			return CGBAConfig{Lambda: 0.05, Initial: randomProfile(g, rng.New(7))}
		},
		func(g *Game) CGBAConfig {
			return CGBAConfig{Lambda: 0.1, Initial: randomProfile(g, rng.New(8))}
		},
	}
	shapes := []struct{ clusters, perCluster, boundary, strategies, resPerCluster int }{
		{2, 15, 3, 5, 5},
		{4, 8, 6, 5, 4},
		{6, 12, 8, 7, 4},
	}
	for gi, shape := range shapes {
		for ci, config := range configs {
			t.Run(fmt.Sprintf("shape%d/cfg%d", gi, ci), func(t *testing.T) {
				build := func() (*Game, *ShardPlan) {
					g, assign := clusteredGame(t, rng.New(int64(100+gi)), shape.clusters, shape.perCluster,
						shape.boundary, shape.strategies, shape.resPerCluster)
					plan, err := NewShardPlan(shape.clusters, assign)
					if err != nil {
						t.Fatal(err)
					}
					return g, plan
				}
				g, plan := build()
				cfg := config(g)
				serialReg := obs.New()
				want, err := instrumentedEngine(g, serialReg).CGBASharded(cfg, plan, rng.New(int64(7+ci)))
				if err != nil {
					t.Fatal(err)
				}
				wantSnap := serialReg.Snapshot()

				for _, size := range testPoolSizes()[1:] {
					pool := par.New(size)
					reg := obs.New()
					g, plan := build()
					e := instrumentedEngine(g, reg)
					e.SetPool(pool)
					got, err := e.CGBASharded(cfg, plan, rng.New(int64(7+ci)))
					pool.Close()
					if err != nil {
						t.Fatalf("pool %d: %v", size, err)
					}
					requireSameResult(t, fmt.Sprintf("pool %d", size), got, want)
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

// TestEngineCGBAPoolReuse runs several sharded solves on one pooled
// engine, each warm-started from a fresh random profile as BDMA's
// rounds restart the game, and checks each against a fresh serial
// engine given the same start.
func TestEngineCGBAPoolReuse(t *testing.T) {
	pool := par.New(3)
	defer pool.Close()
	build := func() (*Game, *ShardPlan) {
		g, assign := clusteredGame(t, rng.New(5), 4, 12, 6, 6, 5)
		plan, err := NewShardPlan(4, assign)
		if err != nil {
			t.Fatal(err)
		}
		return g, plan
	}
	g, plan := build()
	e := NewEngine(g)
	e.SetPool(pool)
	starts := rng.New(91)
	for round := 0; round < 5; round++ {
		cfg := CGBAConfig{Lambda: 0.01, Initial: randomProfile(g, starts)}
		got, err := e.CGBASharded(cfg, plan, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		fresh, freshPlan := build()
		want, err := NewEngine(fresh).CGBASharded(cfg, freshPlan, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, fmt.Sprintf("round %d", round), got, want)
	}
}
