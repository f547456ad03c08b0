package game_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"eotora/internal/core"
	"eotora/internal/game"
	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// p2aGame builds the P2-A game of one slot on the paper's topology at
// the lowest server frequencies.
func p2aGame(t *testing.T, devices int, seed int64) *game.Game {
	t.Helper()
	src := rng.New(seed)
	net, err := topology.Generate(topology.DefaultSpec(devices), src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(net, core.DefaultEnergyModels(len(net.Servers), src.Derive("energy")), 3600, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewP2A(gen.Next(), sys.LowestFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	return p.Game()
}

// TestCGBASweepMatchesReferenceP2A is TestCGBASweepMatchesReference on
// P2-A games of the paper's topology.
func TestCGBASweepMatchesReferenceP2A(t *testing.T) {
	pools := map[int]*par.Pool{0: nil, 1: par.New(1), 4: par.New(4)}
	defer pools[1].Close()
	defer pools[4].Close()
	for _, devices := range []int{120, 400} {
		g := p2aGame(t, devices, int64(devices))
		for _, lambda := range []float64{0, 0.05, 0.1} {
			for _, start := range []string{"cold", "initial"} {
				cfg := game.CGBAConfig{Lambda: lambda}
				if start == "initial" {
					cfg.Initial = make(game.Profile, g.Players())
					for i := range cfg.Initial {
						cfg.Initial[i] = (7 * i) % g.StrategyCount(i)
					}
				}
				want := game.ReferenceSweep(g, cfg, 0)
				if !g.IsEquilibrium(want.Profile, lambda) {
					t.Fatalf("reference result is not a λ=%v equilibrium", lambda)
				}
				for _, size := range []int{0, 1, 4} {
					label := fmt.Sprintf("devices=%d λ=%v %s pool=%d", devices, lambda, start, size)
					e := game.NewEngine(g)
					e.SetPool(pools[size])
					got, err := e.CGBA(cfg, rng.New(1))
					if err != nil {
						t.Fatal(err)
					}
					if got.Iterations != want.Iterations ||
						math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
						!reflect.DeepEqual(got.Profile, want.Profile) {
						t.Fatalf("%s: (iterations %d, objective %v) differ from the reference's (%d, %v)",
							label, got.Iterations, got.Objective, want.Iterations, want.Objective)
					}
				}
			}
		}
	}
}
