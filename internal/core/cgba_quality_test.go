package core

import (
	"fmt"
	"testing"

	"eotora/internal/game"
	"eotora/internal/rng"
	"eotora/internal/topology"
)

// TestCGBASweepQualityGuard bounds what the default sweep gives up
// against the exact max-improvement loop: over 20 slot games per
// system, the summed P2-A objective of the default solve stays within
// 0.1% of the exact loop's. The systems span wide games (the paper's
// topology) and narrow ones (metro, where a device reaches a few nearby
// cells, and the reduced test topology). Both solvers return certified
// λ-equilibria; they differ only in which one they select, and on a
// 12-device game one device's choice moves the sum by tenths of a
// percent (over seeds 1–12 the ratio spans 0.989–1.0037), so that
// system is held to 0.5%.
//
// raceEnabled (race_test.go) and -short drop the 1000-device games.
func TestCGBASweepQualityGuard(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  topology.Spec
		bound float64
	}{
		{"default", topology.DefaultSpec(300), 1.001},
		{"default", topology.DefaultSpec(1000), 1.001},
		{"metro", topology.MetroSpec(1000), 1.001},
		{"small", smallSpec(12), 1.005},
		{"small", smallSpec(40), 1.001},
	} {
		devices := tc.spec.Devices
		if devices > 300 && (testing.Short() || raceEnabled) {
			// The exact loop's 1000-device solves take seconds here and
			// minutes under the race detector.
			continue
		}
		label := fmt.Sprintf("%s devices=%d", tc.name, devices)
		sys, gen := buildSpecSystem(t, tc.spec, int64(devices))
		p := new(P2A)
		var sweep, exact [2]float64
		lambdas := [2]float64{0, 0.05}
		for slot := 0; slot < 20; slot++ {
			if err := sys.BuildP2A(p, gen.Next(), sys.LowestFrequencies()); err != nil {
				t.Fatal(err)
			}
			for li, lambda := range lambdas {
				src := rng.New(int64(slot))
				def, err := CGBASolver{Lambda: lambda}.Solve(p, src)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := p.Engine().CGBA(game.CGBAConfig{Lambda: lambda, Exact: true}, src)
				if err != nil {
					t.Fatal(err)
				}
				sweep[li] += def.Objective
				exact[li] += ref.Objective
			}
		}
		for li, lambda := range lambdas {
			ratio := sweep[li] / exact[li]
			t.Logf("%s λ=%v: sweep/exact objective %.6f", label, lambda, ratio)
			if ratio > tc.bound {
				t.Errorf("%s λ=%v: default objective %.6g is %.4f× the exact loop's %.6g",
					label, lambda, sweep[li], ratio, exact[li])
			}
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool
