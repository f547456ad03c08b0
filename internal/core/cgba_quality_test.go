package core

import (
	"testing"

	"eotora/internal/rng"
	"eotora/internal/topology"
)

// TestCGBASweepQualityGuard bounds what the default sweep loop gives up
// against the exact max-improvement loop on the paper's topology: over
// 20 slot games per size, the summed P2-A objective of the default
// solve stays within 0.1% of the exact loop's.
//
// raceEnabled (race_test.go) and -short drop the 1000-device games.
func TestCGBASweepQualityGuard(t *testing.T) {
	for _, devices := range []int{300, 1000} {
		if devices > 300 && (testing.Short() || raceEnabled) {
			// The exact loop's 1000-device solves take seconds here and
			// minutes under the race detector.
			continue
		}
		sys, gen := buildSpecSystem(t, topology.DefaultSpec(devices), int64(devices))
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
				ref, err := CGBASolver{Lambda: lambda, Exact: true}.Solve(p, src)
				if err != nil {
					t.Fatal(err)
				}
				sweep[li] += def.Objective
				exact[li] += ref.Objective
			}
		}
		for li, lambda := range lambdas {
			ratio := sweep[li] / exact[li]
			t.Logf("devices=%d λ=%v: sweep/exact objective %.6f", devices, lambda, ratio)
			if ratio > 1.001 {
				t.Errorf("devices=%d λ=%v: default objective %.6g is %.4f× the exact loop's %.6g",
					devices, lambda, sweep[li], ratio, exact[li])
			}
		}
	}
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool
