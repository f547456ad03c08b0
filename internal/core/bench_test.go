package core

import (
	"fmt"
	"testing"

	"eotora/internal/obs"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

func benchSystem(b *testing.B, devices int) (*System, *trace.Generator) {
	b.Helper()
	src := rng.New(1)
	net, err := topology.Generate(topology.DefaultSpec(devices), src.Derive("net"))
	if err != nil {
		b.Fatal(err)
	}
	models := DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := NewSystem(net, models, 3600, 1)
	if err != nil {
		b.Fatal(err)
	}
	low := sys.EnergyCost(sys.LowestFrequencies(), 50)
	high := sys.EnergyCost(sys.HighestFrequencies(), 50)
	sys.Budget = (low + high) / 2
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return sys, gen
}

// benchMetroSystem is benchSystem on the metro preset — the wide gridded
// topology whose station–room graph decomposes into ~25 resource-disjoint
// clusters (topology.MetroSpec), the setting the sharded solve targets.
func benchMetroSystem(b *testing.B, devices int) (*System, *trace.Generator) {
	b.Helper()
	src := rng.New(1)
	net, err := topology.Generate(topology.MetroSpec(devices), src.Derive("net"))
	if err != nil {
		b.Fatal(err)
	}
	models := DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := NewSystem(net, models, 3600, 1)
	if err != nil {
		b.Fatal(err)
	}
	low := sys.EnergyCost(sys.LowestFrequencies(), 50)
	high := sys.EnergyCost(sys.HighestFrequencies(), 50)
	sys.Budget = (low + high) / 2
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return sys, gen
}

// BenchmarkControllerStepSharded is the metro-scale headline pair: full
// slots on the metro topology with the per-cluster sharded solve
// (shards=auto) against the unsharded path on the identical system and
// trace. z=2 and λ=0.05 are the metro operating point (OPERATIONS.md).
// The off mode stops at 10k only to keep the run short: an unsharded
// 100k slot measured 185–195 ms on a 2-vCPU host, faster than the
// sharded one there. The name matches the bench-gate regexp
// (ControllerStep).
func BenchmarkControllerStepSharded(b *testing.B) {
	for _, devices := range []int{1000, 10000, 100000} {
		for _, mode := range []struct {
			name   string
			shards int
		}{{"off", 0}, {"auto", ShardsAuto}} {
			if devices == 100000 && mode.shards == 0 {
				continue
			}
			b.Run(fmt.Sprintf("devices=%d/shards=%s", devices, mode.name), func(b *testing.B) {
				sys, gen := benchMetroSystem(b, devices)
				ctrl, err := NewBDMAController(sys, 100, 2, 0.05, 1)
				if err != nil {
					b.Fatal(err)
				}
				if mode.shards != 0 {
					if err := ctrl.SetShards(mode.shards); err != nil {
						b.Fatal(err)
					}
				}
				// Two recorded states (up to 100k devices' channel rows)
				// still alternate enough to defeat cross-slot caching
				// artifacts.
				states := trace.Record(gen, 2)
				warmStep(b, ctrl, states[1])
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ctrl.Step(states[i%len(states)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkControllerStep(b *testing.B) {
	for _, devices := range []int{25, 50, 100, 300, 1000, 10000} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			sys, gen := benchSystem(b, devices)
			ctrl, err := NewBDMAController(sys, 100, 5, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			// Metro-scale states are expensive to record; 8 still cycles
			// the trace enough to defeat cross-slot caching artifacts.
			recorded := 32
			if devices >= 1000 {
				recorded = 8
			}
			states := trace.Record(gen, recorded)
			warmStep(b, ctrl, states[len(states)-1])
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctrl.Step(states[i%len(states)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// warmStep runs one untimed slot before the timer starts, so the first
// slot's arena growth stays out of ns/op and allocs/op even for the
// sizes the bench gate runs at b.N = 2–5.
func warmStep(b *testing.B, ctrl *Controller, st *trace.State) {
	b.Helper()
	if _, err := ctrl.Step(st); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkControllerStepObs is BenchmarkControllerStep with a live obs
// registry attached — the -benchmem pair for the observability overhead
// budget: within ~5% of the uninstrumented run and zero additional
// allocations per slot from obs itself.
func BenchmarkControllerStepObs(b *testing.B) {
	for _, devices := range []int{25, 50, 100} {
		b.Run(fmt.Sprintf("devices=%d", devices), func(b *testing.B) {
			sys, gen := benchSystem(b, devices)
			ctrl, err := NewBDMAController(sys, 100, 5, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			ctrl.SetObs(obs.New())
			states := trace.Record(gen, 32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ctrl.Step(states[i%len(states)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkBDMA(b *testing.B) {
	sys, gen := benchSystem(b, 100)
	st := gen.Next()
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.BDMA(st, 100, 10, BDMAConfig{Iterations: 5}, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNewP2A(b *testing.B) {
	sys, gen := benchSystem(b, 100)
	st := gen.Next()
	freq := sys.LowestFrequencies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.NewP2A(st, freq); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildP2A times the per-slot P2-A rebuild: one reused P2A
// rebuilt over 8 recorded states at Ω^L, as every BDMA round 0 and every
// greedy rule does. DefaultSpec(1000) is the roster and paper size,
// MetroSpec(10000) the metro one. BenchmarkNewP2A times a fresh build of
// one small state instead.
func BenchmarkBuildP2A(b *testing.B) {
	for _, tc := range []struct {
		name  string
		setup func(*testing.B, int) (*System, *trace.Generator)
		size  int
	}{
		{"default/devices=1000", benchSystem, 1000},
		{"metro/devices=10000", benchMetroSystem, 10000},
	} {
		b.Run(tc.name, func(b *testing.B) {
			sys, gen := tc.setup(b, tc.size)
			states := trace.Record(gen, 8)
			freq := sys.LowestFrequencies()
			var p P2A
			if err := sys.BuildP2A(&p, states[len(states)-1], freq); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.BuildP2A(&p, states[i%len(states)], freq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolveP2B(b *testing.B) {
	sys, gen := benchSystem(b, 100)
	st := gen.Next()
	sel := feasibleSelection(b, sys, st, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.SolveP2B(sel, st, 100, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReducedLatency(b *testing.B) {
	sys, gen := benchSystem(b, 100)
	st := gen.Next()
	sel := feasibleSelection(b, sys, st, 2)
	freq := sys.LowestFrequencies()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.ReducedLatency(sel, freq, st)
	}
}

func BenchmarkOptimalAllocation(b *testing.B) {
	sys, gen := benchSystem(b, 100)
	st := gen.Next()
	sel := feasibleSelection(b, sys, st, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.OptimalAllocation(sel, st)
	}
}
