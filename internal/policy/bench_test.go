package policy

import (
	"fmt"
	"testing"

	"eotora/internal/core"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// benchSystem mirrors internal/core's bench fixture: the default
// topology at the given population, budget midway between the all-min
// and all-max frequency cost.
func benchSystem(b *testing.B, devices int) (*core.System, *trace.Generator) {
	b.Helper()
	src := rng.New(1)
	net, err := topology.Generate(topology.DefaultSpec(devices), src.Derive("net"))
	if err != nil {
		b.Fatal(err)
	}
	models := core.DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := core.NewSystem(net, models, 3600, 1)
	if err != nil {
		b.Fatal(err)
	}
	low := sys.EnergyCost(sys.LowestFrequencies(), units.Price(50))
	high := sys.EnergyCost(sys.HighestFrequencies(), units.Price(50))
	sys.Budget = (low + high) / 2
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return sys, gen
}

// BenchmarkPolicyStep times one slot of every selectable policy at the
// 1000-device operating point — the policy-roster companion to core's
// BenchmarkControllerStep, through the same seam every driver uses. The
// bdma family carries the full BDMA/CGBA solve; the baselines bound the
// floor a selection rule alone costs (none builds the slot's game:
// greedy-* prices every feasible pair against running loads, random
// draws per device, local-only/edge-only are pure scans).
func BenchmarkPolicyStep(b *testing.B) {
	const devices = 1000
	for _, name := range Names() {
		b.Run(fmt.Sprintf("%s/devices=%d", name, devices), func(b *testing.B) {
			sys, gen := benchSystem(b, devices)
			pol, err := New(name, sys, Config{V: 100, Rounds: 5, Lambda: 0.05, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			states := trace.Record(gen, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pol.Decide(pol.Slot()+1, states[i%len(states)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
