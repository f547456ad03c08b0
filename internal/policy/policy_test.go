package policy

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"eotora/internal/core"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// testSpec returns a reduced topology for fast tests.
func testSpec(devices int) topology.Spec {
	spec := topology.DefaultSpec(devices)
	spec.Stations = 3
	spec.UmbrellaStations = 1
	spec.ServersPerRoom = 2
	return spec
}

// buildSystem constructs a small test system plus a matching state
// generator, with the budget midway between the all-min and all-max
// frequency cost — feasible but binding, like internal/core's helper.
func buildSystem(t testing.TB, spec topology.Spec, seed int64) (*core.System, *trace.Generator) {
	t.Helper()
	src := rng.New(seed)
	net, err := topology.Generate(spec, src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	models := core.DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := core.NewSystem(net, models, 3600, 1)
	if err != nil {
		t.Fatal(err)
	}
	meanPrice := units.Price(50)
	low := sys.EnergyCost(sys.LowestFrequencies(), meanPrice)
	high := sys.EnergyCost(sys.HighestFrequencies(), meanPrice)
	sys.Budget = (low + high) / 2
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

// decisionKey flattens every decision-relevant quantity of a slot result
// into comparable values (float bits, ints) — the same flattening the
// core pool/shard equivalence tests use.
type decisionKey struct {
	Stations, Servers []int
	FreqBits          []uint64
	LatencyBits       uint64
	CostBits          uint64
	ThetaBits         uint64
	BacklogBits       uint64
	ObjectiveBits     uint64
	SolverIterations  int
	Rung              int
}

func keyOf(r *core.SlotResult) decisionKey {
	freqBits := make([]uint64, len(r.Decision.Freq))
	for n, f := range r.Decision.Freq {
		freqBits[n] = math.Float64bits(float64(f))
	}
	return decisionKey{
		Stations:         append([]int(nil), r.Decision.Station...),
		Servers:          append([]int(nil), r.Decision.Server...),
		FreqBits:         freqBits,
		LatencyBits:      math.Float64bits(r.Latency.Value()),
		CostBits:         math.Float64bits(float64(r.EnergyCost)),
		ThetaBits:        math.Float64bits(r.Theta),
		BacklogBits:      math.Float64bits(r.Backlog),
		ObjectiveBits:    math.Float64bits(r.Objective),
		SolverIterations: r.SolverIterations,
		Rung:             r.Rung,
	}
}

// decide runs a policy over states from its current slot, failing the
// test on any error.
func decide(t *testing.T, p Policy, states []*trace.State) []decisionKey {
	t.Helper()
	out := make([]decisionKey, 0, len(states))
	for _, st := range states {
		r, err := p.Decide(p.Slot()+1, st)
		if err != nil {
			t.Fatalf("%s slot %d: %v", p.Name(), p.Slot()+1, err)
		}
		out = append(out, keyOf(r))
	}
	return out
}

func TestNewRegistry(t *testing.T) {
	sys, _ := buildSystem(t, testSpec(8), 1)
	for _, name := range Names() {
		p, err := New(name, sys, Config{V: 100, Rounds: 2, Lambda: 0.05, Seed: 3})
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%s).Name() = %s", name, p.Name())
		}
		if p.System() != sys {
			t.Errorf("New(%s).System() is not the given system", name)
		}
		if p.V() != 100 {
			t.Errorf("New(%s).V() = %v", name, p.V())
		}
		if p.Slot() != 0 {
			t.Errorf("New(%s).Slot() = %d before any decision", name, p.Slot())
		}
	}
	if _, err := New("no-such-policy", sys, Config{V: 100, Seed: 3}); err == nil {
		t.Error("unknown policy name accepted")
	} else if !strings.Contains(err.Error(), BDMA) {
		t.Errorf("unknown-policy error %q does not list the valid names", err)
	}
}

// TestBaselineDeterminism: two identically configured instances of every
// policy produce bit-identical decision sequences over the same trace —
// the (seed, slot) determinism contract of the package doc.
func TestBaselineDeterminism(t *testing.T) {
	const slots = 12
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			run := func() []decisionKey {
				sys, gen := buildSystem(t, testSpec(10), 2)
				p, err := New(name, sys, Config{V: 80, Rounds: 2, Lambda: 0.05, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				return decide(t, p, trace.Record(gen, slots))
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Error("two identical runs diverged")
			}
		})
	}
}

// TestDecideSlotContract: Decide must reject out-of-order slot numbers.
func TestDecideSlotContract(t *testing.T) {
	for _, name := range []string{BDMA, GreedyEnergy} {
		sys, gen := buildSystem(t, testSpec(6), 3)
		p, err := New(name, sys, Config{V: 100, Rounds: 1, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		st := gen.Next()
		if _, err := p.Decide(2, st); err == nil {
			t.Errorf("%s: Decide(2) accepted before slot 1", name)
		}
		if _, err := p.Decide(1, st); err != nil {
			t.Fatalf("%s: Decide(1): %v", name, err)
		}
		if _, err := p.Decide(1, gen.Next()); err == nil {
			t.Errorf("%s: Decide(1) accepted twice", name)
		}
	}
}

// TestBaselineSelectionsValid: every baseline's selection passes the
// system validator on every slot, including slots with churn masks.
func TestBaselineSelectionsValid(t *testing.T) {
	const slots = 16
	sys, gen := buildSystem(t, testSpec(12), 4)
	sched, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(4), sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	states := trace.Record(sched, slots)
	for _, name := range []string{GreedyEnergy, GreedyDeadline, Random, LocalOnly, EdgeOnly} {
		t.Run(name, func(t *testing.T) {
			sysB, _ := buildSystem(t, testSpec(12), 4)
			p, err := New(name, sysB, Config{V: 100, Seed: 4})
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range states {
				r, err := p.Decide(i+1, st)
				if err != nil {
					t.Fatalf("slot %d: %v", i+1, err)
				}
				sel := core.Selection{Station: r.Decision.Station, Server: r.Decision.Server}
				if err := sysB.Validate(sel, st); err != nil {
					t.Fatalf("slot %d: invalid selection: %v", i+1, err)
				}
				if r.Rung != core.RungFull || r.Degraded {
					t.Fatalf("slot %d: baseline reported rung %d degraded=%v", i+1, r.Rung, r.Degraded)
				}
			}
		})
	}
}

// TestBaselineCheckpointRestore: a baseline restored mid-run resumes the
// exact decision sequence of an uninterrupted run.
func TestBaselineCheckpointRestore(t *testing.T) {
	const slots, cut = 14, 6
	for _, name := range []string{GreedyEnergy, GreedyDeadline, Random, LocalOnly, EdgeOnly} {
		t.Run(name, func(t *testing.T) {
			sysA, gen := buildSystem(t, testSpec(10), 5)
			states := trace.Record(gen, slots)
			pa, err := New(name, sysA, Config{V: 90, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			want := decide(t, pa, states)

			sysB, _ := buildSystem(t, testSpec(10), 5)
			pb, err := New(name, sysB, Config{V: 90, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			decide(t, pb, states[:cut])
			cp := pb.Checkpoint()
			if cp.Solver != name {
				t.Fatalf("checkpoint solver %q, want the policy name", cp.Solver)
			}

			sysC, _ := buildSystem(t, testSpec(10), 5)
			pc, err := New(name, sysC, Config{V: 90, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			if err := pc.Restore(cp); err != nil {
				t.Fatal(err)
			}
			got := decide(t, pc, states[cut:])
			if !reflect.DeepEqual(got, want[cut:]) {
				t.Error("restored run diverged from the uninterrupted one")
			}

			// Restore guards: wrong V, wrong policy, tuner state.
			if err := pc.Restore(core.Checkpoint{Slot: 1, V: 91, Solver: name, Seed: 5}); err == nil {
				t.Error("V mismatch accepted")
			}
			if err := pc.Restore(core.Checkpoint{Slot: 1, V: 90, Solver: "bdma", Seed: 5}); err == nil {
				t.Error("solver mismatch accepted")
			}
			withExtra := cp
			withExtra.Extra = map[string]float64{"tuner_lambda": 0.1}
			if err := pc.Restore(withExtra); err == nil {
				t.Error("tuner-state checkpoint accepted by a baseline")
			}
		})
	}
}

// TestControllerRejectsExtra: the flagship controller must refuse a
// checkpoint carrying policy-wrapper state rather than silently dropping
// the tuner's knobs.
func TestControllerRejectsExtra(t *testing.T) {
	sys, _ := buildSystem(t, testSpec(6), 6)
	ctrl, err := core.NewBDMAController(sys, 100, 2, 0.05, 6)
	if err != nil {
		t.Fatal(err)
	}
	cp := ctrl.Checkpoint()
	cp.Extra = map[string]float64{"tuner_lambda": 0.1}
	if err := ctrl.Restore(cp); err == nil {
		t.Error("controller accepted a checkpoint with policy-wrapper state")
	}
}

// TestEdgeOnlyCoverage: a device out of coverage fails edge-only with a
// clean error, never a panic or an invalid selection.
func TestEdgeOnlyCoverage(t *testing.T) {
	sys, gen := buildSystem(t, testSpec(6), 7)
	p, err := New(EdgeOnly, sys, Config{V: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	st := gen.Next()
	for k := range st.Channels[2] {
		st.Channels[2][k] = 0
	}
	if _, err := p.Decide(1, st); err == nil {
		t.Error("edge-only decided a device with no coverage")
	}
}

// TestDecideRejectsInvalidState: a state with a NaN channel fails Decide
// on every policy with the System.CheckState error — on a fresh policy
// (the P2-A build path) and after a valid slot (the churn refill path).
func TestDecideRejectsInvalidState(t *testing.T) {
	for _, name := range Names() {
		for _, warm := range []bool{false, true} {
			sys, gen := buildSystem(t, testSpec(8), 4)
			p, err := New(name, sys, Config{V: 100, Rounds: 2, Lambda: 0.05, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			slot := 1
			if warm {
				if _, err := p.Decide(slot, gen.Next()); err != nil {
					t.Fatal(err)
				}
				slot++
			}
			bad := gen.Next()
			bad.Channels[3][0] = units.SpectralEfficiency(math.NaN())
			want := sys.CheckState(bad)
			if want == nil {
				t.Fatal("CheckState accepted a NaN channel")
			}
			prefix := fmt.Sprintf("policy: %s slot %d: ", name, slot)
			if name == BDMA || name == BDMATuned {
				prefix = fmt.Sprintf("core: slot %d: ", slot)
			}
			if _, err = p.Decide(slot, bad); err == nil || err.Error() != prefix+want.Error() {
				t.Errorf("%s (warm=%v): Decide error %v, want %q", name, warm, err, prefix+want.Error())
			}
		}
	}
}
