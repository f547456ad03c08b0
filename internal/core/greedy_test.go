package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"eotora/internal/game"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// Shape bits of FuzzGreedyStreamEquivalence's slot state.
const (
	greedyDown     = 1 << iota // Down advisories on a third of the servers
	greedyAllDown              // every server down: the re-admit pass
	greedyCapScale             // degraded capacity on a third of the servers
	greedyNoOp                 // devices cycling through f = 0 and d = 0
	greedyAllNoOp              // every device f = d = 0: pin-only loads
)

// Invalid-state faults of FuzzGreedyStreamEquivalence: each must give
// BuildP2A's error text.
const (
	faultNone      = iota
	faultNoPair    // an active device loses every link
	faultFreq      // a frequency outside its server's range
	faultCapScale  // a non-positive or NaN capacity scale
	faultInfWeight // an active device's access weight overflows
	faultNoPlayers // every device inactive
	faultNoServers // every server structurally removed
	faultCount
)

// greedySystems returns the fuzz target's systems, each with churned
// states: DefaultSpec (factored players), MetroSpec (short pair lists,
// the arena scan), and a DefaultSpec system full of near-tied pair costs
// (the first-minimum rule).
func greedySystems(tb testing.TB) (systems []*System, states [][]*trace.State) {
	tb.Helper()
	def, defGen := buildSpecSystem(tb, topology.DefaultSpec(80), 81)
	metro, metroGen := buildSpecSystem(tb, topology.MetroSpec(400), 82)
	ties, tieGen := nearTieSystem(tb, 60, 83)
	for k, sg := range []struct {
		sys *System
		gen *trace.Generator
	}{{def, defGen}, {metro, metroGen}, {ties, tieGen}} {
		sched, err := trace.NewChurnSchedule(aggressiveChurn(int64(90+k)), sg.sys.Net, sg.gen)
		if err != nil {
			tb.Fatal(err)
		}
		systems = append(systems, sg.sys)
		states = append(states, trace.Record(sched, 4))
	}
	return systems, states
}

// greedyState returns a copy of base shaped by the shape bits and broken
// by the fault, and the frequency points to pick at: Ω^L and Ω^U, one
// entry out of range under faultFreq.
func greedyState(sys *System, base *trace.State, shape, fault uint8, salt int) (*trace.State, []Frequencies) {
	st := *base
	servers, devices := len(sys.Net.Servers), len(st.Channels)
	if shape&(greedyDown|greedyAllDown) != 0 {
		st.ServerDown = make([]bool, servers)
		for n := range st.ServerDown {
			st.ServerDown[n] = shape&greedyAllDown != 0 || (n+salt)%3 == 0
		}
	}
	if shape&greedyCapScale != 0 {
		st.CapScale = make([]float64, servers)
		for n := range st.CapScale {
			st.CapScale[n] = 1
			if (n+salt)%3 == 1 {
				st.CapScale[n] = 0.25 + float64(salt%4)/8
			}
		}
	}
	if shape&greedyNoOp != 0 {
		noOpDevices([]*trace.State{&st}, salt%2 == 1)
	}
	if shape&greedyAllNoOp != 0 {
		st.TaskSizes = make([]units.Cycles, devices)
		st.DataLengths = make([]units.DataSize, devices)
	}
	active := -1
	for i := 0; i < devices; i++ {
		if d := (i + salt) % devices; st.ActiveDevice(d) {
			active = d
			break
		}
	}
	freqs := []Frequencies{sys.LowestFrequencies(), sys.HighestFrequencies()}
	switch fault % faultCount {
	case faultNoPair:
		st.Channels = slices.Clone(st.Channels)
		st.Channels[active] = nil
	case faultFreq:
		for _, f := range freqs {
			n := salt % servers
			f[n] = []units.Frequency{2 * sys.Net.Servers[n].MaxFreq, units.Frequency(math.NaN()), 0}[salt%3]
		}
	case faultCapScale:
		st.CapScale = slices.Clone(st.CapScale)
		if st.CapScale == nil {
			st.CapScale = make([]float64, servers)
			for n := range st.CapScale {
				st.CapScale[n] = 1
			}
		}
		st.CapScale[salt%servers] = []float64{0, -0.5, math.NaN()}[salt%3]
	case faultInfWeight:
		st.DataLengths = slices.Clone(st.DataLengths)
		st.DataLengths[active] = math.MaxFloat64
		st.Channels = slices.Clone(st.Channels)
		st.Channels[active] = slices.Clone(st.Channels[active])
		for j := range st.Channels[active] {
			st.Channels[active][j].SE = 1e-3
		}
	case faultNoPlayers:
		st.DeviceActive = make([]bool, devices)
	case faultNoServers:
		st.ServerActive = make([]bool, servers)
	}
	return &st, freqs
}

// requireGreedyMatchesArena checks the streamed greedy pick at freq
// against the arena oracle: BuildP2A, game.GreedyProfile and
// P2A.Selection. Both fail with the same error text, or the selections
// and the loads of the picked profile are equal bit for bit. An invalid
// state must fail.
func requireGreedyMatchesArena(t *testing.T, label string, c *Controller, st *trace.State, freq Frequencies, invalid bool) {
	t.Helper()
	got, gotErr := c.greedy(st, freq)
	p := new(P2A)
	if err := c.sys.BuildP2A(p, st, freq); err != nil {
		if gotErr == nil || gotErr.Error() != err.Error() {
			t.Fatalf("%s: streamed pick error %v, BuildP2A's %q", label, gotErr, err)
		}
		return
	}
	if invalid {
		t.Fatalf("%s: BuildP2A accepted the broken state", label)
	}
	if gotErr != nil {
		t.Fatalf("%s: streamed pick: %v", label, gotErr)
	}
	g := p.Game()
	profile := game.GreedyProfile(g).Profile
	want := p.Selection(profile)
	if !slices.Equal(got.Station, want.Station) || !slices.Equal(got.Server, want.Server) {
		for i := range want.Station {
			if got.Station[i] != want.Station[i] || got.Server[i] != want.Server[i] {
				t.Fatalf("%s: device %d picks (%d, %d), arena (%d, %d)", label, i,
					got.Station[i], got.Server[i], want.Station[i], want.Server[i])
			}
		}
		t.Fatalf("%s: selections differ in length", label)
	}
	loads := make([]float64, g.Resources())
	g.LoadsInto(loads, profile)
	requireSameBits(t, label+" streamed loads vs the arena's", c.greedyLoads, loads)
}

// FuzzGreedyStreamEquivalence is the contract of the streamed greedy
// pick (Controller.greedy) behind greedy-energy, greedy-deadline and
// RungGreedy: on churned DefaultSpec, MetroSpec and near-tie states, with
// Down drains, every server down, CapScale faults and f = 0 / d = 0
// devices, at Ω^L and Ω^U, its selection and loads equal those of
// game.GreedyProfile on the game BuildP2A builds, bit for bit; on an
// invalid state it fails with BuildP2A's error text.
func FuzzGreedyStreamEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(faultNone))
	f.Add(uint8(1), uint8(0), uint8(faultNone))
	f.Add(uint8(2), uint8(0), uint8(faultNone))
	f.Add(uint8(3), uint8(greedyDown|greedyCapScale), uint8(faultNone))
	f.Add(uint8(4), uint8(greedyAllDown), uint8(faultNone))
	f.Add(uint8(5), uint8(greedyNoOp), uint8(faultNone))
	f.Add(uint8(6), uint8(greedyNoOp|greedyDown), uint8(faultNone))
	f.Add(uint8(7), uint8(greedyAllNoOp), uint8(faultNone))
	f.Add(uint8(8), uint8(greedyAllNoOp|greedyAllDown), uint8(faultNone))
	f.Add(uint8(9), uint8(greedyCapScale|greedyNoOp), uint8(faultNone))
	f.Add(uint8(10), uint8(0), uint8(faultNoPair))
	f.Add(uint8(11), uint8(greedyDown), uint8(faultFreq))
	f.Add(uint8(12), uint8(0), uint8(faultFreq))
	f.Add(uint8(13), uint8(0), uint8(faultCapScale))
	f.Add(uint8(14), uint8(greedyCapScale), uint8(faultCapScale))
	f.Add(uint8(15), uint8(0), uint8(faultCapScale))
	f.Add(uint8(16), uint8(0), uint8(faultInfWeight))
	f.Add(uint8(17), uint8(greedyNoOp), uint8(faultNoPlayers))
	f.Add(uint8(18), uint8(0), uint8(faultNoServers))
	systems, states := greedySystems(f)
	ctrls := make([]*Controller, len(systems))
	for k, sys := range systems {
		c, err := NewRuleController(sys, "greedy-energy", 100, 0, 1)
		if err != nil {
			f.Fatal(err)
		}
		ctrls[k] = c
	}
	f.Fuzz(func(t *testing.T, pick, shape, fault uint8) {
		k := int(pick) % len(systems)
		salt := int(pick) / len(systems)
		base := states[k][salt%len(states[k])]
		st, freqs := greedyState(systems[k], base, shape, fault, salt)
		for j, freq := range freqs {
			label := fmt.Sprintf("system %d state %d shape %#x fault %d Ω%d", k, salt%len(states[k]), shape, fault%faultCount, j)
			requireGreedyMatchesArena(t, label, ctrls[k], st, freq, fault%faultCount != faultNone)
		}
	})
}

// TestGreedyRulesBuildNoGame pins the greedy rules' footprint: a rule
// controller never builds a P2-A game, and a steady-state greedy-energy
// step makes a fixed number of allocations.
func TestGreedyRulesBuildNoGame(t *testing.T) {
	sys, gen := buildSpecSystem(t, topology.DefaultSpec(200), 84)
	states := trace.Record(gen, 4)
	for _, name := range []string{"greedy-energy", "greedy-deadline"} {
		c, err := NewRuleController(sys, name, 100, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range states {
			if _, err := c.Step(st); err != nil {
				t.Fatal(err)
			}
		}
		if c.p2a.Game() != nil {
			t.Errorf("%s: rule controller built a P2-A game", name)
		}
	}
	c, err := NewRuleController(sys, "greedy-energy", 100, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(states[0]); err != nil {
		t.Fatal(err)
	}
	// The selection's two rows, the allocation's three, the per-device
	// latencies and the slot result.
	const wantAllocs = 7
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Step(states[1]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != wantAllocs {
		t.Errorf("steady-state greedy-energy step: %v allocations, want %d", allocs, wantAllocs)
	}
}
