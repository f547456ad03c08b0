package core

import (
	"math"
	"testing"

	"eotora/internal/energy"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// minimalSystem is the smallest legal system: one station, one room, one
// server, one device.
func minimalSystem(t *testing.T) (*System, *trace.Generator) {
	t.Helper()
	net := &topology.Network{
		BaseStations: []topology.BaseStation{{
			ID: 0, Band: topology.LowBand, Pos: topology.Point{X: 500, Y: 500},
			CoverageRadius: 5000, AccessBandwidth: 50 * units.MHz,
			FronthaulBandwidth: 500 * units.MHz, FronthaulSE: 10,
			Fronthaul: topology.WiredFiber, Rooms: []int{0},
		}},
		Rooms: []topology.Room{{ID: 0}},
		Servers: []topology.Server{{
			ID: 0, Room: 0, Cores: 64, MinFreq: 1.8 * units.GHz, MaxFreq: 3.6 * units.GHz,
		}},
		Devices:     []topology.Device{{ID: 0, Pos: topology.Point{X: 500, Y: 500}, Speed: 1}},
		Suitability: [][]float64{{0.8}},
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	base, _ := energy.FitI7Quadratic()
	sys, err := NewSystem(net, []energy.Model{base}, 3600, 1)
	if err != nil {
		t.Fatal(err)
	}
	low := sys.EnergyCost(sys.LowestFrequencies(), 50)
	high := sys.EnergyCost(sys.HighestFrequencies(), 50)
	sys.Budget = (low + high) / 2
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

func TestMinimalSystemRuns(t *testing.T) {
	sys, gen := minimalSystem(t)
	ctrl, err := NewBDMAController(sys, 100, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 20; s++ {
		res, err := ctrl.Step(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		// The single device always selects the only pair.
		if res.Decision.Station[0] != 0 || res.Decision.Server[0] != 0 {
			t.Fatal("wrong selection in one-option system")
		}
		if res.Latency <= 0 || math.IsInf(res.Latency.Value(), 0) {
			t.Fatalf("latency = %v", res.Latency)
		}
	}
}

func TestHotspotAllDevicesSamePoint(t *testing.T) {
	// Every device on top of the same station: the congestion game must
	// still spread load across servers, and the shares must stay valid.
	spec := smallSpec(16)
	src := rng.New(70)
	net, err := topology.Generate(spec, src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Devices {
		net.Devices[i].Pos = topology.Point{X: 1000, Y: 1000}
		net.Devices[i].Speed = 0
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	models := DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := NewSystem(net, models, 3600, 5)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 70)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewBDMAController(sys, 100, 2, 0, 70)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Step(gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	servers := make(map[int]bool)
	for _, n := range res.Decision.Server {
		servers[n] = true
	}
	if len(servers) < 2 {
		t.Errorf("hotspot packed all %d devices on %d server(s)", 16, len(servers))
	}
	if err := sys.ValidateAllocation(res.Decision.Selection, res.Decision.Allocation); err != nil {
		t.Error(err)
	}
}

func TestInfeasibleBudgetQueueGrowsLinearly(t *testing.T) {
	// A budget below the minimum achievable cost violates Assumption 1:
	// the queue must grow roughly linearly (the controller still runs and
	// pins F^L).
	sys, gen := buildSystem(t, 8, 71)
	sys.Budget = sys.EnergyCost(sys.LowestFrequencies(), 10) / 10 // hopeless
	ctrl, err := NewBDMAController(sys, 50, 1, 0, 71)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	grows := 0
	var earlyFreq, lateFreq float64
	const slots = 60
	for s := 0; s < slots; s++ {
		res, err := ctrl.Step(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if res.Backlog > prev {
			grows++
		}
		prev = res.Backlog
		mean := 0.0
		for _, f := range res.Decision.Freq {
			mean += f.GigaHertz()
		}
		mean /= float64(len(res.Decision.Freq))
		switch s {
		case 2:
			earlyFreq = mean
		case slots - 1:
			lateFreq = mean
		}
	}
	if grows < slots*8/10 {
		t.Errorf("queue grew in only %d/%d slots under infeasible budget", grows, slots)
	}
	// The queue pressure must be driving frequencies down toward F^L
	// (full convergence takes longer than this horizon).
	if lateFreq >= earlyFreq {
		t.Errorf("mean frequency did not fall under infeasible budget: %.3f → %.3f GHz", earlyFreq, lateFreq)
	}
}

func TestUncoveredDeviceStateFailsCleanly(t *testing.T) {
	// A state whose channel row is empty (device out of every cell)
	// must produce an error, not a panic.
	sys, gen := buildSystem(t, 6, 72)
	st := gen.Next()
	st.Channels[2] = nil
	if _, err := sys.NewP2A(st, sys.LowestFrequencies()); err == nil {
		t.Error("uncovered device accepted")
	}
	ctrl, err := NewBDMAController(sys, 50, 1, 0, 72)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(st); err == nil {
		t.Error("controller stepped through uncovered device")
	}
}

func TestZeroTaskSizes(t *testing.T) {
	// f = 0 reduces EOTO to pure communication (the P1 problem of the
	// NP-hardness proof); the pipeline must handle it.
	sys, gen := buildSystem(t, 6, 73)
	st := gen.Next()
	for i := range st.TaskSizes {
		st.TaskSizes[i] = 0
	}
	res, err := sys.BDMA(st, 50, 5, BDMAConfig{}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	alloc := sys.OptimalAllocation(res.Selection, st)
	total, perDevice := sys.LatencyOf(Decision{Selection: res.Selection, Allocation: alloc, Freq: res.Freq}, st)
	for i, lb := range perDevice {
		if lb.Processing != 0 {
			t.Errorf("device %d has processing latency %v with zero tasks", i, lb.Processing)
		}
	}
	if math.IsInf(total.Value(), 0) || total <= 0 {
		t.Errorf("total latency = %v", total)
	}
}

func TestDegenerateFrequencyRange(t *testing.T) {
	// F^L == F^U: frequency scaling is a no-op; everything still works.
	sys, gen := buildSystem(t, 5, 74)
	for n := range sys.Net.Servers {
		sys.Net.Servers[n].MaxFreq = sys.Net.Servers[n].MinFreq
	}
	ctrl, err := NewBDMAController(sys, 50, 2, 0, 74)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Step(gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	for n, f := range res.Decision.Freq {
		if f != sys.Net.Servers[n].MinFreq {
			t.Errorf("server %d frequency %v moved in degenerate range", n, f)
		}
	}
	r, err := sys.ApproxRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2.62) > 1e-9 {
		t.Errorf("R_F should be 1 in degenerate range: R = %v", r)
	}
}

func TestExtremePricesDoNotBreakDPP(t *testing.T) {
	// Price spikes of 100× must not destabilize the controller within the
	// run (the queue absorbs them).
	sys, gen := buildSystem(t, 6, 75)
	ctrl, err := NewBDMAController(sys, 50, 1, 0, 75)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 30; s++ {
		st := gen.Next()
		if s%7 == 3 {
			st.Price *= 100
		}
		res, err := ctrl.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(res.Backlog) || math.IsInf(res.Backlog, 0) {
			t.Fatalf("backlog = %v at slot %d", res.Backlog, s)
		}
	}
}
