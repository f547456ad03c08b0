package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"eotora/internal/energy"
	"eotora/internal/rng"
	"eotora/internal/solver"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// smallSpec returns a reduced topology for fast tests.
func smallSpec(devices int) topology.Spec {
	spec := topology.DefaultSpec(devices)
	spec.Stations = 3
	spec.UmbrellaStations = 1
	spec.ServersPerRoom = 2
	return spec
}

// buildSystem constructs a small test system plus a matching state
// generator. The budget sits midway between the all-min and all-max
// frequency cost at the trend-average price, so it is feasible but binding.
func buildSystem(t testing.TB, devices int, seed int64) (*System, *trace.Generator) {
	t.Helper()
	return buildSpecSystem(t, smallSpec(devices), seed)
}

// buildSpecSystem is buildSystem over an arbitrary topology spec.
func buildSpecSystem(t testing.TB, spec topology.Spec, seed int64) (*System, *trace.Generator) {
	t.Helper()
	src := rng.New(seed)
	net, err := topology.Generate(spec, src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	models := DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := NewSystem(net, models, 3600, 1) // placeholder budget
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

func TestNewSystemValidation(t *testing.T) {
	sys, _ := buildSystem(t, 5, 1)
	if _, err := NewSystem(nil, nil, 3600, 1); err == nil {
		t.Error("nil network accepted")
	}
	if _, err := NewSystem(sys.Net, sys.Energy[:1], 3600, 1); err == nil {
		t.Error("model count mismatch accepted")
	}
	bad := append([]energy.Model(nil), sys.Energy...)
	bad[0] = nil
	if _, err := NewSystem(sys.Net, bad, 3600, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewSystem(sys.Net, sys.Energy, 0, 1); err == nil {
		t.Error("zero slot length accepted")
	}
	if _, err := NewSystem(sys.Net, sys.Energy, 3600, -1); err == nil {
		t.Error("negative budget accepted")
	}
}

func TestDefaultEnergyModels(t *testing.T) {
	src := rng.New(2)
	models := DefaultEnergyModels(16, src)
	if len(models) != 16 {
		t.Fatalf("got %d models", len(models))
	}
	distinct := make(map[string]bool)
	for _, m := range models {
		if !energy.IsConvexOn(m, 1.8*units.GHz, 3.6*units.GHz, 16) {
			t.Errorf("model %v not convex", m)
		}
		distinct[fmt.Sprint(m)] = true
	}
	if len(distinct) < 8 {
		t.Errorf("only %d distinct models among 16 — perturbation broken?", len(distinct))
	}
}

func TestCheckState(t *testing.T) {
	sys, gen := buildSystem(t, 8, 3)
	st := gen.Next()
	if err := sys.CheckState(st); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	stations := len(sys.Net.BaseStations)
	// Row mutations act on device d.
	setSE := func(se float64) func(*trace.State, int) {
		return func(s *trace.State, d int) { s.Channels[d][0].SE = units.SpectralEfficiency(se) }
	}
	tests := []struct {
		name   string
		mutate func(s *trace.State, d int)
	}{
		{"short task sizes", func(s *trace.State, _ int) { s.TaskSizes = s.TaskSizes[:3] }},
		{"short channel row", func(s *trace.State, _ int) { s.Channels = s.Channels[:1] }},
		{"short fronthaul", func(s *trace.State, _ int) { s.FronthaulSE = s.FronthaulSE[:1] }},
		{"zero price", func(s *trace.State, _ int) { s.Price = 0 }},
		{"NaN channel", setSE(math.NaN())},
		{"+Inf channel", setSE(math.Inf(1))},
		{"-Inf channel", setSE(math.Inf(-1))},
		{"negative channel", setSE(-1)},
		{"stored zero channel", setSE(0)},
		{"station out of range", func(s *trace.State, d int) {
			s.Channels[d] = append(s.Channels[d], trace.Link{Station: stations, SE: 20})
		}},
		{"negative station", func(s *trace.State, d int) {
			s.Channels[d] = append([]trace.Link{{Station: -1, SE: 20}}, s.Channels[d]...)
		}},
		{"repeated station", func(s *trace.State, d int) {
			s.Channels[d] = append(s.Channels[d], s.Channels[d][len(s.Channels[d])-1])
		}},
		{"descending stations", func(s *trace.State, d int) {
			s.Channels[d] = []trace.Link{{Station: 1, SE: 20}, {Station: 0, SE: 20}}
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			bad := *gen.Next()
			const d = 0 // covered, like every device
			// Deep-copy the mutable slices we mutate.
			bad.TaskSizes = append([]units.Cycles(nil), bad.TaskSizes...)
			bad.FronthaulSE = append([]units.SpectralEfficiency(nil), bad.FronthaulSE...)
			bad.Channels = slices.Clone(bad.Channels)
			bad.Channels[d] = slices.Clone(bad.Channels[d])
			tt.mutate(&bad, d)
			if err := sys.CheckState(&bad); err == nil {
				t.Error("invalid state accepted")
			}
		})
	}
}

// feasibleSelection builds a selection via the P2-A adapter's random play.
func feasibleSelection(t testing.TB, sys *System, st *trace.State, seed int64) Selection {
	t.Helper()
	p2a, err := sys.NewP2A(st, sys.LowestFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RandomSolver{}.Solve(p2a, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return p2a.Selection(res.Profile)
}

func TestValidateSelection(t *testing.T) {
	sys, gen := buildSystem(t, 10, 4)
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 1)
	if err := sys.Validate(sel, st); err != nil {
		t.Fatalf("feasible selection rejected: %v", err)
	}

	short := Selection{Station: sel.Station[:3], Server: sel.Server[:3]}
	if err := sys.Validate(short, st); err == nil {
		t.Error("short selection accepted")
	}
	badStation := sel.Clone()
	badStation.Station[0] = 99
	if err := sys.Validate(badStation, st); err == nil {
		t.Error("out-of-range station accepted")
	}
	badServer := sel.Clone()
	badServer.Server[0] = -1
	if err := sys.Validate(badServer, st); err == nil {
		t.Error("negative server accepted")
	}
	// Constraint (3): pick a server not reachable from the chosen station.
	violating := sel.Clone()
	found := false
	for i := range violating.Station {
		reach := sys.Net.ReachableServers(violating.Station[i])
		if len(reach) == len(sys.Net.Servers) {
			continue
		}
		inReach := make(map[int]bool, len(reach))
		for _, n := range reach {
			inReach[n] = true
		}
		for n := range sys.Net.Servers {
			if !inReach[n] {
				violating.Server[i] = n
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if found {
		err := sys.Validate(violating, st)
		if err == nil || !strings.Contains(err.Error(), "constraint 3") {
			t.Errorf("constraint-3 violation not detected: %v", err)
		}
	}
}

func TestValidateFrequencies(t *testing.T) {
	sys, _ := buildSystem(t, 5, 5)
	if err := sys.ValidateFrequencies(sys.LowestFrequencies()); err != nil {
		t.Errorf("Ω^L rejected: %v", err)
	}
	if err := sys.ValidateFrequencies(sys.HighestFrequencies()); err != nil {
		t.Errorf("Ω^U rejected: %v", err)
	}
	if err := sys.ValidateFrequencies(sys.LowestFrequencies()[:2]); err == nil {
		t.Error("short frequency vector accepted")
	}
	tooHigh := sys.HighestFrequencies()
	tooHigh[0] *= 2
	if err := sys.ValidateFrequencies(tooHigh); err == nil {
		t.Error("over-max frequency accepted")
	}
}

func TestOptimalAllocationSharesSumToOne(t *testing.T) {
	sys, gen := buildSystem(t, 20, 6)
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 2)
	alloc := sys.OptimalAllocation(sel, st)
	if err := sys.ValidateAllocation(sel, alloc); err != nil {
		t.Fatalf("Lemma-1 allocation invalid: %v", err)
	}
	// Shares on every used resource must sum to exactly 1 (KKT saturation).
	accessSum := make([]float64, len(sys.Net.BaseStations))
	computeSum := make([]float64, len(sys.Net.Servers))
	for i := range sel.Station {
		accessSum[sel.Station[i]] += alloc.AccessShare[i]
		computeSum[sel.Server[i]] += alloc.ComputeShare[i]
	}
	for k, sum := range accessSum {
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Errorf("station %d access shares sum to %v, want 1", k, sum)
		}
	}
	for n, sum := range computeSum {
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Errorf("server %d compute shares sum to %v, want 1", n, sum)
		}
	}
}

func TestReducedLatencyMatchesClosedFormAllocation(t *testing.T) {
	// T_t (equations 18–20) must equal L_t evaluated at the Lemma-1 shares.
	sys, gen := buildSystem(t, 15, 7)
	for trial := 0; trial < 5; trial++ {
		st := gen.Next()
		sel := feasibleSelection(t, sys, st, int64(trial))
		freq := sys.LowestFrequencies()
		alloc := sys.OptimalAllocation(sel, st)
		total, _ := sys.LatencyOf(Decision{Selection: sel, Allocation: alloc, Freq: freq}, st)
		reduced := sys.ReducedLatency(sel, freq, st)
		if math.Abs(total.Value()-reduced.Value()) > 1e-9*(reduced.Value()+1) {
			t.Fatalf("trial %d: L(α*) = %v ≠ T = %v", trial, total, reduced)
		}
	}
}

func TestLemma1DominatesRandomAllocations(t *testing.T) {
	// Property behind Lemma 1: no feasible allocation beats the closed form.
	sys, gen := buildSystem(t, 12, 8)
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 3)
	freq := sys.HighestFrequencies()
	optTotal, _ := sys.LatencyOf(Decision{Selection: sel, Allocation: sys.OptimalAllocation(sel, st), Freq: freq}, st)

	src := rng.New(999)
	for trial := 0; trial < 50; trial++ {
		alloc := randomFeasibleAllocation(sys, sel, src)
		total, _ := sys.LatencyOf(Decision{Selection: sel, Allocation: alloc, Freq: freq}, st)
		if total < optTotal-1e-9 {
			t.Fatalf("random allocation %v beat Lemma-1 optimum %v", total, optTotal)
		}
	}
}

// randomFeasibleAllocation draws random shares normalized per resource so
// constraints (4)–(6) hold with equality.
func randomFeasibleAllocation(sys *System, sel Selection, src *rng.Source) Allocation {
	devices := len(sel.Station)
	a := Allocation{
		AccessShare:    make([]float64, devices),
		FronthaulShare: make([]float64, devices),
		ComputeShare:   make([]float64, devices),
	}
	accessSum := make([]float64, len(sys.Net.BaseStations))
	fronthaulSum := make([]float64, len(sys.Net.BaseStations))
	computeSum := make([]float64, len(sys.Net.Servers))
	for i := 0; i < devices; i++ {
		a.AccessShare[i] = src.Uniform(0.05, 1)
		a.FronthaulShare[i] = src.Uniform(0.05, 1)
		a.ComputeShare[i] = src.Uniform(0.05, 1)
		accessSum[sel.Station[i]] += a.AccessShare[i]
		fronthaulSum[sel.Station[i]] += a.FronthaulShare[i]
		computeSum[sel.Server[i]] += a.ComputeShare[i]
	}
	for i := 0; i < devices; i++ {
		a.AccessShare[i] /= accessSum[sel.Station[i]]
		a.FronthaulShare[i] /= fronthaulSum[sel.Station[i]]
		a.ComputeShare[i] /= computeSum[sel.Server[i]]
	}
	return a
}

func TestReducedLatencyMatchesGameSocialCost(t *testing.T) {
	// The P2-A game's social cost must equal T_t for the same selection —
	// the identity that justifies the congestion-game interpretation.
	sys, gen := buildSystem(t, 18, 9)
	st := gen.Next()
	freq := sys.LowestFrequencies()
	p2a, err := sys.NewP2A(st, freq)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(4)
	for trial := 0; trial < 10; trial++ {
		res := RandomSolver{}
		r, err := res.Solve(p2a, src)
		if err != nil {
			t.Fatal(err)
		}
		sel := p2a.Selection(r.Profile)
		reduced := sys.ReducedLatency(sel, freq, st).Value()
		if math.Abs(r.Objective-reduced) > 1e-9*(reduced+1) {
			t.Fatalf("trial %d: game cost %v ≠ T_t %v", trial, r.Objective, reduced)
		}
	}
}

func TestP2AProfileRoundtrip(t *testing.T) {
	sys, gen := buildSystem(t, 10, 10)
	st := gen.Next()
	p2a, err := sys.NewP2A(st, sys.LowestFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	r, err := CGBASolver{}.Solve(p2a, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sel := p2a.Selection(r.Profile)
	if err := sys.Validate(sel, st); err != nil {
		t.Fatalf("CGBA selection invalid: %v", err)
	}
	back, err := p2a.Profile(sel)
	if err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if back[i] != r.Profile[i] {
			t.Fatalf("roundtrip mismatch at device %d", i)
		}
	}
	// Infeasible selection must be rejected.
	bad := sel.Clone()
	bad.Station[0] = (bad.Station[0] + 1) % len(sys.Net.BaseStations)
	bad.Server[0] = -1
	if _, err := p2a.Profile(bad); err == nil {
		t.Error("infeasible selection converted")
	}
}

func TestSolverNames(t *testing.T) {
	names := map[string]P2ASolver{
		"CGBA": CGBASolver{},
		"MCBA": MCBASolver{},
		"ROPT": RandomSolver{},
		"OPT":  OptimalSolver{},
	}
	for want, s := range names {
		if got := s.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestEnergyCostArithmetic(t *testing.T) {
	// Hand-built system: one server, flat 10 W/core model, 100 cores,
	// 1-hour slots → 1 kW × 1 h = 1 kWh = 1e-3 MWh. At $50/MWh: $0.05.
	net := &topology.Network{
		BaseStations: []topology.BaseStation{{
			ID: 0, Band: topology.LowBand, CoverageRadius: 1e4,
			AccessBandwidth: 50 * units.MHz, FronthaulBandwidth: 500 * units.MHz,
			FronthaulSE: 10, Fronthaul: topology.WiredFiber, Rooms: []int{0},
		}},
		Rooms:       []topology.Room{{ID: 0}},
		Servers:     []topology.Server{{ID: 0, Room: 0, Cores: 100, MinFreq: units.GHz, MaxFreq: 2 * units.GHz}},
		Devices:     []topology.Device{{ID: 0}},
		Suitability: [][]float64{{1}},
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(net, []energy.Model{energy.Linear{Slope: 0, Intercept: 10}}, 3600, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	cost := sys.EnergyCost(Frequencies{1.5 * units.GHz}, 50)
	if math.Abs(cost.Dollars()-0.05) > 1e-9 {
		t.Errorf("EnergyCost = %v, want $0.05", cost)
	}
	if got := sys.ThetaActive(Frequencies{1.5 * units.GHz}, 50, nil); math.Abs(got-0.02) > 1e-9 {
		t.Errorf("ThetaActive = %v, want 0.02", got)
	}
}

func TestSolveP2BBoundaries(t *testing.T) {
	sys, gen := buildSystem(t, 10, 11)
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 6)

	// Q = 0: energy is free → every loaded server runs flat out.
	freq, err := sys.SolveP2B(sel, st, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	loaded := make([]bool, len(sys.Net.Servers))
	for _, n := range sel.Server {
		loaded[n] = true
	}
	for n, w := range freq {
		if !loaded[n] {
			continue
		}
		if math.Abs(float64(w-sys.Net.Servers[n].MaxFreq)) > 1e6 {
			t.Errorf("server %d at %v under Q=0, want F^U %v", n, w, sys.Net.Servers[n].MaxFreq)
		}
	}

	// Enormous Q: cost dominates → every server near F^L.
	freq, err = sys.SolveP2B(sel, st, 1, 1e12)
	if err != nil {
		t.Fatal(err)
	}
	for n, w := range freq {
		if math.Abs(float64(w-sys.Net.Servers[n].MinFreq)) > 1e6 {
			t.Errorf("server %d at %v under huge Q, want F^L %v", n, w, sys.Net.Servers[n].MinFreq)
		}
	}
	if err := sys.ValidateFrequencies(freq); err != nil {
		t.Error(err)
	}
}

func TestSolveP2BMonotoneInQ(t *testing.T) {
	// Higher backlog pressure must never raise any server's frequency.
	sys, gen := buildSystem(t, 12, 12)
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 7)
	prev, err := sys.SolveP2B(sel, st, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []float64{1, 10, 100, 1000} {
		cur, err := sys.SolveP2B(sel, st, 50, q)
		if err != nil {
			t.Fatal(err)
		}
		for n := range cur {
			if float64(cur[n]) > float64(prev[n])+1e5 {
				t.Errorf("Q=%v raised server %d frequency %v → %v", q, n, prev[n], cur[n])
			}
		}
		prev = cur
	}
}

func TestSolveP2BMatchesGridSearch(t *testing.T) {
	// Golden-section per server must match a fine grid search on the
	// joint objective (separability check).
	sys, gen := buildSystem(t, 10, 13)
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 8)
	const v, q = 50.0, 20.0
	freq, err := sys.SolveP2B(sel, st, v, q)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.P2Objective(sel, freq, st, v, q)

	// Grid search per server.
	grid := sys.LowestFrequencies()
	for n := range grid {
		srv := &sys.Net.Servers[n]
		bestObj := math.Inf(1)
		bestW := srv.MinFreq
		for step := 0; step <= 400; step++ {
			w := srv.MinFreq + units.Frequency(float64(step)/400*float64(srv.MaxFreq-srv.MinFreq))
			grid[n] = w
			if obj := sys.P2Objective(sel, grid, st, v, q); obj < bestObj {
				bestObj, bestW = obj, w
			}
		}
		grid[n] = bestW
	}
	gridObj := sys.P2Objective(sel, grid, st, v, q)
	if got > gridObj+1e-6*(math.Abs(gridObj)+1) {
		t.Errorf("P2-B objective %v worse than grid search %v", got, gridObj)
	}
}

func TestSolveP2BValidation(t *testing.T) {
	sys, gen := buildSystem(t, 5, 14)
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 9)
	if _, err := sys.SolveP2B(sel, st, 0, 1); err == nil {
		t.Error("V = 0 accepted")
	}
	if _, err := sys.SolveP2B(sel, st, 1, -1); err == nil {
		t.Error("negative Q accepted")
	}
}

func TestApproxRatio(t *testing.T) {
	sys, _ := buildSystem(t, 5, 15)
	r, err := sys.ApproxRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	// R_F = 3.6/1.8 = 2 → R = 5.24.
	if math.Abs(r-5.24) > 1e-9 {
		t.Errorf("R = %v, want 5.24", r)
	}
	r2, err := sys.ApproxRatio(0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r2 <= r {
		t.Error("R not increasing in λ")
	}
	if _, err := sys.ApproxRatio(0.2); err == nil {
		t.Error("λ = 0.2 accepted")
	}
}

func TestBDMAProducesValidDecision(t *testing.T) {
	sys, gen := buildSystem(t, 15, 16)
	st := gen.Next()
	res, err := sys.BDMA(st, 50, 10, BDMAConfig{Iterations: 3}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Validate(res.Selection, st); err != nil {
		t.Errorf("BDMA selection invalid: %v", err)
	}
	if err := sys.ValidateFrequencies(res.Freq); err != nil {
		t.Errorf("BDMA frequencies invalid: %v", err)
	}
	if math.IsInf(res.Objective, 0) || math.IsNaN(res.Objective) {
		t.Errorf("objective = %v", res.Objective)
	}
	// Reported latency must match the decision.
	if got := sys.ReducedLatency(res.Selection, res.Freq, st).Value(); math.Abs(got-res.Latency) > 1e-9*(got+1) {
		t.Errorf("latency %v ≠ recomputed %v", res.Latency, got)
	}
	if res.SolverIterations <= 0 {
		t.Error("no solver iterations recorded")
	}
}

func TestBDMABeatsRandomOnP2(t *testing.T) {
	// With the same state, CGBA-driven BDMA should (on average) achieve a
	// lower P2 objective than random selection at Ω^L.
	sys, gen := buildSystem(t, 20, 17)
	st := gen.Next()
	const v, q = 50.0, 5.0
	bdma, err := sys.BDMA(st, v, q, BDMAConfig{Iterations: 3}, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	randomSum := 0.0
	const trials = 10
	for i := 0; i < trials; i++ {
		sel := feasibleSelection(t, sys, st, int64(100+i))
		randomSum += sys.P2Objective(sel, sys.LowestFrequencies(), st, v, q)
	}
	if bdma.Objective >= randomSum/trials {
		t.Errorf("BDMA %v not better than random average %v", bdma.Objective, randomSum/trials)
	}
}

func TestBDMAMoreIterationsNoWorse(t *testing.T) {
	// BDMA(z) keeps the best iterate, so on the same seed its objective is
	// non-increasing in z.
	sys, gen := buildSystem(t, 15, 18)
	st := gen.Next()
	prev := math.Inf(1)
	for _, z := range []int{1, 3, 6} {
		res, err := sys.BDMA(st, 50, 10, BDMAConfig{Iterations: z}, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		// Different z re-seeds identically, so iterate sequences match and
		// the best-so-far objective cannot increase.
		if res.Objective > prev+1e-9 {
			t.Errorf("BDMA(%d) objective %v worse than smaller z %v", z, res.Objective, prev)
		}
		prev = res.Objective
	}
}

func TestControllerStepAndBudget(t *testing.T) {
	sys, gen := buildSystem(t, 12, 19)
	ctrl, err := NewBDMAController(sys, 50, 2, 0, 42)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.SolverName() != "CGBA" {
		t.Errorf("SolverName = %q", ctrl.SolverName())
	}
	if ctrl.V() != 50 {
		t.Errorf("V = %v", ctrl.V())
	}
	var totalCost, totalLatency float64
	const slots = 100
	for s := 1; s <= slots; s++ {
		res, err := ctrl.Step(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if res.Slot != s {
			t.Fatalf("slot = %d, want %d", res.Slot, s)
		}
		if res.Backlog < 0 {
			t.Fatal("negative backlog")
		}
		if len(res.PerDevice) != 12 {
			t.Fatalf("per-device latencies = %d", len(res.PerDevice))
		}
		totalCost += res.EnergyCost.Dollars()
		totalLatency += res.Latency.Value()
		if res.Latency <= 0 {
			t.Fatal("non-positive latency")
		}
	}
	avgCost := totalCost / slots
	// The DPP guarantee is asymptotic; allow 25% slack at 100 slots.
	if avgCost > sys.Budget.Dollars()*1.25 {
		t.Errorf("average cost $%v far above budget $%v", avgCost, sys.Budget.Dollars())
	}
	if totalLatency <= 0 {
		t.Error("no latency accumulated")
	}
}

func TestControllerDeterminism(t *testing.T) {
	sysA, genA := buildSystem(t, 10, 20)
	sysB, genB := buildSystem(t, 10, 20)
	a, err := NewBDMAController(sysA, 100, 2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBDMAController(sysB, 100, 2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		ra, err := a.Step(genA.Next())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Step(genB.Next())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ra.Latency.Value()-rb.Latency.Value()) > 1e-12 {
			t.Fatalf("latencies diverged at slot %d", s)
		}
		if math.Abs(ra.Backlog-rb.Backlog) > 1e-12 {
			t.Fatalf("backlogs diverged at slot %d", s)
		}
	}
}

func TestControllerLargerVLowersLatency(t *testing.T) {
	// Theorem 4: average latency decreases (weakly) in V. Compare V=5 vs
	// V=500 over the same trace.
	run := func(v float64) float64 {
		sys, gen := buildSystem(t, 12, 21)
		ctrl, err := NewBDMAController(sys, v, 2, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		const slots = 60
		for s := 0; s < slots; s++ {
			res, err := ctrl.Step(gen.Next())
			if err != nil {
				t.Fatal(err)
			}
			total += res.Latency.Value()
		}
		return total / slots
	}
	low, high := run(5), run(500)
	if high > low*1.02 {
		t.Errorf("V=500 latency %v not below V=5 latency %v", high, low)
	}
}

func TestBaselineControllers(t *testing.T) {
	sys, gen := buildSystem(t, 10, 22)
	ropt, err := NewROPTController(sys, 50, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ropt.SolverName() != "ROPT" {
		t.Errorf("name = %q", ropt.SolverName())
	}
	mcba, err := NewMCBAController(sys, 50, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mcba.SolverName() != "MCBA" {
		t.Errorf("name = %q", mcba.SolverName())
	}
	st := gen.Next()
	for _, c := range []*Controller{ropt, mcba} {
		if _, err := c.Step(st); err != nil {
			t.Errorf("%s step failed: %v", c.SolverName(), err)
		}
	}
}

// TestNewControllerValidation: a nil system is rejected, and every way to
// set V — NewController, SetV and NewRuleController — rejects zero,
// negative and non-finite weights; a rejected SetV leaves V as it was.
func TestNewControllerValidation(t *testing.T) {
	sys, _ := buildSystem(t, 5, 23)
	if _, err := NewController(nil, ControllerConfig{V: 1}); err == nil {
		t.Error("nil system accepted")
	}
	ctrl, err := NewController(sys, ControllerConfig{V: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewController(sys, ControllerConfig{V: v}); err == nil {
			t.Errorf("NewController accepted V = %v", v)
		}
		if _, err := NewRuleController(sys, "local-only", v, 0, 1); err == nil {
			t.Errorf("NewRuleController accepted V = %v", v)
		}
		if err := ctrl.SetV(v); err == nil {
			t.Errorf("SetV accepted V = %v", v)
		}
		if ctrl.V() != 50 {
			t.Fatalf("rejected SetV(%v) changed V to %v", v, ctrl.V())
		}
	}
	if err := ctrl.SetV(1e-9); err != nil || ctrl.V() != 1e-9 {
		t.Errorf("SetV(1e-9): %v, V = %v", err, ctrl.V())
	}
}

// TestTheorem3Bound empirically verifies Theorem 3: the BDMA decision's
// P2 objective V·T(ᾱ) + Q·Θ(Ω̄) is at most R·V·T(α) + Q·Θ(Ω) for any
// feasible decision α, with R = 2.62·R_F/(1−8λ).
func TestTheorem3Bound(t *testing.T) {
	sys, gen := buildSystem(t, 12, 30)
	r, err := sys.ApproxRatio(0)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(77)
	for trial := 0; trial < 3; trial++ {
		st := gen.Next()
		const v, q = 50.0, 20.0
		res, err := sys.BDMA(st, v, q, BDMAConfig{Iterations: 1}, src)
		if err != nil {
			t.Fatal(err)
		}
		lhs := v*res.Latency + q*sys.ThetaActive(res.Freq, st.Price, st.ServerActive)
		// Compare against a batch of random feasible decisions with random
		// feasible frequencies.
		for cand := 0; cand < 20; cand++ {
			sel := feasibleSelection(t, sys, st, int64(1000*trial+cand))
			freq := make(Frequencies, len(sys.Net.Servers))
			for n := range freq {
				srv := &sys.Net.Servers[n]
				freq[n] = srv.MinFreq + units.Frequency(src.Float64()*float64(srv.MaxFreq-srv.MinFreq))
			}
			rhs := r*v*sys.ReducedLatency(sel, freq, st).Value() + q*sys.ThetaActive(freq, st.Price, nil)
			if lhs > rhs+1e-6*(math.Abs(rhs)+1) {
				t.Errorf("trial %d cand %d: Theorem 3 violated: %v > %v", trial, cand, lhs, rhs)
			}
		}
	}
}

// TestBudgetTightening verifies the economic sanity of the controller:
// tightening the budget lowers realized cost and raises latency.
func TestBudgetTightening(t *testing.T) {
	run := func(frac float64) (cost, latency float64) {
		src := rng.New(31)
		net, err := topology.Generate(smallSpec(10), src.Derive("net"))
		if err != nil {
			t.Fatal(err)
		}
		models := DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
		sys, err := NewSystem(net, models, 3600, 1)
		if err != nil {
			t.Fatal(err)
		}
		low := sys.EnergyCost(sys.LowestFrequencies(), 50)
		high := sys.EnergyCost(sys.HighestFrequencies(), 50)
		sys.Budget = low + units.Money(frac*float64(high-low))
		gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 31)
		if err != nil {
			t.Fatal(err)
		}
		ctrl, err := NewBDMAController(sys, 100, 2, 0, 31)
		if err != nil {
			t.Fatal(err)
		}
		const slots = 96
		for s := 0; s < slots; s++ {
			res, err := ctrl.Step(gen.Next())
			if err != nil {
				t.Fatal(err)
			}
			cost += res.EnergyCost.Dollars()
			latency += res.Latency.Value()
		}
		return cost / slots, latency / slots
	}
	tightCost, tightLatency := run(0.15)
	looseCost, looseLatency := run(0.9)
	if tightCost >= looseCost {
		t.Errorf("tight budget cost %v not below loose %v", tightCost, looseCost)
	}
	if tightLatency < looseLatency {
		t.Errorf("tight budget latency %v below loose %v — free lunch?", tightLatency, looseLatency)
	}
}

func TestSlotResultSplitAndFairness(t *testing.T) {
	sys, gen := buildSystem(t, 10, 33)
	ctrl, err := NewBDMAController(sys, 50, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ctrl.Step(gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	comm, proc := res.Split()
	if comm <= 0 || proc <= 0 {
		t.Errorf("split = %v/%v, want positive components", comm, proc)
	}
	if math.Abs(float64(comm+proc-res.Latency)) > 1e-9*float64(res.Latency) {
		t.Errorf("split %v + %v ≠ total %v", comm, proc, res.Latency)
	}
	f := res.Fairness()
	if f <= 0.1 || f > 1+1e-9 {
		t.Errorf("fairness = %v outside plausible range", f)
	}
}

func TestOptimalController(t *testing.T) {
	sys, gen := buildSystem(t, 6, 34)
	ctrl, err := NewOptimalController(sys, 50, 1, solver.BnBConfig{MaxNodes: 20000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.SolverName() != "OPT" {
		t.Errorf("SolverName = %q", ctrl.SolverName())
	}
	res, err := ctrl.Step(gen.Next())
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Error("no latency")
	}
}

// TestOptimalControllerDominatesOnObjective: on a shared slot, the OPT-based
// decision's P2 objective is no worse than CGBA's (it is warm-started by
// CGBA and only improves).
func TestOptimalControllerDominatesOnObjective(t *testing.T) {
	sysA, genA := buildSystem(t, 8, 35)
	sysB, genB := buildSystem(t, 8, 35)
	cgba, err := NewBDMAController(sysA, 50, 1, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimalController(sysB, 50, 1, solver.BnBConfig{MaxNodes: 50000}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		ra, err := cgba.Step(genA.Next())
		if err != nil {
			t.Fatal(err)
		}
		rb, err := opt.Step(genB.Next())
		if err != nil {
			t.Fatal(err)
		}
		if rb.Objective > ra.Objective*(1+1e-9) {
			t.Errorf("slot %d: OPT objective %v above CGBA %v", s, rb.Objective, ra.Objective)
		}
	}
}

func TestCheckpointResumeBitIdentical(t *testing.T) {
	// A 20-slot straight run must match 10 slots + checkpoint + restore
	// into a fresh controller + 10 more slots.
	sysA, genA := buildSystem(t, 8, 40)
	straight, err := NewBDMAController(sysA, 75, 2, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for s := 0; s < 20; s++ {
		res, err := straight.Step(genA.Next())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Latency.Value(), res.Backlog)
	}

	sysB, genB := buildSystem(t, 8, 40)
	first, err := NewBDMAController(sysB, 75, 2, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for s := 0; s < 10; s++ {
		res, err := first.Step(genB.Next())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Latency.Value(), res.Backlog)
	}
	var buf strings.Builder
	if err := first.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}

	resumed, err := NewBDMAController(sysB, 75, 2, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 10; s++ {
		res, err := resumed.Step(genB.Next())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Latency.Value(), res.Backlog)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resume diverged at element %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestRestoreRejectsMismatches(t *testing.T) {
	sys, _ := buildSystem(t, 5, 41)
	ctrl, err := NewBDMAController(sys, 75, 1, 0, 41)
	if err != nil {
		t.Fatal(err)
	}
	good := ctrl.Checkpoint()
	tests := []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"negative slot", func(cp *Checkpoint) { cp.Slot = -1 }},
		{"negative backlog", func(cp *Checkpoint) { cp.Backlog = -2 }},
		{"NaN backlog", func(cp *Checkpoint) { cp.Backlog = math.NaN() }},
		{"infinite backlog", func(cp *Checkpoint) { cp.Backlog = math.Inf(1) }},
		{"room backlogs", func(cp *Checkpoint) { cp.RoomBacklogs = map[int]float64{0: 1, 1: 2} }},
		{"wrong V", func(cp *Checkpoint) { cp.V = 999 }},
		{"wrong solver", func(cp *Checkpoint) { cp.Solver = "ROPT" }},
		{"wrong seed", func(cp *Checkpoint) { cp.Seed = 123 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cp := good
			tt.mutate(&cp)
			if err := ctrl.Restore(cp); err == nil {
				t.Error("mismatched checkpoint accepted")
			}
			if got := ctrl.Checkpoint(); !reflect.DeepEqual(got, good) {
				t.Errorf("rejected restore changed the checkpoint to %+v", got)
			}
		})
	}
	if err := ctrl.Restore(good); err != nil {
		t.Errorf("valid checkpoint rejected: %v", err)
	}
}

func TestReadCheckpointErrors(t *testing.T) {
	if _, err := ReadCheckpoint(strings.NewReader("{bad")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadCheckpoint(strings.NewReader(`{"bogus": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestLemma1LocalOptimality is a KKT check: shifting an ε of share
// between two devices on the same resource (keeping feasibility) must not
// reduce the total latency below the closed-form optimum.
func TestLemma1LocalOptimality(t *testing.T) {
	sys, gen := buildSystem(t, 10, 90)
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 4)
	freq := sys.LowestFrequencies()
	opt := sys.OptimalAllocation(sel, st)
	base, _ := sys.LatencyOf(Decision{Selection: sel, Allocation: opt, Freq: freq}, st)

	// Find two devices sharing a server and perturb their compute shares.
	byServer := make(map[int][]int)
	for i, n := range sel.Server {
		byServer[n] = append(byServer[n], i)
	}
	const eps = 1e-3
	perturbed := 0
	for _, devs := range byServer {
		if len(devs) < 2 {
			continue
		}
		for _, dir := range []float64{+1, -1} {
			alloc := Allocation{
				AccessShare:    append([]float64(nil), opt.AccessShare...),
				FronthaulShare: append([]float64(nil), opt.FronthaulShare...),
				ComputeShare:   append([]float64(nil), opt.ComputeShare...),
			}
			a, b := devs[0], devs[1]
			if alloc.ComputeShare[a] < 2*eps || alloc.ComputeShare[b] < 2*eps {
				continue
			}
			alloc.ComputeShare[a] += dir * eps
			alloc.ComputeShare[b] -= dir * eps
			if err := sys.ValidateAllocation(sel, alloc); err != nil {
				t.Fatal(err)
			}
			total, _ := sys.LatencyOf(Decision{Selection: sel, Allocation: alloc, Freq: freq}, st)
			if total < base-1e-9 {
				t.Errorf("ε-shift (%+g) between devices %d,%d reduced latency %v → %v", dir*eps, a, b, base, total)
			}
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Skip("no shared server with headroom in this draw")
	}
}

func TestStepWithObservationPersistenceForecast(t *testing.T) {
	// Deciding on last slot's state must still produce feasible decisions
	// and (on average) latency no better than deciding on the true state.
	sysA, genA := buildSystem(t, 10, 91)
	sysB, genB := buildSystem(t, 10, 91)
	oracle, err := NewBDMAController(sysA, 50, 1, 0, 91)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := NewBDMAController(sysB, 50, 1, 0, 91)
	if err != nil {
		t.Fatal(err)
	}
	var oracleSum, staleSum float64
	prev := genB.Next()
	_ = genA.Next() // keep traces aligned
	const slots = 40
	for s := 0; s < slots; s++ {
		curA := genA.Next()
		curB := genB.Next()
		ro, err := oracle.Step(curA)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := stale.StepWithObservation(prev, curB)
		if err != nil {
			// Coverage changed between slots → failed handover; a real
			// system re-decides on the fresh state. Mobility makes this
			// occasional, and the error must mention it.
			if !strings.Contains(err.Error(), "stale decision infeasible") {
				t.Fatal(err)
			}
			rs, err = stale.Step(curB)
			if err != nil {
				t.Fatal(err)
			}
		}
		oracleSum += ro.Latency.Value()
		staleSum += rs.Latency.Value()
		prev = curB
	}
	// Stale observations cannot beat true observations on average.
	if staleSum < oracleSum*0.98 {
		t.Errorf("stale decisions (%v) beat oracle (%v)", staleSum/slots, oracleSum/slots)
	}
}

func TestStepWithObservationEqualsStepWhenSame(t *testing.T) {
	sysA, genA := buildSystem(t, 8, 92)
	sysB, genB := buildSystem(t, 8, 92)
	a, err := NewBDMAController(sysA, 50, 1, 0, 92)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBDMAController(sysB, 50, 1, 0, 92)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		stA, stB := genA.Next(), genB.Next()
		ra, err := a.Step(stA)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.StepWithObservation(stB, stB)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Latency != rb.Latency || ra.Backlog != rb.Backlog {
			t.Fatalf("slot %d: StepWithObservation(st, st) ≠ Step(st)", s)
		}
	}
}
