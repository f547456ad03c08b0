package sim

import (
	"math"
	"strings"
	"testing"

	"eotora/internal/core"
	"eotora/internal/policy"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

func buildFixture(t testing.TB, devices int, seed int64) (*core.System, *trace.Generator) {
	t.Helper()
	src := rng.New(seed)
	spec := topology.DefaultSpec(devices)
	spec.Stations = 3
	spec.UmbrellaStations = 1
	spec.ServersPerRoom = 2
	net, err := topology.Generate(spec, src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	models := core.DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := core.NewSystem(net, models, 3600, 1)
	if err != nil {
		t.Fatal(err)
	}
	low := sys.EnergyCost(sys.LowestFrequencies(), 50)
	high := sys.EnergyCost(sys.HighestFrequencies(), 50)
	sys.Budget = (low + high) / 2
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{Slots: 10, Warmup: 2}, true},
		{"zero slots", Config{Slots: 0}, false},
		{"negative warmup", Config{Slots: 10, Warmup: -1}, false},
		{"warmup swallows run", Config{Slots: 10, Warmup: 10}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, ok = %v", err, tt.ok)
			}
		})
	}
}

func TestRunRecordsAllSeries(t *testing.T) {
	sys, gen := buildFixture(t, 10, 1)
	ctrl, err := core.NewBDMAController(sys, 50, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(ctrl, gen, Config{Slots: 30, Warmup: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Slots() != 30 {
		t.Fatalf("Slots = %d, want 30", m.Slots())
	}
	if m.Solver != "CGBA" || m.V != 50 {
		t.Errorf("metadata = %q/%v", m.Solver, m.V)
	}
	for i := 0; i < 30; i++ {
		if m.Latency[i] <= 0 || m.EnergyCost[i] <= 0 || m.Price[i] <= 0 {
			t.Fatalf("non-positive metric at slot %d", i)
		}
		if m.Backlog[i] < 0 {
			t.Fatalf("negative backlog at slot %d", i)
		}
	}
	if m.AvgLatency() <= 0 || m.AvgCost() <= 0 || m.AvgBacklog() < 0 {
		t.Error("summary averages inconsistent")
	}
	if m.AvgDecisionTime() <= 0 {
		t.Error("no decision time recorded")
	}
}

func TestRunValidation(t *testing.T) {
	sys, gen := buildFixture(t, 5, 2)
	ctrl, err := core.NewBDMAController(sys, 50, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nil, gen, Config{Slots: 5}); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := Run(ctrl, nil, Config{Slots: 5}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Run(ctrl, gen, Config{Slots: 0}); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestWarmupExcludedFromAverages(t *testing.T) {
	m := &Metrics{
		Warmup:     2,
		Latency:    []float64{100, 100, 1, 1},
		EnergyCost: []float64{100, 100, 2, 2},
		Backlog:    []float64{100, 100, 3, 3},
	}
	if got := m.AvgLatency(); got != 1 {
		t.Errorf("AvgLatency = %v, want 1", got)
	}
	if got := m.AvgCost(); got != 2 {
		t.Errorf("AvgCost = %v, want 2", got)
	}
	if got := m.AvgBacklog(); got != 3 {
		t.Errorf("AvgBacklog = %v, want 3", got)
	}
}

func TestBudgetSatisfied(t *testing.T) {
	m := &Metrics{Budget: 10, EnergyCost: []float64{9, 11}}
	if !m.BudgetSatisfied(0.01) {
		t.Error("average cost 10 within budget 10 rejected")
	}
	m2 := &Metrics{Budget: 5, EnergyCost: []float64{9, 11}}
	if m2.BudgetSatisfied(0.1) {
		t.Error("average cost 10 accepted for budget 5")
	}
}

func TestWriteCSV(t *testing.T) {
	sys, gen := buildFixture(t, 5, 3)
	ctrl, err := core.NewBDMAController(sys, 50, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(ctrl, gen, Config{Slots: 3})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := m.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "slot,latency_s") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,") {
		t.Errorf("first row = %q", lines[1])
	}
}

func TestRunAllSharesTrace(t *testing.T) {
	sys, gen := buildFixture(t, 8, 4)
	bdma, err := core.NewBDMAController(sys, 50, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ropt, err := core.NewROPTController(sys, 50, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunAll([]policy.Policy{bdma, ropt}, gen, Config{Slots: 20, Warmup: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d metric sets", len(ms))
	}
	// Same trace → identical price series for both controllers.
	for i := range ms[0].Price {
		if ms[0].Price[i] != ms[1].Price[i] {
			t.Fatalf("price series diverged at slot %d — trace not shared", i)
		}
	}
	// CGBA should not lose to random selection on average latency.
	if ms[0].AvgLatency() > ms[1].AvgLatency()*1.05 {
		t.Errorf("BDMA latency %v above ROPT %v", ms[0].AvgLatency(), ms[1].AvgLatency())
	}
}

func TestRunAllPropagatesBudgetMeta(t *testing.T) {
	sys, gen := buildFixture(t, 5, 5)
	ctrl, err := core.NewBDMAController(sys, 25, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunAll([]policy.Policy{ctrl}, gen, Config{Slots: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ms[0].Budget-sys.Budget.Dollars()) > 1e-12 {
		t.Errorf("budget metadata %v, want %v", ms[0].Budget, sys.Budget.Dollars())
	}
	if ms[0].V != 25 {
		t.Errorf("V metadata %v, want 25", ms[0].V)
	}
}

func TestMetricsEmptyDecisionTime(t *testing.T) {
	var m Metrics
	if m.AvgDecisionTime() != 0 {
		t.Error("empty decision time average should be 0")
	}
}

// Regression guard: the simulated system's latency and cost magnitudes
// stay in physically plausible ranges for the paper's parameterization.
func TestPhysicalScales(t *testing.T) {
	sys, gen := buildFixture(t, 20, 6)
	ctrl, err := core.NewBDMAController(sys, 50, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(ctrl, gen, Config{Slots: 24})
	if err != nil {
		t.Fatal(err)
	}
	if avg := m.AvgLatency(); avg < 1e-4 || avg > 1e3 {
		t.Errorf("average total latency %v s implausible", avg)
	}
	if avg := m.AvgCost(); avg < 1e-4 || avg > 1e3 {
		t.Errorf("average slot cost $%v implausible", avg)
	}
}

func TestLatencySplitAndFairnessSeries(t *testing.T) {
	sys, gen := buildFixture(t, 10, 7)
	ctrl, err := core.NewBDMAController(sys, 50, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(ctrl, gen, Config{Slots: 10, Warmup: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.CommLatency) != 10 || len(m.ProcLatency) != 10 || len(m.Fairness) != 10 {
		t.Fatal("split/fairness series not recorded")
	}
	for i := range m.Latency {
		sum := m.CommLatency[i] + m.ProcLatency[i]
		if math.Abs(sum-m.Latency[i]) > 1e-9*m.Latency[i] {
			t.Fatalf("slot %d: comm %v + proc %v ≠ total %v", i, m.CommLatency[i], m.ProcLatency[i], m.Latency[i])
		}
		if m.Fairness[i] <= 0 || m.Fairness[i] > 1+1e-9 {
			t.Fatalf("slot %d: fairness %v", i, m.Fairness[i])
		}
	}
}

func TestRecordPerDevice(t *testing.T) {
	sys, gen := buildFixture(t, 7, 12)
	ctrl, err := core.NewBDMAController(sys, 50, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(ctrl, gen, Config{Slots: 10, Warmup: 2, RecordPerDevice: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.PerDevice) != 10 {
		t.Fatalf("PerDevice rows = %d", len(m.PerDevice))
	}
	for t2, row := range m.PerDevice {
		if len(row) != 7 {
			t.Fatalf("slot %d has %d device entries", t2, len(row))
		}
		for i, v := range row {
			if v <= 0 || math.IsInf(v, 0) {
				t.Fatalf("device %d latency %v", i, v)
			}
		}
	}
	p50 := m.DeviceLatencyQuantile(0.5)
	p99 := m.DeviceLatencyQuantile(0.99)
	if math.IsNaN(p50) || p99 < p50 {
		t.Errorf("quantiles p50=%v p99=%v", p50, p99)
	}
	// Without recording: NaN.
	m2, err := Run(ctrl, gen, Config{Slots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(m2.DeviceLatencyQuantile(0.5)) {
		t.Error("quantile without recording should be NaN")
	}
}

// TestWriteCSVPolicyColumn: every per-slot row carries the policy name
// in the trailing column (OPERATIONS.md §1 schema), for both a baseline
// policy and the flagship controller.
func TestWriteCSVPolicyColumn(t *testing.T) {
	sys, gen := buildFixture(t, 5, 3)
	pol, err := policy.New(policy.GreedyEnergy, sys, policy.Config{V: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(pol, gen, Config{Slots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Policy != policy.GreedyEnergy || m.Solver != "" {
		t.Fatalf("metadata policy=%q solver=%q", m.Policy, m.Solver)
	}
	var sb strings.Builder
	if err := m.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if !strings.HasSuffix(lines[0], ",policy") {
		t.Errorf("header %q does not end with the policy column", lines[0])
	}
	for _, row := range lines[1:] {
		if !strings.HasSuffix(row, ","+policy.GreedyEnergy) {
			t.Errorf("row %q does not carry the policy name", row)
		}
	}

	ctrl, err := core.NewBDMAController(sys, 50, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, gen2 := buildFixture(t, 5, 3)
	m2, err := Run(ctrl, gen2, Config{Slots: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Policy != policy.BDMA || m2.Solver != "CGBA" {
		t.Fatalf("controller metadata policy=%q solver=%q", m2.Policy, m2.Solver)
	}
	var sb2 strings.Builder
	if err := m2.WriteCSV(&sb2); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(sb2.String()), "\n")
	if !strings.HasSuffix(rows[1], ","+policy.BDMA) {
		t.Errorf("controller row %q does not carry the policy name", rows[1])
	}
}
