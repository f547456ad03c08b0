package faults

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

func testSource(t *testing.T, devices int, seed int64) (trace.Source, int) {
	t.Helper()
	net, err := topology.Generate(topology.DefaultSpec(devices), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return gen, len(net.Servers)
}

// cloneState deep-copies the fields an injector mutates, including the
// reused ServerDown/CapScale buffers, so states can be compared across
// slots.
func cloneState(st *trace.State) *trace.State {
	cp := *st
	cp.TaskSizes = append([]units.Cycles(nil), st.TaskSizes...)
	cp.DataLengths = append([]units.DataSize(nil), st.DataLengths...)
	cp.Channels = make([][]trace.Link, len(st.Channels))
	for i := range st.Channels {
		cp.Channels[i] = append([]trace.Link(nil), st.Channels[i]...)
	}
	cp.FronthaulSE = append([]units.SpectralEfficiency(nil), st.FronthaulSE...)
	if st.ServerDown != nil {
		cp.ServerDown = append([]bool(nil), st.ServerDown...)
	}
	if st.CapScale != nil {
		cp.CapScale = append([]float64(nil), st.CapScale...)
	}
	return &cp
}

// recordStall captures the per-slot stall pushes an injector makes.
type recordStall struct{ stalls []time.Duration }

func (r *recordStall) SetStall(d time.Duration) { r.stalls = append(r.stalls, d) }

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Config{
		"prob>1":   {NaNProb: 1.5},
		"prob<0":   {OutageProb: -0.1},
		"probNaN":  {StallProb: math.NaN()},
		"negslots": {OutageSlots: -1},
		"scale>=1": {CapLossScale: 1},
		"scaleneg": {CapLossScale: -0.5},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, bad)
		}
	}
}

func TestNewInjectorValidation(t *testing.T) {
	src, _ := testSource(t, 10, 1)
	if _, err := NewInjector(Config{NaNProb: 2}, 4, src); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewInjector(Config{}, 0, src); err == nil {
		t.Error("zero servers accepted")
	}
}

// TestInjectorDeterministic: two injectors with the same seed over the
// same trace must corrupt identical slots identically — the replayable
// fault-schedule contract.
func TestInjectorDeterministic(t *testing.T) {
	const slots = 64
	// States are compared by printed form: injected NaNs make
	// reflect.DeepEqual vacuously false (NaN ≠ NaN) but print stably.
	record := func() ([]string, int) {
		src, servers := testSource(t, 16, 3)
		inj, err := NewInjector(DefaultConfig(99), servers, src)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, slots)
		for i := 0; i < slots; i++ {
			out = append(out, fmt.Sprintf("%+v", cloneState(inj.Next())))
		}
		return out, inj.Injections()
	}
	a, na := record()
	b, nb := record()
	if na != nb {
		t.Fatalf("injection counts diverged: %d vs %d", na, nb)
	}
	if na == 0 {
		t.Fatal("default profile injected nothing over 64 slots")
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("corrupted traces diverged between same-seed runs")
	}
}

// TestInjectorCorruptsTrace: with certain per-slot probabilities, every
// fault class fires and is visible in the state.
func TestInjectorCorruptsTrace(t *testing.T) {
	src, servers := testSource(t, 16, 3)
	cfg := Config{
		Seed: 5, NaNProb: 1, NegProb: 1, ZeroChannelProb: 1,
		OutageProb: 1, OutageSlots: 2, CapLossProb: 1, CapLossScale: 0.25,
	}
	inj, err := NewInjector(cfg, servers, src)
	if err != nil {
		t.Fatal(err)
	}
	st := inj.Next()
	badDemand := false
	for i := range st.TaskSizes {
		if v := st.TaskSizes[i].Count(); math.IsNaN(v) || v < 0 {
			badDemand = true
		}
		if v := st.DataLengths[i].Bits(); math.IsNaN(v) || v < 0 {
			badDemand = true
		}
	}
	if !badDemand {
		t.Error("no demand corruption with probability-1 faults")
	}
	if st.ServerDown == nil {
		t.Error("no outage with probability-1 faults")
	}
	if st.CapScale == nil {
		t.Error("no capacity loss with probability-1 faults")
	}
	seen := false
	for _, c := range st.CapScale {
		if c == 0.25 {
			seen = true
		}
	}
	if !seen {
		t.Error("CapLossScale not applied")
	}
}

// TestOutageWindows: a probability-1 outage keeps at least one server
// down every slot, and windows expire (a server down this slot with a
// 1-slot window and no new draw on it comes back).
func TestOutageWindows(t *testing.T) {
	src, servers := testSource(t, 8, 7)
	cfg := Config{Seed: 21, OutageProb: 1, OutageSlots: 3}
	inj, err := NewInjector(cfg, servers, src)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < 12; slot++ {
		st := inj.Next()
		down := 0
		for n := 0; n < servers; n++ {
			if st.Down(n) {
				down++
			}
		}
		if down == 0 {
			t.Fatalf("slot %d: no server down under probability-1 outages", slot)
		}
		if down == servers {
			t.Fatalf("slot %d: every server down — windows never expire", slot)
		}
	}
}

// TestStallInjection: stall pushes reach the attached receiver every
// slot — zero on clean slots, the configured stall on hit slots.
func TestStallInjection(t *testing.T) {
	src, servers := testSource(t, 8, 7)
	cfg := Config{Seed: 13, StallProb: 0.5, Stall: 5 * time.Millisecond}
	inj, err := NewInjector(cfg, servers, src)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordStall{}
	inj.Attach(rec)
	const slots = 40
	for i := 0; i < slots; i++ {
		inj.Next()
	}
	if len(rec.stalls) != slots {
		t.Fatalf("got %d stall pushes, want %d", len(rec.stalls), slots)
	}
	hits, clears := 0, 0
	for _, d := range rec.stalls {
		switch d {
		case 0:
			clears++
		case cfg.Stall:
			hits++
		default:
			t.Fatalf("unexpected stall %v", d)
		}
	}
	if hits == 0 || clears == 0 {
		t.Errorf("stall draw degenerate: %d hits, %d clears over %d slots", hits, clears, slots)
	}
}

// TestDefaultStallIsHuge: an unset Stall must select a value certain to
// exhaust any realistic slot budget.
func TestDefaultStallIsHuge(t *testing.T) {
	src, servers := testSource(t, 8, 7)
	inj, err := NewInjector(Config{Seed: 3, StallProb: 1}, servers, src)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordStall{}
	inj.Attach(rec)
	inj.Next()
	if len(rec.stalls) != 1 || rec.stalls[0] < time.Hour {
		t.Errorf("default stall %v, want ≥ 1h", rec.stalls)
	}
}
