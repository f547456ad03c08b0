package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// corePoolSizes is the pool-size matrix the equivalence tests run:
// 0 means "no pool attached" (the exact serial path).
func corePoolSizes() []int {
	return []int{0, 1, 2, runtime.NumCPU() + 1}
}

func withPool(size int) *par.Pool {
	if size == 0 {
		return nil
	}
	return par.New(size)
}

// stepTrace runs a controller over the given states and flattens every
// decision-relevant quantity into comparable values (float bits, ints).
type slotTrace struct {
	Stations, Servers []int
	FreqBits          []uint64
	LatencyBits       uint64
	CostBits          uint64
	ThetaBits         uint64
	BacklogBits       uint64
	ObjectiveBits     uint64
	SolverIterations  int
}

func stepTrace(t *testing.T, ctrl *Controller, states []*trace.State) []slotTrace {
	t.Helper()
	out := make([]slotTrace, 0, len(states))
	for _, st := range states {
		r, err := ctrl.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		freqBits := make([]uint64, len(r.Decision.Freq))
		for n, f := range r.Decision.Freq {
			freqBits[n] = math.Float64bits(float64(f))
		}
		out = append(out, slotTrace{
			Stations:         append([]int(nil), r.Decision.Station...),
			Servers:          append([]int(nil), r.Decision.Server...),
			FreqBits:         freqBits,
			LatencyBits:      math.Float64bits(r.Latency.Value()),
			CostBits:         math.Float64bits(float64(r.EnergyCost)),
			ThetaBits:        math.Float64bits(r.Theta),
			BacklogBits:      math.Float64bits(r.Backlog),
			ObjectiveBits:    math.Float64bits(r.Objective),
			SolverIterations: r.SolverIterations,
		})
	}
	return out
}

// comparableSnapshot strips the metrics that legitimately differ between
// serial and pooled runs: wall-clock timings and the pool's own series.
func comparableSnapshot(reg *obs.Registry) obs.Snapshot {
	snap := reg.Snapshot()
	delete(snap.Histograms, MetricDecisionSeconds)
	delete(snap.Counters, par.MetricRegions)
	delete(snap.Histograms, par.MetricRegionShards)
	delete(snap.Gauges, par.MetricWorkers)
	// Never-observed histograms snapshot Min/Max as NaN, which is never
	// DeepEqual to itself; drop them. An empty-vs-populated mismatch still
	// fails because the key then exists on one side only.
	for name, h := range snap.Histograms {
		if h.Count == 0 {
			delete(snap.Histograms, name)
		}
	}
	return snap
}

// TestControllerPoolMatrix is the end-to-end determinism contract at the
// controller level: a pooled controller's selections, frequencies,
// objectives, queue trajectory, solver iteration counts, and non-timing
// observability series are bit-identical to serial at every pool size.
func TestControllerPoolMatrix(t *testing.T) {
	const devices, seed, slots = 70, 21, 6
	build := func() (*Controller, []*trace.State) {
		sys, gen := buildSystem(t, devices, seed)
		ctrl, err := NewBDMAController(sys, 110, 3, 0.05, 9)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl, trace.Record(gen, slots)
	}

	serialCtrl, states := build()
	serialReg := obs.New()
	serialCtrl.SetObs(serialReg)
	want := stepTrace(t, serialCtrl, states)
	wantSnap := comparableSnapshot(serialReg)

	for _, size := range corePoolSizes()[1:] {
		t.Run(fmt.Sprintf("pool=%d", size), func(t *testing.T) {
			pool := par.New(size)
			defer pool.Close()
			ctrl, states := build()
			reg := obs.New()
			ctrl.SetObs(reg)
			ctrl.SetPool(pool)
			got := stepTrace(t, ctrl, states)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("slot trace diverged from serial")
			}
			if snap := comparableSnapshot(reg); !reflect.DeepEqual(snap, wantSnap) {
				t.Errorf("obs snapshot diverged:\n got %+v\nwant %+v", snap, wantSnap)
			}
		})
	}
}

// TestControllerRoomsPoolMatrix covers the per-room budget path (its own
// BDMA wrapper, P2-B queue weights, and objective).
func TestControllerRoomsPoolMatrix(t *testing.T) {
	const devices, seed, slots = 66, 13, 4
	build := func() (*Controller, []*trace.State) {
		sys, gen := buildSystem(t, devices, seed)
		withRoomBudgets(t, sys, map[int]float64{0: 0.5, 1: 0.4})
		ctrl, err := NewBDMAController(sys, 90, 2, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl, trace.Record(gen, slots)
	}
	serialCtrl, states := build()
	want := stepTrace(t, serialCtrl, states)
	for _, size := range corePoolSizes()[1:] {
		pool := par.New(size)
		ctrl, states := build()
		ctrl.SetPool(pool)
		got := stepTrace(t, ctrl, states)
		pool.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("pool %d: rooms slot trace diverged from serial", size)
		}
	}
}

// TestSolveP2BPoolMatrix checks the per-server fan-out in isolation,
// including the solver-work instruments.
func TestSolveP2BPoolMatrix(t *testing.T) {
	sys, gen := buildSystem(t, 80, 17)
	st := gen.Next()
	compute := sys.computeSums(make([]float64, len(sys.Net.Servers)), feasibleSelection(t, sys, st, 3), st)

	serialReg := obs.New()
	serialIn := solveInstr{
		p2bSolves: serialReg.Counter(MetricP2BSolves),
		p2bIters:  serialReg.Histogram(MetricP2BIterations),
	}
	want, err := sys.solveP2B(compute, st, 120, func(int) float64 { return 7 }, serialIn, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range corePoolSizes()[1:] {
		pool := par.New(size)
		reg := obs.New()
		in := solveInstr{
			p2bSolves: reg.Counter(MetricP2BSolves),
			p2bIters:  reg.Histogram(MetricP2BIterations),
		}
		got, err := sys.solveP2B(compute, st, 120, func(int) float64 { return 7 }, in, pool, nil)
		pool.Close()
		if err != nil {
			t.Fatalf("pool %d: %v", size, err)
		}
		for n := range want {
			if math.Float64bits(float64(got[n])) != math.Float64bits(float64(want[n])) {
				t.Errorf("pool %d: server %d frequency %v, want %v", size, n, got[n], want[n])
			}
		}
		if !reflect.DeepEqual(reg.Snapshot(), serialReg.Snapshot()) {
			t.Errorf("pool %d: P2-B instruments diverged", size)
		}
	}
}

// TestSolveP2BPoolError checks that the parallel path reports the same
// error as serial: the lowest failing server wins, regardless of which
// shard hit its failure first.
func TestSolveP2BPoolError(t *testing.T) {
	sys, gen := buildSystem(t, 80, 41)
	st := gen.Next()
	compute := sys.computeSums(make([]float64, len(sys.Net.Servers)), feasibleSelection(t, sys, st, 3), st)
	// Corrupt every server's frequency range so each per-server solve
	// fails; serial reports server 0.
	for n := range sys.Net.Servers {
		sys.Net.Servers[n].MinFreq = 4 * units.GHz
		sys.Net.Servers[n].MaxFreq = 1 * units.GHz
	}
	_, serialErr := sys.solveP2B(compute, st, 100, func(int) float64 { return 1 }, solveInstr{}, nil, nil)
	if serialErr == nil {
		t.Fatal("expected serial error")
	}
	for _, size := range corePoolSizes()[1:] {
		pool := par.New(size)
		_, err := sys.solveP2B(compute, st, 100, func(int) float64 { return 1 }, solveInstr{}, pool, nil)
		pool.Close()
		if err == nil || err.Error() != serialErr.Error() {
			t.Errorf("pool %d: error %v, want %v", size, err, serialErr)
		}
	}
}

// TestControllerPoolSteadyStateAllocs guards the "zero additional
// steady-state allocations per slot" acceptance bar: after warmup, a
// pooled controller step must not allocate more than the serial step.
func TestControllerPoolSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement in -short mode")
	}
	measure := func(pool *par.Pool) float64 {
		sys, gen := buildSystem(t, 70, 21)
		ctrl, err := NewBDMAController(sys, 110, 3, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if pool != nil {
			ctrl.SetPool(pool)
		}
		states := trace.Record(gen, 8)
		i := 0
		step := func() {
			if _, err := ctrl.Step(states[i%len(states)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
		for w := 0; w < 4; w++ { // warm caches, scratch pools, worker stacks
			step()
		}
		return testing.AllocsPerRun(20, step)
	}
	serial := measure(nil)
	pool := par.New(runtime.NumCPU() + 1)
	defer pool.Close()
	pooled := measure(pool)
	// Slack of 2 absorbs sync.Pool evictions under GC; the contract is
	// "no structural per-slot allocation added by the pool path".
	if pooled > serial+2 {
		t.Errorf("pooled step allocates %.1f/slot, serial %.1f/slot", pooled, serial)
	}
}

// FuzzParallelEquivalence drives random topologies, traces, and pool
// sizes through the controller and requires the pooled run to be
// bit-identical to serial. Device counts straddle the parallel gates so
// both the gated-off and sharded paths are exercised.
func FuzzParallelEquivalence(f *testing.F) {
	f.Add(int64(1), int64(2), uint8(2), uint8(40))
	f.Add(int64(3), int64(4), uint8(5), uint8(70))
	f.Add(int64(7), int64(8), uint8(3), uint8(12))
	f.Fuzz(func(t *testing.T, topoSeed, traceSeed int64, poolSize, deviceByte uint8) {
		devices := 6 + int(deviceByte)%90
		size := 2 + int(poolSize)%6
		src := rng.New(topoSeed)
		net, err := topology.Generate(smallSpec(devices), src.Derive("net"))
		if err != nil {
			t.Skip() // infeasible random topology
		}
		models := DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
		sys, err := NewSystem(net, models, 3600, 1)
		if err != nil {
			t.Skip()
		}
		low := sys.EnergyCost(sys.LowestFrequencies(), 50)
		high := sys.EnergyCost(sys.HighestFrequencies(), 50)
		sys.Budget = (low + high) / 2
		gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), traceSeed)
		if err != nil {
			t.Skip()
		}
		states := trace.Record(gen, 2)

		run := func(pool *par.Pool) []slotTrace {
			ctrl, err := NewBDMAController(sys, 100, 2, 0.05, 7)
			if err != nil {
				t.Fatal(err)
			}
			ctrl.SetPool(pool)
			return stepTrace(t, ctrl, states)
		}
		want := run(nil)
		pool := par.New(size)
		defer pool.Close()
		if got := run(pool); !reflect.DeepEqual(got, want) {
			t.Fatalf("pool size %d diverged from serial (devices=%d)", size, devices)
		}
	})
}
