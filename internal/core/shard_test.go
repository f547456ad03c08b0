package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"eotora/internal/game"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// buildMetroSystem constructs a system over the metro preset — a wide
// gridded topology whose station–room wiring splits into many
// resource-disjoint clusters — plus a matching state generator. The
// budget is set the same way buildSystem does.
func buildMetroSystem(t testing.TB, devices int, seed int64) (*System, *trace.Generator) {
	t.Helper()
	return buildSpecSystem(t, topology.MetroSpec(devices), seed)
}

func TestShardPlanFor(t *testing.T) {
	sys, gen := buildMetroSystem(t, 60, 5)
	p, err := sys.NewP2A(gen.Next(), sys.LowestFrequencies())
	if err != nil {
		t.Fatal(err)
	}

	// Off switches return no plan and no error.
	for _, off := range []int{0, 1} {
		if plan, err := p.shardPlanFor(off); err != nil || plan != nil {
			t.Fatalf("shardPlanFor(%d) = (%v, %v), want (nil, nil)", off, plan, err)
		}
	}
	if _, err := p.shardPlanFor(-3); err == nil {
		t.Fatal("invalid shard count accepted")
	}

	plan, err := p.shardPlanFor(ShardsAuto)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Shards() < 2 {
		t.Fatalf("metro preset should split into ≥ 2 shards, got %v", plan)
	}
	if plan.Players() != p.Game().Players() {
		t.Fatalf("plan covers %d players, game has %d", plan.Players(), p.Game().Players())
	}
	if plan.Boundary() >= plan.Players() {
		t.Fatalf("every player is boundary (%d of %d) — partition degenerate",
			plan.Boundary(), plan.Players())
	}

	// Memoized: the same target returns the identical compiled plan.
	again, err := p.shardPlanFor(ShardsAuto)
	if err != nil {
		t.Fatal(err)
	}
	if again != plan {
		t.Error("memoized plan not reused for an unchanged population")
	}

	// A different target recompiles (reusing the allocation) with the
	// requested shard count.
	two, err := p.shardPlanFor(2)
	if err != nil {
		t.Fatal(err)
	}
	if two.Shards() != 2 {
		t.Fatalf("shardPlanFor(2) produced %d shards", two.Shards())
	}

	// Rebuilding the instance invalidates the memo.
	if err := sys.BuildP2A(p, gen.Next(), sys.LowestFrequencies()); err != nil {
		t.Fatal(err)
	}
	if p.planValid {
		t.Error("BuildP2A left the shard-plan memo valid")
	}
	if _, err := p.shardPlanFor(ShardsAuto); err != nil {
		t.Fatal(err)
	}
	if !p.planValid {
		t.Error("shardPlanFor did not re-validate the memo")
	}
}

func TestSetShardsValidation(t *testing.T) {
	sys, _ := buildSystem(t, 8, 3)
	mcba, err := NewMCBAController(sys, 110, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := mcba.SetShards(2); err == nil {
		t.Error("SetShards accepted on an MCBA controller")
	}

	cgba, err := NewBDMAController(sys, 110, 2, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 2, 8, ShardsAuto} {
		if err := cgba.SetShards(n); err != nil {
			t.Errorf("SetShards(%d) = %v", n, err)
		}
	}
	if err := cgba.SetShards(-2); err == nil {
		t.Error("SetShards(-2) accepted")
	}

	// A controller with the implicit default solver materializes CGBA.
	def, err := NewController(sys, ControllerConfig{V: 110, BDMA: BDMAConfig{Iterations: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := def.SetShards(2); err != nil {
		t.Errorf("SetShards on the default solver: %v", err)
	}
	if def.SolverName() != "CGBA" {
		t.Errorf("default solver is %s", def.SolverName())
	}
}

// TestControllerShardsOffBitIdentical is the shards ∈ {unset, 0, 1} half
// of the equivalence contract at the controller level: on a topology
// that genuinely clusters, a disabled shard knob must leave every
// decision bit-identical to the seed path at every pool size.
func TestControllerShardsOffBitIdentical(t *testing.T) {
	const devices, seed, slots = 48, 31, 3
	build := func() (*Controller, []*trace.State) {
		sys, gen := buildMetroSystem(t, devices, seed)
		ctrl, err := NewBDMAController(sys, 110, 2, 0.05, 9)
		if err != nil {
			t.Fatal(err)
		}
		return ctrl, trace.Record(gen, slots)
	}
	baseCtrl, states := build()
	want := stepTrace(t, baseCtrl, states)

	for _, shards := range []int{0, 1} {
		for _, size := range []int{0, 4} {
			t.Run(fmt.Sprintf("shards=%d/pool=%d", shards, size), func(t *testing.T) {
				ctrl, states := build()
				if err := ctrl.SetShards(shards); err != nil {
					t.Fatal(err)
				}
				if pool := withPool(size); pool != nil {
					defer pool.Close()
					ctrl.SetPool(pool)
				}
				if got := stepTrace(t, ctrl, states); !reflect.DeepEqual(got, want) {
					t.Error("slot trace diverged from the unsharded baseline")
				}
			})
		}
	}
}

// TestControllerSharded drives the full sharded slot path: auto
// sharding over the metro preset, the gap audit sampling every second
// slot into the shard.* series, feasible decisions throughout, and a
// trajectory that is bit-identical across pool sizes and repeats.
func TestControllerSharded(t *testing.T) {
	const devices, seed, slots = 64, 33, 4
	run := func(size int) ([]slotTrace, []uint64, obs.Snapshot) {
		sys, gen := buildMetroSystem(t, devices, seed)
		ctrl, err := NewBDMAController(sys, 110, 2, 0.05, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctrl.SetShards(ShardsAuto); err != nil {
			t.Fatal(err)
		}
		ctrl.SetShardAudit(2)
		reg := obs.New()
		ctrl.SetObs(reg)
		if pool := withPool(size); pool != nil {
			defer pool.Close()
			ctrl.SetPool(pool)
		}
		states := trace.Record(gen, slots)
		traces := make([]slotTrace, 0, slots)
		gaps := make([]uint64, 0, slots)
		for i, st := range states {
			r, err := ctrl.Step(st)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Validate(r.Decision.Selection, st); err != nil {
				t.Fatalf("slot %d: sharded decision infeasible: %v", r.Slot, err)
			}
			wantAudit := (i+1)%2 == 0
			if r.ShardAudited != wantAudit {
				t.Fatalf("slot %d: ShardAudited = %v, want %v", r.Slot, r.ShardAudited, wantAudit)
			}
			if r.ShardAudited {
				if math.IsNaN(r.ShardGap) || math.IsInf(r.ShardGap, 0) {
					t.Fatalf("slot %d: non-finite shard gap %v", r.Slot, r.ShardGap)
				}
				gaps = append(gaps, math.Float64bits(r.ShardGap))
			}
			traces = append(traces, stepTraceOf(r))
		}
		snap := reg.Snapshot()
		return traces, gaps, snap
	}

	base, baseGaps, baseSnap := run(0)
	if got := baseSnap.Counters[MetricShardAudits]; got != 2 {
		t.Fatalf("shard.audits = %d, want 2", got)
	}
	if h, ok := baseSnap.Histograms[MetricShardGap]; !ok || h.Count != 2 {
		t.Fatalf("shard.gap histogram missing or wrong count: %+v", h)
	}
	for _, size := range []int{1, 4} {
		traces, gaps, _ := run(size)
		if !reflect.DeepEqual(traces, base) {
			t.Errorf("pool=%d: sharded slot trace diverged from serial", size)
		}
		if !reflect.DeepEqual(gaps, baseGaps) {
			t.Errorf("pool=%d: audited gaps diverged from serial", size)
		}
	}
}

// stepTraceOf flattens one SlotResult the same way stepTrace does.
func stepTraceOf(r *SlotResult) slotTrace {
	freqBits := make([]uint64, len(r.Decision.Freq))
	for n, f := range r.Decision.Freq {
		freqBits[n] = math.Float64bits(float64(f))
	}
	return slotTrace{
		Stations:         append([]int(nil), r.Decision.Station...),
		Servers:          append([]int(nil), r.Decision.Server...),
		FreqBits:         freqBits,
		LatencyBits:      math.Float64bits(r.Latency.Value()),
		CostBits:         math.Float64bits(float64(r.EnergyCost)),
		ThetaBits:        math.Float64bits(r.Theta),
		BacklogBits:      math.Float64bits(r.Backlog),
		ObjectiveBits:    math.Float64bits(r.Objective),
		SolverIterations: r.SolverIterations,
	}
}

// TestShardChurnHandover runs churn (mobility, handovers, joins/leaves)
// over the metro preset and requires that (a) the shard plan tracks the
// population — at least one device visibly changes shard (or crosses
// into/out of the boundary set) between consecutive slots it is active
// in — and (b) every slot's sharded solve still certifies a global
// λ-equilibrium on the freshly mutated game.
func TestShardChurnHandover(t *testing.T) {
	const slots, lambda = 12, 0.01
	sys, gen := buildMetroSystem(t, 50, 7)
	sched, err := trace.NewChurnSchedule(trace.ChurnConfig{
		Seed:                  19,
		DeviceJoinProb:        0.10,
		DeviceLeaveProb:       0.10,
		HandoverProb:          0.25,
		MinActiveDevices:      1,
		InitialActiveFraction: 0.9,
	}, sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}

	p := new(P2A)
	freq := sys.LowestFrequencies()
	solver := CGBASolver{Lambda: lambda, Shards: ShardsAuto}
	prev := make([]int32, len(sys.Net.Rooms)) // placeholder; resized below
	havePrev := false
	crossed := false
	for slot := 0; slot < slots; slot++ {
		st := sched.Next()
		if err := sys.BuildP2A(p, st, freq); err != nil {
			t.Fatal(err)
		}
		plan, err := p.shardPlanFor(ShardsAuto)
		if err != nil {
			t.Fatal(err)
		}
		if plan == nil {
			t.Fatal("metro preset should produce a multi-shard plan")
		}

		res, err := solver.Solve(p, rng.New(int64(100+slot)))
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		eq := game.NewEngine(p.Game())
		if err := eq.Reset(res.Profile); err != nil {
			t.Fatal(err)
		}
		if !eq.IsEquilibrium(lambda) {
			t.Fatalf("slot %d: sharded result is not a global λ-equilibrium", slot)
		}

		// Device-indexed shard assignment (-2 = inactive this slot).
		cur := make([]int32, len(p.devPlayer))
		for i := range cur {
			cur[i] = -2
		}
		for pl, dev := range p.playerDev {
			cur[dev] = p.planAssign[pl]
		}
		if havePrev {
			for i := range cur {
				if cur[i] != -2 && prev[i] != -2 && cur[i] != prev[i] {
					crossed = true
				}
			}
		}
		prev, havePrev = cur, true
	}
	if !crossed {
		t.Fatal("no device changed shard across the churn run — handovers never crossed a cluster boundary")
	}
}

// The shard plan survives pooled churned solves under the race detector:
// a smoke pass exercised by the CI race leg.
func TestShardChurnPooled(t *testing.T) {
	sys, gen := buildMetroSystem(t, 40, 11)
	sched, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(23), sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewBDMAController(sys, 110, 2, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SetShards(ShardsAuto); err != nil {
		t.Fatal(err)
	}
	pool := par.New(4)
	defer pool.Close()
	ctrl.SetPool(pool)
	for slot := 0; slot < 4; slot++ {
		if _, err := ctrl.Step(sched.Next()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedMetroDigestPinned pins the decisions of sharded metro
// slots (auto shards, λ = 0.05, churned populations) to a digest
// captured before the CGBA sweeps lost their best-response shortlists.
// Every metro player has at most 16 strategies, so the old k = 16 tables
// were a full copy of the arena and the full-width scan must reproduce
// them bit for bit.
func TestShardedMetroDigestPinned(t *testing.T) {
	const want = uint64(0x884cda78f9b46d18)
	sys, gen := buildMetroSystem(t, 600, 41)
	sched, err := trace.NewChurnSchedule(trace.ChurnConfig{
		Seed:                  43,
		DeviceJoinProb:        0.05,
		DeviceLeaveProb:       0.05,
		HandoverProb:          0.10,
		MinActiveDevices:      1,
		InitialActiveFraction: 0.8,
	}, sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewBDMAController(sys, 110, 3, 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.SetShards(ShardsAuto); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for slot := 0; slot < 6; slot++ {
		r, err := ctrl.Step(sched.Next())
		if err != nil {
			t.Fatal(err)
		}
		tr := stepTraceOf(r)
		for i := range tr.Stations {
			word(uint64(tr.Stations[i]))
			word(uint64(tr.Servers[i]))
		}
		for _, f := range tr.FreqBits {
			word(f)
		}
		for _, v := range []uint64{tr.LatencyBits, tr.CostBits, tr.ThetaBits, tr.BacklogBits, tr.ObjectiveBits, uint64(tr.SolverIterations)} {
			word(v)
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("sharded metro digest %#x, want %#x", got, want)
	}
}
