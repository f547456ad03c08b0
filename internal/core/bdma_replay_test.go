package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"eotora/internal/game"
	"eotora/internal/obs"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// plainBDMA is Algorithm 2 with no replay exit: exactly z rounds of
// P2A.Reweight, a P2-A solve (CGBASolver.SolveFrom warm-started from the
// previous round's profile after round 0), and P2-B, keeping the strictly
// best iterate. It runs on a freshly built P2A, so it shares no engine
// state with the production loop it is the reference for.
func plainBDMA(t *testing.T, sys *System, st *trace.State, z int, p2aSolver P2ASolver, src *rng.Source,
	p2b func(Selection) (Frequencies, error), objective func(Selection, Frequencies) float64) BDMAResult {
	t.Helper()
	freq := sys.LowestFrequencies()
	p, err := sys.NewP2A(st, freq)
	if err != nil {
		t.Fatal(err)
	}
	best := BDMAResult{Objective: math.Inf(1)}
	var warm game.Profile
	for r := 0; r < z; r++ {
		if r > 0 {
			if err := p.Reweight(freq); err != nil {
				t.Fatal(err)
			}
		}
		var res game.Result
		if cg, ok := p2aSolver.(CGBASolver); ok && warm != nil {
			res, err = cg.SolveFrom(p, warm, src)
		} else {
			res, err = p2aSolver.Solve(p, src)
		}
		if err != nil {
			t.Fatal(err)
		}
		warm = res.Profile
		best.SolverIterations += res.Iterations
		sel := p.Selection(res.Profile)
		if freq, err = p2b(sel); err != nil {
			t.Fatal(err)
		}
		if obj := objective(sel, freq); obj < best.Objective {
			best.Objective, best.Selection, best.Freq = obj, sel.Clone(), freq.Clone()
		}
	}
	best.Latency = sys.ReducedLatency(best.Selection, best.Freq, st).Value()
	return best
}

// requireSameBDMA fails unless two BDMA results agree bit for bit on every
// decision field.
func requireSameBDMA(t *testing.T, slot int, got, want BDMAResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Selection, want.Selection) {
		t.Fatalf("slot %d: selection diverged from the plain z-round loop", slot)
	}
	for n := range want.Freq {
		if math.Float64bits(float64(got.Freq[n])) != math.Float64bits(float64(want.Freq[n])) {
			t.Fatalf("slot %d: server %d frequency %v, plain %v", slot, n, got.Freq[n], want.Freq[n])
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		math.Float64bits(got.Latency) != math.Float64bits(want.Latency) ||
		got.SolverIterations != want.SolverIterations {
		t.Fatalf("slot %d: (objective %v, latency %v, iterations %d), plain (%v, %v, %d)", slot,
			got.Objective, got.Latency, got.SolverIterations, want.Objective, want.Latency, want.SolverIterations)
	}
}

// replayCase is one configuration of the replay-exit equivalence matrix.
type replayCase struct {
	name   string
	spec   topology.Spec
	rooms  bool
	z      int
	solver P2ASolver
	exits  bool // the exit must fire on some slot (warm-started solvers only)
}

// TestReplayExitMatchesPlainLoop is the replay exit's equivalence
// contract: over 100 churned slots, the production alternation (churned
// scratch, exit on replay) must reproduce a plain z-round loop bit for bit
// at every pool size, for the global and per-room paths, the sharded metro
// solve, and the baselines that never warm-start (where the exit must
// never fire). The exit must actually fire for CGBA, so the property is
// not tested vacuously.
func TestReplayExitMatchesPlainLoop(t *testing.T) {
	const slots, v = 100, 100.0
	small, paper, metro := smallSpec(30), topology.DefaultSpec(150), topology.MetroSpec(60)
	cases := []replayCase{
		{name: "cgba/z=3", spec: small, z: 3, solver: CGBASolver{}, exits: true},
		{name: "cgba/z=5", spec: small, z: 5, solver: CGBASolver{}, exits: true},
		{name: "cgba/z=10", spec: small, z: 10, solver: CGBASolver{}, exits: true},
		{name: "rooms/z=5", spec: small, rooms: true, z: 5, solver: CGBASolver{}, exits: true},
		{name: "paper-pruned/z=5", spec: paper, z: 5, solver: CGBASolver{}, exits: true},
		{name: "metro-sharded/z=3", spec: metro, z: 3, solver: CGBASolver{Lambda: 0.05, Shards: ShardsAuto}, exits: true},
		{name: "mcba/z=3", spec: small, z: 3, solver: MCBASolver{}},
		{name: "ropt/z=3", spec: small, z: 3, solver: RandomSolver{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, gen := buildSpecSystem(t, tc.spec, 31)
			if tc.rooms {
				withRoomBudgets(t, sys, map[int]float64{0: 0.5, 1: 0.4})
			}
			sched, err := trace.NewChurnSchedule(aggressiveChurn(37), sys.Net, gen)
			if err != nil {
				t.Fatal(err)
			}
			states := trace.Record(sched, slots)
			cfg := BDMAConfig{Iterations: tc.z, Solver: tc.solver}
			for _, size := range []int{0, 1, 4} {
				pool := withPool(size)
				reg := obs.New()
				in := solveInstr{
					bdmaRounds:  reg.Counter(MetricBDMARounds),
					bdmaSkipped: reg.Counter(MetricBDMARoundsSkipped),
				}
				scratch := new(P2A)
				for slot, st := range states {
					src := func() *rng.Source { return rng.New(41).Derive(fmt.Sprintf("slot-%d", slot)) }
					q := float64(slot%5) * 30
					var got, want BDMAResult
					if tc.rooms {
						b := roomBudget(t, sys, q, q/2)
						got, err = sys.bdmaScratch(st, v, b, cfg, src(), scratch, in, pool, nil)
						want = plainBDMA(t, sys, st, tc.z, tc.solver, src(),
							func(sel Selection) (Frequencies, error) { return b.stateP2B(sel, st, v) },
							func(sel Selection, freq Frequencies) float64 { return b.stateObjective(sel, freq, st, v) })
					} else {
						got, err = sys.bdmaScratch(st, v, sys.globalBudget(q), cfg, src(), scratch, in, pool, nil)
						want = plainBDMA(t, sys, st, tc.z, tc.solver, src(),
							func(sel Selection) (Frequencies, error) { return sys.SolveP2B(sel, st, v, q) },
							func(sel Selection, freq Frequencies) float64 { return sys.P2Objective(sel, freq, st, v, q) })
					}
					if err != nil {
						t.Fatalf("pool %d slot %d: %v", size, slot, err)
					}
					requireSameBDMA(t, slot, got, want)
				}
				pool.Close()
				rounds := reg.Counter(MetricBDMARounds).Value()
				skipped := reg.Counter(MetricBDMARoundsSkipped).Value()
				if rounds+skipped != int64(slots*tc.z) {
					t.Errorf("pool %d: rounds %d + skipped %d, want %d", size, rounds, skipped, slots*tc.z)
				}
				if tc.exits && skipped == 0 {
					t.Errorf("pool %d: the replay exit never fired; the equivalence was tested vacuously", size)
				}
				if !tc.exits && skipped != 0 {
					t.Errorf("pool %d: %s skipped %d rounds without warm starts", size, tc.solver.Name(), skipped)
				}
			}
		})
	}
}

// TestReplayExitBeatsCountedBudget: a replay exit carries the full z-round
// guarantee. The smallest counted budget that keeps the slot undegraded is
// spent entirely by the executed rounds, so the first skipped round's
// boundary checkpoint would have expired it; the slot must still land on
// RungFull with the undeadlined decision bits.
func TestReplayExitBeatsCountedBudget(t *testing.T) {
	sys, gen := buildSystem(t, 40, 7)
	st := gen.Next()
	const z = 5
	// step decides the slot on a fresh controller under a counted budget
	// (0 = undeadlined) and reports the rounds the replay exit skipped.
	step := func(checks int) (*SlotResult, int64) {
		ctrl, err := NewBDMAController(sys, 110, z, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		ctrl.SetObs(reg)
		ctrl.SetSlotDeadline(0, checks)
		r, err := ctrl.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		return r, reg.Counter(MetricBDMARoundsSkipped).Value()
	}
	want, skipped := step(0)
	if skipped == 0 {
		t.Fatal("the slot never reached its fixed point; the budget case is vacuous")
	}
	// Larger budgets expire later, so the rung is monotone in the budget.
	tight := 1 + sort.Search(1<<16, func(n int) bool {
		r, _ := step(n + 1)
		return r.Rung == RungFull
	})
	if r, _ := step(tight - 1); r.Rung == RungFull {
		t.Fatalf("budget %d - 1 is undegraded; the search is broken", tight)
	}
	got, gotSkipped := step(tight)
	if got.Rung != RungFull || got.Degraded {
		t.Fatalf("budget %d: rung %d, want RungFull", tight, got.Rung)
	}
	if gotSkipped != skipped {
		t.Fatalf("budget %d skipped %d rounds, undeadlined %d", tight, gotSkipped, skipped)
	}
	if !reflect.DeepEqual(stepTraceOf(got), stepTraceOf(want)) {
		t.Fatalf("budget %d: decision diverged from the undeadlined slot", tight)
	}
}
