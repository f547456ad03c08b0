package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"eotora/internal/trace"
)

// TestRuleController: a rule controller is named after its rule, rejects
// unknown rules, and refuses the CGBA-only knobs.
func TestRuleController(t *testing.T) {
	sys, _ := buildSystem(t, 5, 62)
	if _, err := NewRuleController(sys, "bdma", 50, 0, 1); err == nil || !strings.Contains(err.Error(), "not a selection rule") {
		t.Errorf("unknown rule: error %v", err)
	}
	for _, r := range selectionRules {
		c, err := NewRuleController(sys, r.name, 50, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != r.name || c.SolverName() != r.name {
			t.Errorf("%s: Name %q, SolverName %q", r.name, c.Name(), c.SolverName())
		}
		if err := c.SetLambda(0.05); err == nil {
			t.Errorf("%s: SetLambda accepted", r.name)
		}
		if err := c.SetShards(ShardsAuto); err == nil {
			t.Errorf("%s: SetShards accepted", r.name)
		}
	}
}

// TestGreedyRungMatchesGreedyEnergy: a slot budget that expires before
// BDMA round 0 completes sends a fresh controller down the ladder to
// RungGreedy, whose decision is greedy-energy's on the same state —
// selection, Ω^L, reduced latency, objective and queue update alike.
func TestGreedyRungMatchesGreedyEnergy(t *testing.T) {
	sys, gen := buildSystem(t, 30, 63)
	sched, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(63), sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	// greedyStep finds the counted budget that lets round 0's CGBA solve
	// finish and expires at P2-B's entry checkpoint, so round 0 never
	// completes and the fresh controller has no previous decision.
	greedyStep := func(st *trace.State) *SlotResult {
		for checks := 1; checks <= 64; checks++ {
			ctrl, err := NewController(sys, ControllerConfig{V: 80, InitialBacklog: 4, BDMA: BDMAConfig{Iterations: 3}, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			ctrl.SetSlotDeadline(0, checks)
			res, err := ctrl.Step(st)
			if err != nil {
				t.Fatal(err)
			}
			if res.Rung == RungGreedy {
				return res
			}
		}
		t.Fatal("no counted budget decided at RungGreedy")
		return nil
	}
	for i, st := range trace.Record(sched, 6) {
		got := greedyStep(st)
		rule, err := NewRuleController(sys, "greedy-energy", 80, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := rule.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Decision, want.Decision) {
			t.Fatalf("state %d: ladder decision differs from greedy-energy's", i)
		}
		gotT := sys.ReducedLatency(got.Decision.Selection, got.Decision.Freq, st).Value()
		wantT := sys.ReducedLatency(want.Decision.Selection, want.Decision.Freq, st).Value()
		for what, pair := range map[string][2]float64{
			"reduced latency": {gotT, wantT},
			"latency":         {got.Latency.Value(), want.Latency.Value()},
			"objective":       {got.Objective, want.Objective},
			"theta":           {got.Theta, want.Theta},
			"backlog":         {got.Backlog, want.Backlog},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Errorf("state %d: %s %v, greedy-energy %v", i, what, pair[0], pair[1])
			}
		}
	}
}
