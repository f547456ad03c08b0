package policy

import (
	"math"
	"reflect"
	"testing"

	"eotora/internal/core"
	"eotora/internal/obs"
	"eotora/internal/trace"
)

// newTestTuner builds a tuner over a small system with an explicit
// schedule, returning both for direct adapt() driving.
func newTestTuner(t *testing.T, cfg TunerConfig) *Tuner {
	t.Helper()
	sys, _ := buildSystem(t, testSpec(8), 11)
	ctrl, err := core.NewBDMAController(sys, 100, 2, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTuner(ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// window feeds one synthetic window of statistics through adapt().
func (t *Tuner) window(avgBacklog, avgIters float64) {
	t.winN = t.cfg.Window
	t.winBacklog = avgBacklog * float64(t.cfg.Window)
	t.winIters = avgIters * float64(t.cfg.Window)
	t.adapt()
}

func TestNewTunerValidation(t *testing.T) {
	if _, err := NewTuner(nil, TunerConfig{}); err == nil {
		t.Error("nil controller accepted")
	}
	sys, _ := buildSystem(t, testSpec(8), 11)
	mcba, err := core.NewMCBAController(sys, 100, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTuner(mcba, TunerConfig{}); err == nil {
		t.Error("non-CGBA controller accepted")
	}
	bad := []TunerConfig{
		{LambdaStart: 0.2},                      // ≥ the 1/8 CGBA bound
		{LambdaStart: 0.02, LambdaTarget: 0.05}, // coarse below the target
		{LambdaStart: 0.1, LambdaTarget: -0.01}, // negative target
		{LambdaStart: 0.1, LambdaTarget: 0.125}, // target at the bound
	}
	for _, cfg := range bad {
		ctrl, err := core.NewBDMAController(sys, 100, 2, 0.05, 11)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewTuner(ctrl, cfg); err == nil {
			t.Errorf("λ schedule %v → %v accepted", cfg.LambdaStart, cfg.LambdaTarget)
		}
	}
}

// TestTunerVAdaptation drives the V control law through its bands: the
// first window only calibrates the backlog reference; later windows
// lower V multiplicatively above BacklogHigh×ref, raise it below
// BacklogLow×ref, hold it inside the band, and clamp at [VMin, VMax].
func TestTunerVAdaptation(t *testing.T) {
	tn := newTestTuner(t, TunerConfig{LambdaStart: 0.1, LambdaTarget: 0.05, VStep: 2, VMin: 50, VMax: 200})
	reg := obs.New()
	tn.SetObs(reg)
	v0 := tn.V()

	tn.window(10, 1000) // calibrate: ref = 10
	if tn.V() != v0 {
		t.Fatalf("calibration window moved V to %v", tn.V())
	}
	tn.window(25, 1000) // 25 > 2×10 → lower
	if tn.V() != v0/2 {
		t.Fatalf("high-backlog window: V = %v, want %v", tn.V(), v0/2)
	}
	tn.window(25, 1000) // lower again, clamped at VMin=50
	if tn.V() != 50 {
		t.Fatalf("VMin clamp: V = %v, want 50", tn.V())
	}
	tn.window(2, 1000) // 2 < 0.5×10 → raise
	if tn.V() != 100 {
		t.Fatalf("low-backlog window: V = %v, want 100", tn.V())
	}
	tn.window(10, 1000) // inside the band → hold
	if tn.V() != 100 {
		t.Fatalf("in-band window moved V to %v", tn.V())
	}
	tn.window(2, 1000)
	tn.window(2, 1000) // raise, clamped at VMax=200
	if tn.V() != 200 {
		t.Fatalf("VMax clamp: V = %v, want 200", tn.V())
	}
	// At-the-clamp windows take no step, so the counters see one lower
	// (100→50; the second was already at VMin) and two raises (50→100→200).
	snap := reg.Snapshot()
	if snap.Counters[MetricTunerVLowered] != 1 || snap.Counters[MetricTunerVRaised] != 2 {
		t.Errorf("step counters lowered=%d raised=%d, want 1/2",
			snap.Counters[MetricTunerVLowered], snap.Counters[MetricTunerVRaised])
	}
}

// TestTunerLambdaRefinement: stable iteration EMAs halve λ's gap to the
// target per window until it snaps onto the target exactly; an unstable
// EMA holds the schedule.
func TestTunerLambdaRefinement(t *testing.T) {
	tn := newTestTuner(t, TunerConfig{LambdaStart: 0.1, LambdaTarget: 0.05})
	reg := obs.New()
	tn.SetObs(reg)

	tn.window(10, 1000) // calibration; no prevEma yet
	if tn.lambda != 0.1 {
		t.Fatalf("λ moved during calibration: %v", tn.lambda)
	}
	tn.window(10, 400) // EMA jumps 1000→700: unstable, hold
	if tn.lambda != 0.1 {
		t.Fatalf("unstable window refined λ to %v", tn.lambda)
	}
	tn.window(10, 700) // EMA holds at 700: refine one step
	if math.Abs(tn.lambda-0.075) > 1e-12 {
		t.Fatalf("first refinement: λ = %v, want 0.075", tn.lambda)
	}
	for i := 0; i < 20 && !tn.refined; i++ {
		tn.window(10, 700)
	}
	if !tn.refined || tn.lambda != 0.05 {
		t.Fatalf("schedule never converged: refined=%v λ=%v", tn.refined, tn.lambda)
	}
	before := reg.Snapshot().Counters[MetricTunerRefined]
	tn.window(10, 700) // refined: no further steps
	if got := reg.Snapshot().Counters[MetricTunerRefined]; got != before {
		t.Errorf("refinement counter moved after convergence: %d → %d", before, got)
	}
}

// TestTunerLambdaZeroTarget: the default target (the exact equilibrium,
// λ = 0) is reachable — the snap threshold must close the gap rather
// than asymptote above zero.
func TestTunerLambdaZeroTarget(t *testing.T) {
	tn := newTestTuner(t, TunerConfig{LambdaStart: 0.1})
	tn.window(10, 1000)
	for i := 0; i < 30 && !tn.refined; i++ {
		tn.window(10, 1000)
	}
	if !tn.refined || tn.lambda != 0 {
		t.Fatalf("zero target never reached: refined=%v λ=%v", tn.refined, tn.lambda)
	}
}

// TestTunerCheckpointRestore: a tuner restored mid-run — mid-window, so
// the partial window statistics matter — resumes the exact decision and
// knob trajectory of an uninterrupted run.
func TestTunerCheckpointRestore(t *testing.T) {
	const slots, cut = 14, 6 // Window 4: the cut lands mid-window
	cfg := Config{V: 90, Rounds: 2, Lambda: 0.05, Seed: 5, Tuner: TunerConfig{Window: 4}}
	build := func() (Policy, []*trace.State) {
		sys, gen := buildSystem(t, testSpec(10), 5)
		p, err := New(BDMATuned, sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p, trace.Record(gen, slots)
	}

	pa, states := build()
	want := decide(t, pa, states)

	pb, _ := build()
	decide(t, pb, states[:cut])
	cp := pb.Checkpoint()
	if len(cp.Extra) == 0 {
		t.Fatal("tuner checkpoint carries no Extra state")
	}

	pc, _ := build()
	if err := pc.Restore(cp); err != nil {
		t.Fatal(err)
	}
	got := decide(t, pc, states[cut:])
	if !reflect.DeepEqual(got, want[cut:]) {
		t.Error("restored tuner diverged from the uninterrupted run")
	}
	if pcT, paT := pc.(*Tuner), pa.(*Tuner); pcT.lambda != paT.lambda || pcT.V() != paT.V() {
		t.Errorf("knobs diverged: λ %v vs %v, V %v vs %v",
			pcT.lambda, paT.lambda, pcT.V(), paT.V())
	}

	// Restore guards: a plain-bdma checkpoint (no Extra) and an Extra map
	// without the λ key must both fail.
	plain := cp
	plain.Extra = nil
	if err := pc.Restore(plain); err == nil {
		t.Error("tuner accepted a checkpoint without tuner state")
	}
	missing := cp
	missing.Extra = map[string]float64{"tuner_refined": 1}
	if err := pc.Restore(missing); err == nil {
		t.Error("tuner accepted tuner state without λ")
	}
	// A checkpoint the controller rejects leaves the knobs as they were.
	before := pc.Checkpoint()
	foreign := cp
	foreign.V, foreign.Seed = 123, 99
	foreign.Extra = map[string]float64{"tuner_lambda": 0.01}
	if err := pc.Restore(foreign); err == nil {
		t.Error("tuner accepted a checkpoint of another seed")
	}
	if after := pc.Checkpoint(); !reflect.DeepEqual(after, before) {
		t.Errorf("rejected restore moved the tuner: %+v → %+v", before, after)
	}
}

// TestTunerCoarseWindowMatchesPlainController: until its first window
// closes the tuner changes nothing but λ, so it decides exactly like a
// plain controller at the coarse λ.
func TestTunerCoarseWindowMatchesPlainController(t *testing.T) {
	sys, gen := buildSystem(t, testSpec(8), 11)
	ctrl, err := core.NewBDMAController(sys, 100, 2, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := core.NewBDMAController(sys, 100, 2, 0.05, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.SetLambda(0.1); err != nil {
		t.Fatal(err)
	}
	tn, err := NewTuner(ctrl, TunerConfig{LambdaStart: 0.1, LambdaTarget: 0.05, Window: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	// With an unreachable window boundary the tuner holds the coarse λ, so
	// its slots must be bit-identical to a plain controller at λ = 0.1,
	// iteration counts included.
	states := trace.Record(gen, 6)
	var want []decisionKey
	for _, st := range states {
		r, err := ref.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, keyOf(r))
	}
	if got := decide(t, tn, states); !reflect.DeepEqual(got, want) {
		t.Error("coarse-window tuner diverged from a plain λ=0.1 controller")
	}
}
