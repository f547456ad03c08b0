package core

import (
	"fmt"
	"testing"

	"eotora/internal/obs"
	"eotora/internal/trace"
)

// TestControllerObsRecording checks that an instrumented controller fills
// every instrument with the expected volumes, at z = 2 and at z = 5 where
// the replay exit skips rounds.
func TestControllerObsRecording(t *testing.T) {
	for _, z := range []int{2, 5} {
		t.Run(fmt.Sprintf("z=%d", z), func(t *testing.T) { testControllerObsRecording(t, z) })
	}
}

func testControllerObsRecording(t *testing.T, z int) {
	sys, gen := buildSystem(t, 25, 3)
	const slots = 5
	ctrl, err := NewBDMAController(sys, 100, z, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	ctrl.SetObs(reg)
	if ctrl.obs != reg {
		t.Fatal("SetObs did not attach the registry")
	}
	states := trace.Record(gen, slots)
	for _, st := range states {
		if _, err := ctrl.Step(st); err != nil {
			t.Fatal(err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters[MetricSlots]; got != slots {
		t.Errorf("%s = %d, want %d", MetricSlots, got, slots)
	}
	// Every one of the z rounds is either executed or skipped by the
	// replay exit, which must fire somewhere once rounds remain after it.
	rounds, skipped := snap.Counters[MetricBDMARounds], snap.Counters[MetricBDMARoundsSkipped]
	if rounds+skipped != int64(slots*z) {
		t.Errorf("%s %d + %s %d, want %d", MetricBDMARounds, rounds, MetricBDMARoundsSkipped, skipped, slots*z)
	}
	if z > 2 && skipped == 0 {
		t.Errorf("%s = 0: no slot reached its fixed point within z = %d", MetricBDMARoundsSkipped, z)
	}
	// Every executed BDMA round runs up to one P2-B solve per server
	// (unloaded servers with Q = 0 take the F^L shortcut without a 1-D
	// solve) and exactly one CGBA solve.
	servers := len(sys.Net.Servers)
	p2bSolves := snap.Counters[MetricP2BSolves]
	if p2bSolves == 0 || p2bSolves > rounds*int64(servers) {
		t.Errorf("%s = %d, want in (0, %d]", MetricP2BSolves, p2bSolves, rounds*int64(servers))
	}
	if got := snap.Counters[MetricCGBASolves]; got != rounds {
		t.Errorf("%s = %d, want %d", MetricCGBASolves, got, rounds)
	}
	for _, name := range []string{
		MetricDecisionSeconds, MetricLatencySeconds, MetricTheta, MetricBacklog,
	} {
		if h := snap.Histograms[name]; h.Count != slots {
			t.Errorf("histogram %s count = %d, want %d", name, h.Count, slots)
		}
	}
	if h := snap.Histograms[MetricBDMABestRound]; h.Count != slots || h.Min < 1 || h.Max > float64(z) {
		t.Errorf("%s = %+v, want %d observations in [1, %d]", MetricBDMABestRound, h, slots, z)
	}
	if h := snap.Histograms[MetricCGBAIterations]; h.Count != rounds {
		t.Errorf("%s count = %d, want %d", MetricCGBAIterations, h.Count, rounds)
	}
	if h := snap.Histograms[MetricP2BIterations]; h.Count != p2bSolves {
		t.Errorf("%s count = %d, want one observation per solve (%d)", MetricP2BIterations, h.Count, p2bSolves)
	}
	// The engine must have recorded its scores. The unsharded sweep
	// skips nobody, so it records no cache hits.
	if snap.Counters[MetricCacheMisses] == 0 {
		t.Error("no cache misses recorded — score path not instrumented")
	}
	if snap.Gauges[MetricBacklogNow] != ctrl.Backlog() {
		t.Errorf("%s = %g, want current backlog %g",
			MetricBacklogNow, snap.Gauges[MetricBacklogNow], ctrl.Backlog())
	}

	// Detaching stops recording.
	ctrl.SetObs(nil)
	if _, err := ctrl.Step(states[0]); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricSlots).Value(); got != slots {
		t.Errorf("detached controller still recorded: slots = %d", got)
	}
}

// TestObsDoesNotPerturbDecisions is the observability contract: an
// instrumented controller reproduces the uninstrumented controller's
// decisions bit-for-bit.
func TestObsDoesNotPerturbDecisions(t *testing.T) {
	sysA, genA := buildSystem(t, 8, 7)
	sysB, genB := buildSystem(t, 8, 7)
	plain, err := NewBDMAController(sysA, 100, 2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := NewBDMAController(sysB, 100, 2, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	instrumented.SetObs(obs.New())
	for s := 0; s < 5; s++ {
		stA, stB := genA.Next(), genB.Next()
		a, err := plain.Step(stA)
		if err != nil {
			t.Fatal(err)
		}
		b, err := instrumented.Step(stB)
		if err != nil {
			t.Fatal(err)
		}
		if a.Latency != b.Latency || a.EnergyCost != b.EnergyCost ||
			a.Theta != b.Theta || a.Backlog != b.Backlog || a.Objective != b.Objective {
			t.Fatalf("slot %d diverged under instrumentation:\nplain %+v\nobs   %+v", s, a, b)
		}
		for i := range a.Decision.Selection.Station {
			if a.Decision.Selection.Station[i] != b.Decision.Selection.Station[i] ||
				a.Decision.Selection.Server[i] != b.Decision.Selection.Server[i] {
				t.Fatalf("slot %d device %d selection diverged", s, i)
			}
		}
	}
}

// TestMCBAInstrumented covers the MCBA walk-length instrument.
func TestMCBAInstrumented(t *testing.T) {
	sys, gen := buildSystem(t, 6, 4)
	ctrl, err := NewMCBAController(sys, 100, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	ctrl.SetObs(reg)
	if _, err := ctrl.Step(gen.Next()); err != nil {
		t.Fatal(err)
	}
	if h := reg.Snapshot().Histograms[MetricMCBAIterations]; h.Count != 1 || h.Sum <= 0 {
		t.Errorf("%s = %+v, want one positive observation", MetricMCBAIterations, h)
	}
}
