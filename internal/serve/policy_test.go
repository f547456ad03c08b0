package serve_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"eotora/internal/policy"
	"eotora/internal/serve"
	"eotora/internal/trace"
)

// newPolicy builds the named policy over a fresh fixture system with the
// shared test game parameters.
func newPolicy(t testing.TB, name string, devices int, seed int64) (policy.Policy, *trace.Generator) {
	t.Helper()
	sys, gen := buildSystem(t, devices, seed)
	pol, err := policy.New(name, sys, policy.Config{V: 120, Rounds: 3, Lambda: 0.05, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	return pol, gen
}

// TestDaemonBaselinePolicy: the daemon boots and streams with a baseline
// policy — no degradation ladder, no budgets — and its decisions match
// the same policy driven directly over the same states.
func TestDaemonBaselinePolicy(t *testing.T) {
	polA, genA := newPolicy(t, policy.GreedyEnergy, 12, 31)
	polB, genB := newPolicy(t, policy.GreedyEnergy, 12, 31)

	daemon, err := serve.NewDaemon(polB, genB.Next(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}

	prev := genA.Next()
	res, err := polA.Decide(1, prev)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := daemon.Tick()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDecision(t, dec, res)
	for slot := 2; slot <= 8; slot++ {
		next := genA.Next()
		res, err := polA.Decide(slot, next)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDecision(t, stream(t, daemon, prev, next), res)
		prev = next
	}
	if st := daemon.Status(); st.Slot != 8 || st.Backlog != polA.Backlog() {
		t.Errorf("status slot %d backlog %v, want 8/%v", st.Slot, st.Backlog, polA.Backlog())
	}
}

// TestDaemonBaselineBudgetsRejected: slot budgets and escalation need the
// degradation ladder (policy.DeadlineSetter); constructing a daemon that
// couples them with a capability-less baseline must fail loudly instead
// of silently never degrading.
func TestDaemonBaselineBudgetsRejected(t *testing.T) {
	cfgs := map[string]serve.Config{
		"slot deadline":     {SlotDeadline: time.Second},
		"slot checks":       {SlotChecks: 100},
		"escalate deadline": {EscalateDeadline: time.Second},
		"escalate checks":   {EscalateChecks: 50},
	}
	for name, cfg := range cfgs {
		pol, gen := newPolicy(t, policy.EdgeOnly, 8, 5)
		if _, err := serve.NewDaemon(pol, gen.Next(), cfg); err == nil {
			t.Errorf("%s: accepted for a policy with no slot-deadline capability", name)
		} else if !strings.Contains(err.Error(), policy.EdgeOnly) {
			t.Errorf("%s: error %q does not name the policy", name, err)
		}
	}
	// The bdma family keeps the capability.
	pol, gen := newPolicy(t, policy.BDMATuned, 8, 5)
	if _, err := serve.NewDaemon(pol, gen.Next(), serve.Config{SlotChecks: 1 << 30}); err != nil {
		t.Errorf("budgets rejected for bdma-tuned: %v", err)
	}
}

// TestBaselineSnapshotRestore: kill/restore with a baseline policy — the
// snapshot carries the policy name in the Solver field, restores into an
// identically configured daemon, and the stitched decision sequence is
// bit-identical to an uninterrupted run.
func TestBaselineSnapshotRestore(t *testing.T) {
	const slots, killAt = 10, 5
	run := func() ([]*serve.Decision, *serve.Daemon, *trace.Generator, *trace.State) {
		pol, gen := newPolicy(t, policy.GreedyDeadline, 10, 41)
		prev := gen.Next()
		d, err := serve.NewDaemon(pol, prev, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		dec, err := d.Tick()
		if err != nil {
			t.Fatal(err)
		}
		return []*serve.Decision{dec}, d, gen, prev
	}

	reference, daemonA, genA, prevA := run()
	for slot := 2; slot <= slots; slot++ {
		next := genA.Next()
		reference = append(reference, stream(t, daemonA, prevA, next))
		prevA = next
	}

	got, daemonB, genB, prevB := run()
	for slot := 2; slot <= killAt; slot++ {
		next := genB.Next()
		got = append(got, stream(t, daemonB, prevB, next))
		prevB = next
	}
	var buf bytes.Buffer
	if err := daemonB.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := serve.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Controller.Solver != policy.GreedyDeadline {
		t.Fatalf("snapshot solver %q, want the policy name", snap.Controller.Solver)
	}

	polC, genC := newPolicy(t, policy.GreedyDeadline, 10, 41)
	daemonC, err := serve.NewDaemon(polC, genC.Next(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := daemonC.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for slot := killAt + 1; slot <= slots; slot++ {
		next := genB.Next()
		got = append(got, stream(t, daemonC, prevB, next))
		prevB = next
	}
	if len(got) != len(reference) {
		t.Fatalf("stitched run has %d decisions, want %d", len(got), len(reference))
	}
	for i := range got {
		requireSameDecisions(t, got[i], reference[i])
	}
	// A baseline daemon must refuse a tuner snapshot: the Extra state has
	// no owner there.
	snap.Controller.Extra = map[string]float64{"tuner_lambda": 0.1}
	if err := daemonC.Restore(snap); err == nil {
		t.Error("baseline daemon restored a checkpoint with tuner state")
	}
}

// TestTunerSnapshotRoundTrip: the tuner's Extra state survives the JSON
// wire format (WriteSnapshot → ReadSnapshot) and the restored daemon
// continues bit-identically — with a window small enough that the knobs
// have already moved before the kill.
func TestTunerSnapshotRoundTrip(t *testing.T) {
	const slots, killAt = 12, 7
	build := func() (policy.Policy, *trace.Generator) {
		sys, gen := buildSystem(t, 10, 43)
		pol, err := policy.New(policy.BDMATuned, sys, policy.Config{
			V: 120, Rounds: 3, Lambda: 0.05, Seed: 17,
			Tuner: policy.TunerConfig{Window: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		return pol, gen
	}

	polA, genA := build()
	prevA := genA.Next()
	daemonA, err := serve.NewDaemon(polA, prevA, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := daemonA.Tick()
	if err != nil {
		t.Fatal(err)
	}
	reference := []*serve.Decision{dec}
	for slot := 2; slot <= slots; slot++ {
		next := genA.Next()
		reference = append(reference, stream(t, daemonA, prevA, next))
		prevA = next
	}

	polB, genB := build()
	prevB := genB.Next()
	daemonB, err := serve.NewDaemon(polB, prevB, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err = daemonB.Tick()
	if err != nil {
		t.Fatal(err)
	}
	got := []*serve.Decision{dec}
	for slot := 2; slot <= killAt; slot++ {
		next := genB.Next()
		got = append(got, stream(t, daemonB, prevB, next))
		prevB = next
	}
	var buf bytes.Buffer
	if err := daemonB.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := serve.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Controller.Extra) == 0 {
		t.Fatal("tuner snapshot lost the Extra state on the wire")
	}

	polC, genC := build()
	daemonC, err := serve.NewDaemon(polC, genC.Next(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := daemonC.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for slot := killAt + 1; slot <= slots; slot++ {
		next := genB.Next()
		got = append(got, stream(t, daemonC, prevB, next))
		prevB = next
	}
	for i := range got {
		requireSameDecisions(t, got[i], reference[i])
	}
}
