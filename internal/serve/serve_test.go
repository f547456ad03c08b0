package serve_test

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"eotora/internal/core"
	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/serve"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// buildSystem constructs a small test system plus a matching state
// generator, mirroring the core package's test fixture: the budget sits
// midway between the all-min and all-max frequency cost so it is feasible
// but binding.
func buildSystem(t testing.TB, devices int, seed int64) (*core.System, *trace.Generator) {
	t.Helper()
	spec := topology.DefaultSpec(devices)
	spec.Stations = 3
	spec.UmbrellaStations = 1
	spec.ServersPerRoom = 2
	src := rng.New(seed)
	net, err := topology.Generate(spec, src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	models := core.DefaultEnergyModels(len(net.Servers), src.Derive("energy"))
	sys, err := core.NewSystem(net, models, 3600, 1)
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

// testChurn is a churn regime hot enough that a short run exercises joins,
// leaves, handovers, and server add/remove through the streaming path.
func testChurn(seed int64) trace.ChurnConfig {
	return trace.ChurnConfig{
		Seed:                  seed,
		DeviceJoinProb:        0.30,
		DeviceLeaveProb:       0.30,
		HandoverProb:          0.20,
		ServerRemoveProb:      0.25,
		ServerAddProb:         0.25,
		MinActiveDevices:      1,
		InitialActiveFraction: 0.8,
	}
}

// newController builds a controller over sys with the fixed test game
// parameters shared by every equivalence run in this file.
func newController(t testing.TB, sys *core.System) *core.Controller {
	t.Helper()
	ctrl, err := core.NewBDMAController(sys, 120, 3, 0.05, 17)
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// requireSameDecision asserts the daemon decision matches the batch slot
// result bit for bit on every solver-visible output.
func requireSameDecision(t *testing.T, dec *serve.Decision, res *core.SlotResult) {
	t.Helper()
	if dec.Slot != res.Slot {
		t.Fatalf("daemon slot %d, batch slot %d", dec.Slot, res.Slot)
	}
	if dec.Rung != res.Rung || dec.Degraded != res.Degraded {
		t.Fatalf("slot %d: daemon rung %d (degraded %v), batch rung %d (degraded %v)",
			dec.Slot, dec.Rung, dec.Degraded, res.Rung, res.Degraded)
	}
	if math.Float64bits(dec.Backlog) != math.Float64bits(res.Backlog) {
		t.Fatalf("slot %d: daemon backlog %v, batch %v", dec.Slot, dec.Backlog, res.Backlog)
	}
	if math.Float64bits(dec.LatencySeconds) != math.Float64bits(res.Latency.Value()) {
		t.Fatalf("slot %d: daemon latency %v, batch %v", dec.Slot, dec.LatencySeconds, res.Latency.Value())
	}
	if math.Float64bits(dec.EnergyCostUSD) != math.Float64bits(res.EnergyCost.Dollars()) {
		t.Fatalf("slot %d: daemon cost %v, batch %v", dec.Slot, dec.EnergyCostUSD, res.EnergyCost.Dollars())
	}
	if math.Float64bits(dec.Objective) != math.Float64bits(res.Objective) {
		t.Fatalf("slot %d: daemon objective %v, batch %v", dec.Slot, dec.Objective, res.Objective)
	}
	if len(dec.Station) != len(res.Decision.Station) || len(dec.Server) != len(res.Decision.Server) {
		t.Fatalf("slot %d: decision dims differ", dec.Slot)
	}
	for i := range dec.Station {
		if dec.Station[i] != res.Decision.Station[i] || dec.Server[i] != res.Decision.Server[i] {
			t.Fatalf("slot %d: device %d daemon (%d, %d), batch (%d, %d)", dec.Slot, i,
				dec.Station[i], dec.Server[i], res.Decision.Station[i], res.Decision.Server[i])
		}
	}
	for n := range dec.FreqHz {
		if math.Float64bits(dec.FreqHz[n]) != math.Float64bits(float64(res.Decision.Freq[n])) {
			t.Fatalf("slot %d: server %d daemon freq %v, batch %v", dec.Slot, n,
				dec.FreqHz[n], float64(res.Decision.Freq[n]))
		}
	}
}

// requireSameDecisions asserts two daemon decisions are bit-identical.
func requireSameDecisions(t *testing.T, a, b *serve.Decision) {
	t.Helper()
	if a.Slot != b.Slot || a.Rung != b.Rung || a.Degraded != b.Degraded {
		t.Fatalf("decisions differ: slot %d rung %d vs slot %d rung %d", a.Slot, a.Rung, b.Slot, b.Rung)
	}
	if math.Float64bits(a.Backlog) != math.Float64bits(b.Backlog) ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) ||
		math.Float64bits(a.LatencySeconds) != math.Float64bits(b.LatencySeconds) ||
		math.Float64bits(a.EnergyCostUSD) != math.Float64bits(b.EnergyCostUSD) {
		t.Fatalf("slot %d: scalar outputs differ: backlog (%v, %v), objective (%v, %v)",
			a.Slot, a.Backlog, b.Backlog, a.Objective, b.Objective)
	}
	for i := range a.Station {
		if a.Station[i] != b.Station[i] || a.Server[i] != b.Server[i] {
			t.Fatalf("slot %d: device %d decisions diverge", a.Slot, i)
		}
	}
	for n := range a.FreqHz {
		if math.Float64bits(a.FreqHz[n]) != math.Float64bits(b.FreqHz[n]) {
			t.Fatalf("slot %d: server %d frequencies diverge", a.Slot, n)
		}
	}
}

// stream drives one daemon slot from the diff of two consecutive states:
// ingest the event batch, tick, return the decision.
func stream(t *testing.T, d *serve.Daemon, prev, next *trace.State) *serve.Decision {
	t.Helper()
	events := serve.DiffStates(prev, next)
	if accepted, shed := d.Ingest(events); shed != 0 || accepted != len(events) {
		t.Fatalf("ingest accepted %d, shed %d of %d", accepted, shed, len(events))
	}
	dec, err := d.Tick()
	if err != nil {
		t.Fatal(err)
	}
	return dec
}

// TestDaemonMatchesBatchRun is the serve-mode equivalence invariant: a
// daemon initialized at β_1 and fed DiffStates batches of each consecutive
// state pair reproduces the batch controller's decision sequence bit for
// bit.
func TestDaemonMatchesBatchRun(t *testing.T) {
	sysA, genA := buildSystem(t, 12, 31)
	sysB, genB := buildSystem(t, 12, 31)
	batch := newController(t, sysA)
	// Same seed, so genB's β_1 is bitwise the state genA yields first; the
	// daemon never consumes genB again — diffs come from genA's sequence.
	daemon, err := serve.NewDaemon(newController(t, sysB), genB.Next(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prev := genA.Next()
	res, err := batch.Step(prev)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := daemon.Tick()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDecision(t, dec, res)
	for slot := 2; slot <= 10; slot++ {
		next := genA.Next()
		res, err := batch.Step(next)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDecision(t, stream(t, daemon, prev, next), res)
		prev = next
	}
}

// TestDaemonMatchesBatchRunChurn repeats the equivalence run through an
// aggressive churn schedule, so joins, leaves, handovers, and server
// add/remove all cross the streaming path as mask events.
func TestDaemonMatchesBatchRunChurn(t *testing.T) {
	sysA, genA := buildSystem(t, 12, 33)
	sysB, genB := buildSystem(t, 12, 33)
	schedA, err := trace.NewChurnSchedule(testChurn(7), sysA.Net, genA)
	if err != nil {
		t.Fatal(err)
	}
	schedB, err := trace.NewChurnSchedule(testChurn(7), sysB.Net, genB)
	if err != nil {
		t.Fatal(err)
	}
	batch := newController(t, sysA)
	prevB := schedB.Next()
	daemon, err := serve.NewDaemon(newController(t, sysB), prevB, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prevA := schedA.Next()
	res, err := batch.Step(prevA)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := daemon.Tick()
	if err != nil {
		t.Fatal(err)
	}
	requireSameDecision(t, dec, res)
	for slot := 2; slot <= 12; slot++ {
		nextA, nextB := schedA.Next(), schedB.Next()
		res, err := batch.Step(nextA)
		if err != nil {
			t.Fatal(err)
		}
		requireSameDecision(t, stream(t, daemon, prevB, nextB), res)
		prevA, prevB = nextA, nextB
	}
}

// TestSnapshotRestoreBitIdentity is the kill/restore drill: run one daemon
// uninterrupted, kill a twin mid-run (snapshot — with events already
// pending in the queue), restore the snapshot into a fresh daemon, and
// assert the stitched decision sequence is bit-identical to the
// uninterrupted one — at every pool size, with churn and a counted slot
// budget armed so the RungPrevious continuity state crosses the restart
// too.
func TestSnapshotRestoreBitIdentity(t *testing.T) {
	const slots, killAt = 12, 6
	cfg := serve.Config{SlotChecks: 1 << 30}
	for _, workers := range []int{0, 1, 4} {
		// Uninterrupted reference run.
		sysA, genA := buildSystem(t, 12, 37)
		schedA, err := trace.NewChurnSchedule(testChurn(11), sysA.Net, genA)
		if err != nil {
			t.Fatal(err)
		}
		ctrlA := newController(t, sysA)
		if workers > 0 {
			pool := par.New(workers)
			defer pool.Close()
			ctrlA.SetPool(pool)
		}
		prevA := schedA.Next()
		daemonA, err := serve.NewDaemon(ctrlA, prevA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reference := make([]*serve.Decision, 0, slots)
		dec, err := daemonA.Tick()
		if err != nil {
			t.Fatal(err)
		}
		reference = append(reference, dec)
		for slot := 2; slot <= slots; slot++ {
			next := schedA.Next()
			reference = append(reference, stream(t, daemonA, prevA, next))
			prevA = next
		}

		// Interrupted run: identical through killAt, then snapshot with the
		// next slot's events already queued, restore into a fresh daemon,
		// and continue the same stream.
		sysB, genB := buildSystem(t, 12, 37)
		schedB, err := trace.NewChurnSchedule(testChurn(11), sysB.Net, genB)
		if err != nil {
			t.Fatal(err)
		}
		ctrlB := newController(t, sysB)
		if workers > 0 {
			pool := par.New(workers)
			defer pool.Close()
			ctrlB.SetPool(pool)
		}
		prevB := schedB.Next()
		daemonB, err := serve.NewDaemon(ctrlB, prevB, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*serve.Decision, 0, slots)
		dec, err = daemonB.Tick()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dec)
		for slot := 2; slot <= killAt; slot++ {
			next := schedB.Next()
			got = append(got, stream(t, daemonB, prevB, next))
			prevB = next
		}
		// Queue slot killAt+1's events, then kill: the pending batch must
		// survive the snapshot and decide the first restored slot.
		next := schedB.Next()
		if _, shed := daemonB.Ingest(serve.DiffStates(prevB, next)); shed != 0 {
			t.Fatal("unexpected shed while queueing the pending batch")
		}
		prevB = next
		var buf bytes.Buffer
		if err := daemonB.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := serve.ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}

		sysC, genC := buildSystem(t, 12, 37)
		ctrlC := newController(t, sysC)
		if workers > 0 {
			pool := par.New(workers)
			defer pool.Close()
			ctrlC.SetPool(pool)
		}
		daemonC, err := serve.NewDaemon(ctrlC, genC.Next(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := daemonC.Restore(snap); err != nil {
			t.Fatal(err)
		}
		dec, err = daemonC.Tick() // decides killAt+1 from the restored queue
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dec)
		for slot := killAt + 2; slot <= slots; slot++ {
			next := schedB.Next()
			got = append(got, stream(t, daemonC, prevB, next))
			prevB = next
		}

		if len(got) != len(reference) {
			t.Fatalf("workers %d: %d decisions, reference %d", workers, len(got), len(reference))
		}
		for i := range reference {
			requireSameDecisions(t, reference[i], got[i])
		}
	}
}

// TestBackpressureShedAccounting overloads a tiny queue and asserts the
// bound holds with exact shed accounting: accepted + shed always equals
// sent, the queue never exceeds its cap, and draining reopens admission.
func TestBackpressureShedAccounting(t *testing.T) {
	sys, gen := buildSystem(t, 8, 41)
	daemon, err := serve.NewDaemon(newController(t, sys), gen.Next(), serve.Config{QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]serve.Event, 200)
	for i := range events {
		events[i] = serve.Event{Kind: serve.KindPrice, Value: 50 + float64(i)}
	}
	accepted, shed := daemon.Ingest(events)
	if accepted != 64 || shed != 136 {
		t.Fatalf("accepted %d, shed %d; want 64, 136", accepted, shed)
	}
	st := daemon.Status()
	if st.QueueDepth != 64 || st.EventsIngested != 64 || st.EventsShed != 136 {
		t.Fatalf("status depth %d, ingested %d, shed %d", st.QueueDepth, st.EventsIngested, st.EventsShed)
	}
	// A full queue sheds everything.
	if accepted, shed = daemon.Ingest(events[:10]); accepted != 0 || shed != 10 {
		t.Fatalf("full queue accepted %d, shed %d", accepted, shed)
	}
	// Draining reopens admission and the applied counter picks the batch up.
	if _, err := daemon.Tick(); err != nil {
		t.Fatal(err)
	}
	st = daemon.Status()
	if st.QueueDepth != 0 || st.EventsApplied != 64 {
		t.Fatalf("after tick: depth %d, applied %d", st.QueueDepth, st.EventsApplied)
	}
	if accepted, _ = daemon.Ingest(events[:10]); accepted != 10 {
		t.Fatalf("drained queue accepted %d of 10", accepted)
	}
}

// TestBackpressureMaxBatch asserts MaxBatch carries the remainder across
// ticks in arrival order instead of applying the whole queue at once.
func TestBackpressureMaxBatch(t *testing.T) {
	sys, gen := buildSystem(t, 8, 43)
	daemon, err := serve.NewDaemon(newController(t, sys), gen.Next(), serve.Config{QueueCap: 64, MaxBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]serve.Event, 8)
	for i := range events {
		events[i] = serve.Event{Kind: serve.KindPrice, Value: 50 + float64(i)}
	}
	daemon.Ingest(events)
	for tick, want := range []int{3, 3, 2, 0} {
		dec, err := daemon.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if dec.EventsApplied != want {
			t.Fatalf("tick %d applied %d events, want %d", tick+1, dec.EventsApplied, want)
		}
	}
}

// TestBackpressureEscalation asserts the occupancy trigger: a queue past
// DegradeAt arms the tighter counted budget for that tick (degrading the
// slot deterministically), and an idle queue solves at the full rung with
// no budget armed.
func TestBackpressureEscalation(t *testing.T) {
	sys, gen := buildSystem(t, 8, 47)
	daemon, err := serve.NewDaemon(newController(t, sys), gen.Next(), serve.Config{
		QueueCap:       8,
		DegradeAt:      0.5,
		EscalateChecks: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]serve.Event, 6)
	for i := range events {
		events[i] = serve.Event{Kind: serve.KindPrice, Value: 50 + float64(i)}
	}
	daemon.Ingest(events)
	dec, err := daemon.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Escalated || !dec.Degraded || dec.Rung == core.RungFull {
		t.Fatalf("overloaded tick: escalated %v, degraded %v, rung %d", dec.Escalated, dec.Degraded, dec.Rung)
	}
	if st := daemon.Status(); st.Escalations != 1 || st.DegradedSlots != 1 {
		t.Fatalf("status escalations %d, degraded %d", st.Escalations, st.DegradedSlots)
	}
	// The empty queue solves the next slot at the full rung: the
	// escalation budget was restored after the overloaded tick.
	dec, err = daemon.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Escalated || dec.Rung != core.RungFull {
		t.Fatalf("idle tick: escalated %v, rung %d", dec.Escalated, dec.Rung)
	}
	if st := daemon.Status(); st.Escalations != 1 {
		t.Fatalf("idle tick escalated: %d", st.Escalations)
	}
}

// TestInvalidEventsShedAtApply asserts malformed events are counted and
// skipped at apply time without failing the slot.
func TestInvalidEventsShedAtApply(t *testing.T) {
	sys, gen := buildSystem(t, 8, 53)
	daemon, err := serve.NewDaemon(newController(t, sys), gen.Next(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	daemon.Ingest([]serve.Event{
		{Kind: "no-such-kind"},
		{Kind: serve.KindPrice, Value: math.NaN()},
		{Kind: serve.KindDemand, Device: 999, Task: 1, Data: 1},
		{Kind: serve.KindChannel, Device: 0, Station: -1, Value: 1},
		{Kind: serve.KindCapScale, Server: 0, Value: 1.5},
		{Kind: serve.KindPrice, Value: 77},
	})
	dec, err := daemon.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if dec.EventsApplied != 1 || dec.EventsInvalid != 5 {
		t.Fatalf("applied %d, invalid %d; want 1, 5", dec.EventsApplied, dec.EventsInvalid)
	}
	if st := daemon.Status(); st.EventsInvalid != 5 {
		t.Fatalf("status invalid %d", st.EventsInvalid)
	}
}

// TestRestoreGuards asserts Restore rejects wrong wire versions and
// mismatched universes instead of silently resuming a different
// experiment.
func TestRestoreGuards(t *testing.T) {
	sys, gen := buildSystem(t, 8, 59)
	daemon, err := serve.NewDaemon(newController(t, sys), gen.Next(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := daemon.Tick(); err != nil {
		t.Fatal(err)
	}
	snap := daemon.Snapshot()

	bad := snap
	bad.Version = serve.SnapshotVersion + 1
	if err := daemon.Restore(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version accepted: %v", err)
	}

	sysO, genO := buildSystem(t, 10, 59) // different universe: 10 devices
	other, err := serve.NewDaemon(newController(t, sysO), genO.Next(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Restore(snap); err == nil || !strings.Contains(err.Error(), "devices") {
		t.Fatalf("mismatched universe accepted: %v", err)
	}

	// A negative channel entry has no sparse form and is rejected.
	neg := daemon.Snapshot()
	neg.State.Channels[2][1] = -1
	if err := daemon.Restore(neg); err == nil || !strings.Contains(err.Error(), "channel (2, 1)") {
		t.Fatalf("negative channel accepted: %v", err)
	}

	// Round trip through the JSON codec preserves the snapshot, and a
	// truncated payload is rejected.
	var buf bytes.Buffer
	if err := daemon.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.ReadSnapshot(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	rt, err := serve.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Restore(rt); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreClampsPendingToQueueCap asserts a snapshot from a larger
// queue configuration sheds the pending tail on restore, keeping memory
// bounded and the shed counted.
func TestRestoreClampsPendingToQueueCap(t *testing.T) {
	sys, gen := buildSystem(t, 8, 61)
	big, err := serve.NewDaemon(newController(t, sys), gen.Next(), serve.Config{QueueCap: 1000})
	if err != nil {
		t.Fatal(err)
	}
	events := make([]serve.Event, 10)
	for i := range events {
		events[i] = serve.Event{Kind: serve.KindPrice, Value: 50 + float64(i)}
	}
	big.Ingest(events)
	snap := big.Snapshot()

	sysS, genS := buildSystem(t, 8, 61)
	small, err := serve.NewDaemon(newController(t, sysS), genS.Next(), serve.Config{QueueCap: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := small.Restore(snap); err != nil {
		t.Fatal(err)
	}
	st := small.Status()
	if st.QueueDepth != 4 || st.EventsShed != 6 {
		t.Fatalf("restored depth %d, shed %d; want 4, 6", st.QueueDepth, st.EventsShed)
	}
}

// TestRunTicksOnCadence covers timer mode: Run advances slots until the
// context ends, and WaitDecision long-polls the published stream.
func TestRunTicksOnCadence(t *testing.T) {
	sys, gen := buildSystem(t, 8, 67)
	daemon, err := serve.NewDaemon(newController(t, sys), gen.Next(), serve.Config{Tick: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	runDone := make(chan struct{})
	runCtx, stopRun := context.WithCancel(ctx)
	go func() {
		defer close(runDone)
		_ = daemon.Run(runCtx, nil)
	}()
	dec, err := daemon.WaitDecision(ctx, 1) // blocks until slot 2 or later
	if err != nil {
		t.Fatal(err)
	}
	if dec.Slot < 2 {
		t.Fatalf("long-poll returned slot %d", dec.Slot)
	}
	stopRun()
	<-runDone
	if got, ok := daemon.Latest(0); !ok || got.Slot < dec.Slot {
		t.Fatalf("latest after run: %v, %v", got, ok)
	}
	// Manual mode refuses Run.
	manual, err := serve.NewDaemon(newController(t, sys), gen.Next(), serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := manual.Run(ctx, nil); err == nil {
		t.Fatal("Run accepted manual mode")
	}
}

// TestDiffStatesChannelEvents: DiffStates merges the two sorted channel
// rows of each device and must emit exactly the events a dense scan over
// every (device, station) entry emits, in the same order — one per
// changed entry, carrying the new value, 0 for a removed link. Pairs of
// churned states one and five slots apart cover updates, handover
// removals, and links gained and lost by mobility.
func TestDiffStatesChannelEvents(t *testing.T) {
	sys, gen := buildSystem(t, 40, 5)
	sched, err := trace.NewChurnSchedule(testChurn(5), sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	states := trace.Record(sched, 30)
	stations := len(sys.Net.BaseStations)
	dense := func(prev, next *trace.State) []serve.Event {
		var out []serve.Event
		for i := range next.Channels {
			for k := 0; k < stations; k++ {
				if a, b := prev.Channel(i, k), next.Channel(i, k); a != b {
					out = append(out, serve.Event{Kind: serve.KindChannel, Device: i, Station: k, Value: float64(b)})
				}
			}
		}
		return out
	}
	removals := 0
	for s := 1; s < len(states); s++ {
		for _, gap := range []int{1, 5} {
			if s < gap {
				continue
			}
			prev, next := states[s-gap], states[s]
			var got []serve.Event
			for _, ev := range serve.DiffStates(prev, next) {
				if ev.Kind == serve.KindChannel {
					got = append(got, ev)
					if ev.Value == 0 {
						removals++
					}
				}
			}
			if want := dense(prev, next); !reflect.DeepEqual(got, want) {
				t.Fatalf("slots %d → %d: channel events\n got %v\nwant %v", s-gap, s, got, want)
			}
		}
	}
	if removals == 0 {
		t.Fatal("test premise broken: no link was removed")
	}
}
