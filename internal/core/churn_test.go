package core

import (
	"math"
	"testing"

	"eotora/internal/game"
	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// aggressiveChurn returns a churn regime hot enough that a short test run
// sees joins, leaves, handovers, and server add/remove events.
func aggressiveChurn(seed int64) trace.ChurnConfig {
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

// pinnedSource replays one base state through fresh shallow copies, so the
// only slot-to-slot differences are the churn deltas layered on top — the
// slow-inputs regime the incremental ApplyChurn path is built for.
type pinnedSource struct {
	base *trace.State
	slot int
}

var _ trace.Source = (*pinnedSource)(nil)

func (s *pinnedSource) Next() *trace.State {
	st := *s.base
	// Fresh top-level channel slice: the churn schedule's copy-on-write
	// handover edits must not leak back into the shared base rows.
	st.Channels = append([][]units.SpectralEfficiency(nil), s.base.Channels...)
	s.slot++
	st.Slot = s.slot
	return &st
}

func (s *pinnedSource) Period() int { return 1 }

// midFrequencies returns a vector strictly inside every server's range,
// distinct from LowestFrequencies, for exercising reweight paths.
func midFrequencies(sys *System) Frequencies {
	freq := make(Frequencies, len(sys.Net.Servers))
	for n := range freq {
		srv := &sys.Net.Servers[n]
		freq[n] = srv.MinFreq + (srv.MaxFreq-srv.MinFreq)/3
	}
	return freq
}

// requireSameGame fails when the two built P2A instances differ anywhere a
// solver or the controller can see: dimensions, per-player strategy
// structure and uses, resource weights, or the strategy → (station,
// server) mapping.
func requireSameGame(t testing.TB, slot int, inc, fresh *P2A) {
	t.Helper()
	a, b := inc.Game(), fresh.Game()
	if a.Players() != b.Players() || a.Resources() != b.Resources() {
		t.Fatalf("slot %d: dims (%d players, %d resources), fresh (%d, %d)",
			slot, a.Players(), a.Resources(), b.Players(), b.Resources())
	}
	for i := 0; i < a.Players(); i++ {
		if a.StrategyCount(i) != b.StrategyCount(i) {
			t.Fatalf("slot %d: player %d has %d strategies, fresh %d",
				slot, i, a.StrategyCount(i), b.StrategyCount(i))
		}
		for s := 0; s < a.StrategyCount(i); s++ {
			ua, ub := a.StrategyUses(i, s), b.StrategyUses(i, s)
			if len(ua) != len(ub) {
				t.Fatalf("slot %d: player %d strategy %d has %d uses, fresh %d",
					slot, i, s, len(ua), len(ub))
			}
			for k := range ua {
				if ua[k].Resource != ub[k].Resource ||
					math.Float64bits(ua[k].Weight) != math.Float64bits(ub[k].Weight) {
					t.Fatalf("slot %d: player %d strategy %d use %d: %+v, fresh %+v",
						slot, i, s, k, ua[k], ub[k])
				}
			}
		}
	}
	for r := 0; r < a.Resources(); r++ {
		if math.Float64bits(a.ResourceWeight(r)) != math.Float64bits(b.ResourceWeight(r)) {
			t.Fatalf("slot %d: resource %d weight %v, fresh %v",
				slot, r, a.ResourceWeight(r), b.ResourceWeight(r))
		}
	}
	// The pair mapping must agree: every profile decodes to the same
	// universe-sized selection and round-trips through Profile.
	profile := make(game.Profile, a.Players())
	selA, selB := inc.Selection(profile), fresh.Selection(profile)
	for i := range selA.Station {
		if selA.Station[i] != selB.Station[i] || selA.Server[i] != selB.Server[i] {
			t.Fatalf("slot %d: device %d decodes to (%d, %d), fresh (%d, %d)",
				slot, i, selA.Station[i], selA.Server[i], selB.Station[i], selB.Server[i])
		}
	}
	back, err := inc.Profile(selA)
	if err != nil {
		t.Fatalf("slot %d: incremental Profile round trip: %v", slot, err)
	}
	for i := range profile {
		if back[i] != profile[i] {
			t.Fatalf("slot %d: profile round trip %v → %v", slot, profile, back)
		}
	}
}

// requireSameSolve runs CGBA on both instances with identical seeds and
// requires bit-identical results — the incremental engine carries caches
// across mutations, the fresh one starts cold, and neither may influence
// the outcome.
func requireSameSolve(t testing.TB, slot int, inc, fresh *P2A, seed int64) {
	t.Helper()
	ra, err := (CGBASolver{}).Solve(inc, rng.New(seed))
	if err != nil {
		t.Fatalf("slot %d: incremental CGBA: %v", slot, err)
	}
	rb, err := (CGBASolver{}).Solve(fresh, rng.New(seed))
	if err != nil {
		t.Fatalf("slot %d: fresh CGBA: %v", slot, err)
	}
	if math.Float64bits(ra.Objective) != math.Float64bits(rb.Objective) || ra.Iterations != rb.Iterations {
		t.Fatalf("slot %d: incremental CGBA (%v, %d), fresh (%v, %d)",
			slot, ra.Objective, ra.Iterations, rb.Objective, rb.Iterations)
	}
	for i := range ra.Profile {
		if ra.Profile[i] != rb.Profile[i] {
			t.Fatalf("slot %d: CGBA profiles diverge at player %d", slot, i)
		}
	}
}

// TestZeroChurnBitIdentity is acceptance criterion (a): a churn schedule
// with every probability zero and a full initial population is a bit-exact
// passthrough, so controller runs over it match plain-source runs slot for
// slot — decisions, latency, cost, and backlog — at every pool size.
func TestZeroChurnBitIdentity(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		sysA, genA := buildSystem(t, 16, 51)
		sysB, genB := buildSystem(t, 16, 51)
		sched, err := trace.NewChurnSchedule(trace.ChurnConfig{
			Seed:                  5,
			MinActiveDevices:      1,
			InitialActiveFraction: 1,
		}, sysA.Net, genA)
		if err != nil {
			t.Fatal(err)
		}
		ctrlA, err := NewBDMAController(sysA, 120, 3, 0.05, 17)
		if err != nil {
			t.Fatal(err)
		}
		ctrlB, err := NewBDMAController(sysB, 120, 3, 0.05, 17)
		if err != nil {
			t.Fatal(err)
		}
		if workers > 0 {
			pool := par.New(workers)
			ctrlA.SetPool(pool)
			defer pool.Close()
		}
		for slot := 0; slot < 8; slot++ {
			st := sched.Next()
			if st.DeviceActive != nil || st.ServerActive != nil || st.Churn != nil {
				t.Fatalf("workers %d slot %d: zero churn published masks/events", workers, slot)
			}
			ra, err := ctrlA.Step(st)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := ctrlB.Step(genB.Next())
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ra.Latency.Value()) != math.Float64bits(rb.Latency.Value()) ||
				math.Float64bits(ra.EnergyCost.Dollars()) != math.Float64bits(rb.EnergyCost.Dollars()) ||
				math.Float64bits(ra.Backlog) != math.Float64bits(rb.Backlog) {
				t.Fatalf("workers %d slot %d: churned run (%v, %v, %v), plain (%v, %v, %v)",
					workers, slot, ra.Latency, ra.EnergyCost, ra.Backlog, rb.Latency, rb.EnergyCost, rb.Backlog)
			}
			for i := range ra.Decision.Station {
				if ra.Decision.Station[i] != rb.Decision.Station[i] ||
					ra.Decision.Server[i] != rb.Decision.Server[i] {
					t.Fatalf("workers %d slot %d: decisions diverge at device %d", workers, slot, i)
				}
			}
		}
	}
}

// TestApplyChurnMatchesRebuild is acceptance criterion (b) in the
// fast-varying regime: every slot redraws tasks, data, and channels, so
// ApplyChurn's keep test fails for most devices and the mutation merge
// restreams them. The committed game, pair mapping, and solver results
// must still be bit-identical to a from-scratch build.
func TestApplyChurnMatchesRebuild(t *testing.T) {
	sys, gen := buildSystem(t, 24, 52)
	sched, err := trace.NewChurnSchedule(aggressiveChurn(19), sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	states := trace.Record(sched, 24)
	low, mid := sys.LowestFrequencies(), midFrequencies(sys)

	inc := new(P2A)
	churnSlots := 0
	for slot, st := range states {
		freq := low
		if slot%3 == 1 {
			freq = mid
		}
		if err := sys.ApplyChurn(inc, st, freq); err != nil {
			t.Fatalf("slot %d: ApplyChurn: %v", slot, err)
		}
		fresh, err := sys.NewP2A(st, freq)
		if err != nil {
			t.Fatalf("slot %d: NewP2A: %v", slot, err)
		}
		requireSameGame(t, slot, inc, fresh)
		requireSameSolve(t, slot, inc, fresh, int64(900+slot))
		if len(st.Churn) > 0 {
			churnSlots++
		}
	}
	if churnSlots == 0 {
		t.Fatal("churn never fired; the equivalence property was tested vacuously")
	}
}

// TestApplyChurnKeepPathMatchesRebuild is criterion (b) in the
// slow-varying regime: the base state is pinned, so churn deltas are the
// only slot-to-slot difference and ApplyChurn keeps untouched players
// verbatim (including whole fullKeep slots that reduce to a Reweight).
// The kept spans, caches, and mappings must be indistinguishable from a
// fresh build.
func TestApplyChurnKeepPathMatchesRebuild(t *testing.T) {
	sys, gen := buildSystem(t, 24, 57)
	base := gen.Next()
	// Mild enough that some slots stay event-free (fullKeep → Reweight),
	// hot enough that keeps, drops, joins, and server events all occur.
	mild := trace.ChurnConfig{
		Seed:                  23,
		DeviceJoinProb:        0.03,
		DeviceLeaveProb:       0.03,
		HandoverProb:          0.02,
		ServerRemoveProb:      0.05,
		ServerAddProb:         0.05,
		MinActiveDevices:      1,
		InitialActiveFraction: 0.9,
	}
	sched, err := trace.NewChurnSchedule(mild, sys.Net, &pinnedSource{base: base})
	if err != nil {
		t.Fatal(err)
	}
	states := trace.Record(sched, 40)
	low, mid := sys.LowestFrequencies(), midFrequencies(sys)

	inc := new(P2A)
	churnSlots, quietSlots := 0, 0
	for slot, st := range states {
		freq := low
		if slot%2 == 1 {
			freq = mid
		}
		if err := sys.ApplyChurn(inc, st, freq); err != nil {
			t.Fatalf("slot %d: ApplyChurn: %v", slot, err)
		}
		fresh, err := sys.NewP2A(st, freq)
		if err != nil {
			t.Fatalf("slot %d: NewP2A: %v", slot, err)
		}
		requireSameGame(t, slot, inc, fresh)
		requireSameSolve(t, slot, inc, fresh, int64(700+slot))
		if len(st.Churn) > 0 {
			churnSlots++
		} else {
			quietSlots++
		}
	}
	if churnSlots == 0 || quietSlots == 0 {
		t.Fatalf("want both churn and quiet slots, got %d churned / %d quiet", churnSlots, quietSlots)
	}
}

// TestApplyChurnFallback checks the automatic degradation to BuildP2A: a
// fresh P2A has no snapshot, and a P2A built under another system must not
// trust its snapshot. The method form additionally rejects a P2A that was
// never built.
func TestApplyChurnFallback(t *testing.T) {
	sysA, genA := buildSystem(t, 10, 58)
	sysB, _ := buildSystem(t, 10, 59)
	st := genA.Next()
	freq := sysA.LowestFrequencies()

	var unbuilt P2A
	if err := unbuilt.ApplyChurn(st, freq); err == nil {
		t.Error("ApplyChurn on an unbuilt P2A succeeded")
	}

	fresh := new(P2A)
	if err := sysA.ApplyChurn(fresh, st, freq); err != nil {
		t.Fatalf("ApplyChurn on a snapshot-free P2A: %v", err)
	}
	want, err := sysA.NewP2A(st, freq)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGame(t, 0, fresh, want)

	// Built under sysA, applied under sysB: must rebuild, not merge.
	if err := sysB.ApplyChurn(fresh, st, freq); err != nil {
		t.Fatalf("ApplyChurn across systems: %v", err)
	}
	wantB, err := sysB.NewP2A(st, freq)
	if err != nil {
		t.Fatal(err)
	}
	requireSameGame(t, 0, fresh, wantB)
}

// TestSelectionProfileChurnRoundTrip covers the population-aware
// Selection/Profile pair: inactive devices decode to (-1, -1) and are
// ignored on the way back, active devices round-trip exactly, and an
// active device forced to (-1, -1) is rejected.
func TestSelectionProfileChurnRoundTrip(t *testing.T) {
	sys, gen := buildSystem(t, 12, 53)
	st := gen.Next()
	mask := make([]bool, 12)
	for i := range mask {
		mask[i] = true
	}
	mask[2], mask[7] = false, false
	st.DeviceActive = mask

	p, err := sys.NewP2A(st, sys.LowestFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	g := p.Game()
	if g.Players() != 10 {
		t.Fatalf("10 active devices produced %d players", g.Players())
	}
	src := rng.New(61)
	profile := make(game.Profile, g.Players())
	for trial := 0; trial < 32; trial++ {
		for i := range profile {
			profile[i] = src.Intn(g.StrategyCount(i))
		}
		sel := p.Selection(profile)
		if len(sel.Station) != 12 || len(sel.Server) != 12 {
			t.Fatalf("selection sized (%d, %d), want universe 12", len(sel.Station), len(sel.Server))
		}
		for _, i := range []int{2, 7} {
			if sel.Station[i] != -1 || sel.Server[i] != -1 {
				t.Fatalf("inactive device %d decoded to (%d, %d)", i, sel.Station[i], sel.Server[i])
			}
		}
		back, err := p.Profile(sel)
		if err != nil {
			t.Fatal(err)
		}
		for i := range profile {
			if back[i] != profile[i] {
				t.Fatalf("round trip %v → %v", profile, back)
			}
		}
		// Inactive entries are dead on the way back in: junk there must
		// not disturb the conversion.
		junk := sel.Clone()
		junk.Station[2], junk.Server[2] = 99, 99
		if _, err := p.Profile(junk); err != nil {
			t.Fatalf("Profile read an inactive device's entry: %v", err)
		}
	}
	sel := p.Selection(make(game.Profile, g.Players()))
	sel.Station[0], sel.Server[0] = -1, -1
	if _, err := p.Profile(sel); err == nil {
		t.Error("Profile accepted (-1, -1) for an active device")
	}
}

// TestResizeHelpersShrinkGrow exercises the slice helpers that carry the
// churn traffic: resizeNegInt32 must return all −1 entries at every
// length, including regrowth over a dirty backing array, and
// resizeBoolSlice must honor the requested length.
func TestResizeHelpersShrinkGrow(t *testing.T) {
	s := resizeNegInt32(nil, 4)
	if len(s) != 4 {
		t.Fatalf("len %d, want 4", len(s))
	}
	for i := range s {
		s[i] = int32(i) // dirty the backing array
	}
	s = resizeNegInt32(s, 2)
	if len(s) != 2 || s[0] != -1 || s[1] != -1 {
		t.Fatalf("after shrink: %v", s)
	}
	s = resizeNegInt32(s, 4) // regrow within the dirty capacity
	if len(s) != 4 {
		t.Fatalf("len %d, want 4", len(s))
	}
	for i, v := range s {
		if v != -1 {
			t.Fatalf("entry %d = %d after regrow, want -1", i, v)
		}
	}
	s = resizeNegInt32(s, 129) // beyond capacity
	if len(s) != 129 {
		t.Fatalf("len %d, want 129", len(s))
	}
	for i, v := range s {
		if v != -1 {
			t.Fatalf("entry %d = %d after growth, want -1", i, v)
		}
	}
	if s = resizeNegInt32(s, 0); len(s) != 0 {
		t.Fatalf("len %d, want 0", len(s))
	}

	b := resizeBoolSlice(nil, 3)
	if len(b) != 3 {
		t.Fatalf("bool len %d, want 3", len(b))
	}
	prev := &b[0]
	b = resizeBoolSlice(b, 2)
	if len(b) != 2 || &b[0] != prev {
		t.Fatalf("bool shrink reallocated (len %d)", len(b))
	}
	b = resizeBoolSlice(b, 3)
	if len(b) != 3 || &b[0] != prev {
		t.Fatalf("bool regrow within capacity reallocated (len %d)", len(b))
	}
	if b = resizeBoolSlice(b, 64); len(b) != 64 {
		t.Fatalf("bool len %d, want 64", len(b))
	}
}

// TestRepriceRemovedServer is the Previous-rung regression for structural
// removal: after a decided slot, the next state removes a server the
// previous selection used. repriceDecision must repair the affected
// devices onto feasible pairs instead of failing, keep every untouched
// device on its previous pair, and never select the removed server.
func TestRepriceRemovedServer(t *testing.T) {
	sys, gen := buildSystem(t, 30, 53)
	states := trace.Record(gen, 1)
	ctrl, err := NewBDMAController(sys, 110, 3, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetSlotDeadline(0, 1<<30) // arm so the decision is remembered
	first, err := ctrl.Step(states[0])
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i := range first.Decision.Server {
		if first.Decision.Server[i] >= 0 {
			victim = first.Decision.Server[i]
			break
		}
	}
	if victim < 0 {
		t.Fatal("first decision offloaded nothing")
	}
	mask := make([]bool, len(sys.Net.Servers))
	for n := range mask {
		mask[n] = true
	}
	mask[victim] = false
	st := *states[0]
	st.ServerActive = mask

	res, err := ctrl.repriceDecision(&st)
	if err != nil {
		t.Fatalf("repriceDecision failed on a removed server: %v", err)
	}
	if err := sys.Validate(res.Selection, &st); err != nil {
		t.Errorf("repaired selection infeasible: %v", err)
	}
	moved := 0
	for i := range res.Selection.Server {
		if res.Selection.Server[i] == victim {
			t.Errorf("device %d still selects removed server %d", i, victim)
		}
		if first.Decision.Server[i] == victim {
			moved++
			continue
		}
		if res.Selection.Station[i] != first.Decision.Station[i] ||
			res.Selection.Server[i] != first.Decision.Server[i] {
			t.Errorf("device %d moved off an unaffected previous pair", i)
		}
	}
	if moved == 0 {
		t.Fatal("no device used the removed server; the regression is vacuous")
	}
}

// FuzzChurnEquivalence fuzzes acceptance criterion (b): for arbitrary
// churn probabilities and sequence lengths, incremental ApplyChurn must
// commit a game bit-identical to a from-scratch rebuild at every slot.
func FuzzChurnEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(30), uint8(30), uint8(20), uint8(25), uint8(25), uint8(80))
	f.Add(int64(7), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(100))
	f.Add(int64(42), uint8(9), uint8(100), uint8(100), uint8(100), uint8(100), uint8(100), uint8(50))
	f.Fuzz(func(t *testing.T, seed int64, slots, joinP, leaveP, hoP, rmP, addP, initP uint8) {
		cfg := trace.ChurnConfig{
			Seed:                  seed,
			DeviceJoinProb:        float64(joinP%101) / 100,
			DeviceLeaveProb:       float64(leaveP%101) / 100,
			HandoverProb:          float64(hoP%101) / 100,
			ServerRemoveProb:      float64(rmP%101) / 100,
			ServerAddProb:         float64(addP%101) / 100,
			MinActiveDevices:      1,
			InitialActiveFraction: float64(initP%100+1) / 100,
		}
		sys, gen := buildSystem(t, 10, 71)
		var base trace.Source = gen
		if seed%2 == 0 {
			base = &pinnedSource{base: gen.Next()}
		}
		sched, err := trace.NewChurnSchedule(cfg, sys.Net, base)
		if err != nil {
			t.Fatal(err)
		}
		freq := sys.LowestFrequencies()
		inc := new(P2A)
		n := 2 + int(slots%8)
		for slot := 0; slot < n; slot++ {
			st := sched.Next()
			if err := sys.ApplyChurn(inc, st, freq); err != nil {
				t.Fatalf("slot %d: ApplyChurn: %v", slot, err)
			}
			fresh, err := sys.NewP2A(st, freq)
			if err != nil {
				t.Fatalf("slot %d: NewP2A: %v", slot, err)
			}
			requireSameGame(t, slot, inc, fresh)
		}
	})
}

// BenchmarkChurnSlot measures the slot-update cost on a large population:
// the incremental ApplyChurn merge in the slow-inputs regime (pinned base
// state, default churn) against the full BuildP2A rebuild it is
// bit-identical to, and ApplyChurn with channels redrawn every slot
// (restream), where every active device is restreamed — the regime of
// the repository benchmark's workloads.
func BenchmarkChurnSlot(b *testing.B) {
	sys, gen := buildSystem(b, 300, 61)
	sched, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(13), sys.Net, &pinnedSource{base: gen.Next()})
	if err != nil {
		b.Fatal(err)
	}
	pinned := trace.Record(sched, 64)
	freq := sys.LowestFrequencies()
	run := func(states []*trace.State, step func(p *P2A, st *trace.State) error) func(b *testing.B) {
		return func(b *testing.B) {
			p := new(P2A)
			if err := sys.BuildP2A(p, states[0], freq); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(p, states[1+i%(len(states)-1)]); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	churn := func(p *P2A, st *trace.State) error { return sys.ApplyChurn(p, st, freq) }
	b.Run("incremental", run(pinned, churn))
	b.Run("rebuild", run(pinned, func(p *P2A, st *trace.State) error { return sys.BuildP2A(p, st, freq) }))
	b.Run("restream", run(redrawnStates(b, sys, gen, 64), churn))
}

// redrawnStates records n default-churn states over the live generator,
// so channels are redrawn every slot.
func redrawnStates(t testing.TB, sys *System, gen *trace.Generator, n int) []*trace.State {
	t.Helper()
	sched, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(17), sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Record(sched, n)
}

// TestApplyChurnSteadyStateAllocs: once its buffers have grown, ApplyChurn
// on an engineless P2A (the profile-based baselines' path) allocates
// nothing per slot, even with every active device restreamed.
func TestApplyChurnSteadyStateAllocs(t *testing.T) {
	sys, gen := buildSystem(t, 1000, 62)
	states := redrawnStates(t, sys, gen, 16)
	freq := sys.LowestFrequencies()
	p := new(P2A)
	if err := sys.BuildP2A(p, states[0], freq); err != nil {
		t.Fatal(err)
	}
	next := 0
	step := func() {
		next++
		if err := sys.ApplyChurn(p, states[next%len(states)], freq); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * len(states) {
		step() // grow every buffer to the trace's peak
	}
	if allocs := testing.AllocsPerRun(2*len(states), step); allocs != 0 {
		t.Fatalf("steady-state ApplyChurn allocates %.1f per slot, want 0", allocs)
	}
}
