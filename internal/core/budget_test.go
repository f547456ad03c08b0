package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// withRoomBudgets converts a test system to per-room budgets at the given
// fractions of each room's [F^L, F^U] cost range at the reference price.
func withRoomBudgets(t *testing.T, sys *System, fracs map[int]float64) {
	t.Helper()
	ref := units.Price(50)
	lows := sys.RoomEnergyCosts(sys.LowestFrequencies(), ref)
	highs := sys.RoomEnergyCosts(sys.HighestFrequencies(), ref)
	budgets := make(map[int]units.Money, len(fracs))
	for room, frac := range fracs {
		budgets[room] = lows[room] + units.Money(frac*float64(highs[room]-lows[room]))
	}
	sys.RoomBudgets = budgets
}

// roomBudget returns sys's per-room Budget holding the backlogs q, one per
// room in Net.Rooms order.
func roomBudget(t testing.TB, sys *System, q ...float64) *Budget {
	t.Helper()
	b, err := NewBudget(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != len(b.q) {
		t.Fatalf("%d backlogs for %d rooms", len(q), len(b.q))
	}
	copy(b.q, q)
	return b
}

// stateP2B is the state-priced P2-B reference: SolveP2B under the budget's
// per-group weights, with the compute sums recomputed from the selection.
func (b *Budget) stateP2B(sel Selection, st *trace.State, v float64) (Frequencies, error) {
	s := b.sys
	return s.solveP2B(s.computeSums(make([]float64, len(s.Net.Servers)), sel, st), st, v, b, solveInstr{}, nil)
}

// stateObjective is the state-priced P2 objective under the budget: the
// reduced latency recomputed from the selection, then Budget.Objective.
func (b *Budget) stateObjective(sel Selection, freq Frequencies, st *trace.State, v float64) float64 {
	return b.Objective(b.sys.ReducedLatency(sel, freq, st).Value(), freq, st, v)
}

// allRoomBudgets budgets every room of a system, at fractions of its cost
// range that vary by room.
func allRoomBudgets(t *testing.T, sys *System) {
	t.Helper()
	fracs := make(map[int]float64, len(sys.Net.Rooms))
	for g, r := range sys.Net.Rooms {
		fracs[r.ID] = 0.2 + 0.3*float64(g%3)
	}
	withRoomBudgets(t, sys, fracs)
}

func TestRoomEnergyCostsSumToTotal(t *testing.T) {
	sys, _ := buildSystem(t, 10, 50)
	freq := sys.HighestFrequencies()
	rooms := sys.RoomEnergyCosts(freq, 60)
	var sum units.Money
	for _, c := range rooms {
		sum += c
	}
	total := sys.EnergyCost(freq, 60)
	if math.Abs(float64(sum-total)) > 1e-9*float64(total) {
		t.Errorf("room costs sum %v ≠ total %v", sum, total)
	}
	if len(rooms) != len(sys.Net.Rooms) {
		t.Errorf("rooms in cost map = %d, want %d", len(rooms), len(sys.Net.Rooms))
	}
}

func TestValidateRoomBudgets(t *testing.T) {
	sys, _ := buildSystem(t, 5, 51)
	if err := sys.ValidateRoomBudgets(); err != nil {
		t.Errorf("nil budgets rejected: %v", err)
	}
	sys.RoomBudgets = map[int]units.Money{99: 1}
	if err := sys.ValidateRoomBudgets(); err == nil {
		t.Error("unknown room accepted")
	}
	sys.RoomBudgets = map[int]units.Money{0: -1, 1: 1}
	if err := sys.ValidateRoomBudgets(); err == nil {
		t.Error("negative budget accepted")
	}
	sys.RoomBudgets = map[int]units.Money{0: 1} // room 1 missing
	if err := sys.ValidateRoomBudgets(); err == nil {
		t.Error("partial budgets accepted")
	}
	withRoomBudgets(t, sys, map[int]float64{0: 0.5, 1: 0.5})
	if err := sys.ValidateRoomBudgets(); err != nil {
		t.Errorf("valid budgets rejected: %v", err)
	}
}

// TestBudgetRejectsNegativeWeights: BDMA refuses a negative or NaN
// backlog in any budget group, global or per room.
func TestBudgetRejectsNegativeWeights(t *testing.T) {
	sys, gen := buildSystem(t, 5, 52)
	st := gen.Next()
	if _, err := sys.BDMA(st, 50, -1, BDMAConfig{}, nil); err == nil {
		t.Error("negative global backlog accepted")
	}
	withRoomBudgets(t, sys, map[int]float64{0: 0.5, 1: 0.5})
	for _, q := range []float64{-1, math.NaN()} {
		if _, err := sys.bdmaScratch(st, 50, roomBudget(t, sys, 1, q), BDMAConfig{}, nil, nil, solveInstr{}, nil); err == nil {
			t.Errorf("room backlog %v accepted", q)
		}
	}
}

func TestSolveP2BPerRoomPressure(t *testing.T) {
	// A room under heavy queue pressure must run lower frequencies than a
	// free room.
	sys, gen := buildSystem(t, 12, 53)
	withRoomBudgets(t, sys, map[int]float64{0: 0.5, 1: 0.5})
	st := gen.Next()
	sel := feasibleSelection(t, sys, st, 1)
	freq, err := roomBudget(t, sys, 1e9, 0).stateP2B(sel, st, 50)
	if err != nil {
		t.Fatal(err)
	}
	loaded := make(map[int]bool)
	for _, n := range sel.Server {
		loaded[n] = true
	}
	for n := range sys.Net.Servers {
		srv := &sys.Net.Servers[n]
		switch srv.Room {
		case 0: // crushing pressure → F^L
			if math.Abs(float64(freq[n]-srv.MinFreq)) > 1e6 {
				t.Errorf("pressured room server %d at %v, want F^L", n, freq[n])
			}
		case 1: // free energy → loaded servers at F^U
			if loaded[n] && math.Abs(float64(freq[n]-srv.MaxFreq)) > 1e6 {
				t.Errorf("free room server %d at %v, want F^U", n, freq[n])
			}
		}
	}
}

func TestMultiBudgetControllerMeetsPerRoomBudgets(t *testing.T) {
	sys, gen := buildSystem(t, 12, 54)
	// Asymmetric budgets: room 0 tight, room 1 loose.
	withRoomBudgets(t, sys, map[int]float64{0: 0.2, 1: 0.8})
	ctrl, err := NewBDMAController(sys, 100, 2, 0, 54)
	if err != nil {
		t.Fatal(err)
	}
	roomCosts := make(map[int]float64)
	const slots = 150
	for s := 0; s < slots; s++ {
		st := gen.Next()
		res, err := ctrl.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		if res.RoomBacklogs == nil {
			t.Fatal("per-room mode did not report room backlogs")
		}
		for room, c := range sys.RoomEnergyCosts(res.Decision.Freq, st.Price) {
			roomCosts[room] += c.Dollars()
		}
		if res.Backlog < 0 {
			t.Fatal("negative total backlog")
		}
	}
	for room, budget := range sys.RoomBudgets {
		avg := roomCosts[room] / slots
		// Asymptotic constraint; allow 25% slack at 150 slots.
		if avg > budget.Dollars()*1.25 {
			t.Errorf("room %d average cost $%v far above budget $%v", room, avg, budget.Dollars())
		}
	}
	if ctrl.budget.RoomBacklogs() == nil {
		t.Error("controller does not expose room backlogs")
	}
}

func TestMultiBudgetCheckpointRoundtrip(t *testing.T) {
	sysA, genA := buildSystem(t, 8, 55)
	withRoomBudgets(t, sysA, map[int]float64{0: 0.4, 1: 0.6})
	straight, err := NewBDMAController(sysA, 75, 1, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for s := 0; s < 12; s++ {
		res, err := straight.Step(genA.Next())
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Latency.Value(), res.Backlog)
	}

	sysB, genB := buildSystem(t, 8, 55)
	withRoomBudgets(t, sysB, map[int]float64{0: 0.4, 1: 0.6})
	first, err := NewBDMAController(sysB, 75, 1, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for s := 0; s < 6; s++ {
		res, err := first.Step(genB.Next())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Latency.Value(), res.Backlog)
	}
	cp := first.Checkpoint()
	if cp.RoomBacklogs == nil {
		t.Fatal("multi-mode checkpoint lacks room backlogs")
	}
	resumed, err := NewBDMAController(sysB, 75, 1, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(cp); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		res, err := resumed.Step(genB.Next())
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Latency.Value(), res.Backlog)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("multi-budget resume diverged at element %d: %v vs %v", i, got[i], want[i])
		}
	}
	// Mode mismatch: a scalar controller must reject a multi checkpoint.
	scalarSys, _ := buildSystem(t, 8, 55)
	scalar, err := NewBDMAController(scalarSys, 75, 1, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	if err := scalar.Restore(cp); err == nil {
		t.Error("scalar controller accepted multi-budget checkpoint")
	}
}

func TestTightRoomRunsCoolerThanLooseRoom(t *testing.T) {
	// Under asymmetric budgets the tight room's average frequency must be
	// lower than the loose room's.
	sys, gen := buildSystem(t, 12, 56)
	withRoomBudgets(t, sys, map[int]float64{0: 0.1, 1: 0.9})
	ctrl, err := NewBDMAController(sys, 100, 2, 0, 56)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[int]float64)
	counts := make(map[int]int)
	const slots = 100
	for s := 0; s < slots; s++ {
		res, err := ctrl.Step(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		for n, f := range res.Decision.Freq {
			room := sys.Net.Servers[n].Room
			sums[room] += f.GigaHertz()
			counts[room]++
		}
	}
	tight := sums[0] / float64(counts[0])
	loose := sums[1] / float64(counts[1])
	if tight >= loose {
		t.Errorf("tight room mean clock %.3f GHz not below loose room %.3f GHz", tight, loose)
	}
}

// TestBudgetGroups: the global budget is one group over every server; per
// room there is one group per room in Net.Rooms order, each server in
// its room's group and capped by its room's budget.
func TestBudgetGroups(t *testing.T) {
	sys, _ := buildSpecSystem(t, topology.UrbanSpec(20), 3)
	global, err := NewBudget(sys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(global.q) != 1 || global.q[0] != 2 || global.cap[0] != sys.Budget || global.rooms != nil {
		t.Fatalf("global budget: q %v, cap %v, rooms %v", global.q, global.cap, global.rooms)
	}
	for n, g := range global.group {
		if g != 0 {
			t.Fatalf("global budget puts server %d in group %d", n, g)
		}
	}
	if global.RoomBacklogs() != nil {
		t.Error("global budget reports room backlogs")
	}
	allRoomBudgets(t, sys)
	rooms, err := NewBudget(sys, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Net.Rooms) < 3 || len(rooms.q) != len(sys.Net.Rooms) {
		t.Fatalf("%d groups for %d rooms", len(rooms.q), len(sys.Net.Rooms))
	}
	for n := range sys.Net.Servers {
		g := rooms.group[n]
		if rooms.rooms[g] != sys.Net.Servers[n].Room || rooms.cap[g] != sys.RoomBudgets[rooms.rooms[g]] {
			t.Fatalf("server %d (room %d) in group %d (room %d)", n, sys.Net.Servers[n].Room, g, rooms.rooms[g])
		}
	}
}

// TestCheckV: the drift-plus-penalty weight V must be positive and
// finite, and a controller built with a valid V and Q(1) starts from
// exactly those values.
func TestCheckV(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := checkV(v)
		if err == nil {
			t.Errorf("checkV(%v) accepted", v)
		} else if !strings.Contains(err.Error(), "must be positive and finite") {
			t.Errorf("checkV(%v) = %q", v, err)
		}
	}
	for _, v := range []float64{1e-9, 1, 50, math.MaxFloat64} {
		if err := checkV(v); err != nil {
			t.Errorf("checkV(%v) = %v", v, err)
		}
	}
	sys, _ := buildSystem(t, 5, 23)
	ctrl, err := NewController(sys, ControllerConfig{V: 50, InitialBacklog: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.V() != 50 || ctrl.Backlog() != 3 {
		t.Errorf("controller starts at V = %v, Q = %v; want 50, 3", ctrl.V(), ctrl.Backlog())
	}
}

// TestBudgetBasics checks the per-room queue rule on a four-room system:
// Commit gives Q_g ← max(Q_g + θ_g, 0) with θ_g the room's cost over its
// cap, the total is the room sum, and Objective is V·T + Σ_g Q_g·θ_g.
func TestBudgetBasics(t *testing.T) {
	sys, _ := buildSpecSystem(t, topology.UrbanSpec(20), 5)
	allRoomBudgets(t, sys)
	q := []float64{5, 0.5, 0, 2}
	b := roomBudget(t, sys, q...)
	freq, price := sys.HighestFrequencies(), units.Price(80)
	costs := sys.RoomEnergyCosts(freq, price)
	wantTheta := make([]float64, len(q))
	objective := 0.0
	for g, r := range sys.Net.Rooms {
		wantTheta[g] = float64(costs[r.ID] - sys.RoomBudgets[r.ID])
		objective += q[g] * wantTheta[g]
	}
	st := &trace.State{Price: price}
	if got, want := b.Objective(0.25, freq, st, 10), 10*0.25+objective; math.Abs(got-want) > 1e-9*math.Abs(want) {
		t.Errorf("Objective = %v, want %v", got, want)
	}
	if q := b.q[0]; q != 5 {
		t.Fatalf("Objective moved a queue to %v", q)
	}
	theta, backlog := b.Commit(freq, price, nil)
	total, sumTheta := 0.0, 0.0
	for g, r := range sys.Net.Rooms {
		want := math.Max(q[g]+wantTheta[g], 0)
		if math.Abs(b.q[g]-want) > 1e-12 || b.RoomBacklogs()[r.ID] != b.q[g] {
			t.Errorf("room %d backlog %v, want %v", r.ID, b.q[g], want)
		}
		total += b.q[g]
		sumTheta += wantTheta[g]
	}
	if backlog != total || b.Backlog() != total || math.Abs(theta-sumTheta) > 1e-12 {
		t.Errorf("Commit = (θ %v, backlog %v), want (%v, %v)", theta, backlog, sumTheta, total)
	}
	// Servers outside the population mask cost nothing.
	none := make([]bool, len(sys.Net.Servers))
	b.Commit(freq, price, none)
	for g := range b.q {
		want := math.Max(math.Max(q[g]+wantTheta[g], 0)-float64(b.cap[g]), 0)
		if math.Abs(b.q[g]-want) > 1e-12 {
			t.Errorf("group %d backlog %v after an empty population, want %v", g, b.q[g], want)
		}
	}

	// Eq. (21) sequences on the one-group budget: accumulation, the clamp
	// at zero and recovery after it, and initial backlogs (negative and
	// NaN ones start at zero).
	global, _ := buildSystem(t, 5, 5)
	for _, tt := range []struct {
		name   string
		init   float64
		thetas []float64
		want   float64
	}{
		{"accumulates positive violations", 0, []float64{1, 2, 3}, 6},
		{"clamps at zero", 0, []float64{5, -10}, 0},
		{"recovers after clamp", 0, []float64{-3, 4}, 4},
		{"initial backlog", 10, []float64{-4}, 6},
		{"negative initial clamped", -5, nil, 0},
		{"NaN initial clamped", math.NaN(), nil, 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			b, commit := violationQueue(t, global, tt.init)
			for _, th := range tt.thetas {
				commit(th)
			}
			if got := b.Backlog(); got != tt.want {
				t.Errorf("backlog = %v, want %v", got, tt.want)
			}
		})
	}
}

// violationQueue returns the global budget of sys at Q(1) = init and a
// function that commits one slot of violation θ to it and returns the new
// backlog. An empty population costs nothing, so setting the cap to −θ
// makes the committed violation exactly θ.
func violationQueue(t *testing.T, sys *System, init float64) (*Budget, func(theta float64) float64) {
	t.Helper()
	b, err := NewBudget(sys, init)
	if err != nil {
		t.Fatal(err)
	}
	none := make([]bool, len(sys.Net.Servers))
	return b, func(theta float64) float64 {
		b.cap[0] = units.Money(-theta)
		got, backlog := b.Commit(nil, 0, none)
		if got != theta {
			t.Fatalf("Commit saw violation %v, want %v", got, theta)
		}
		return backlog
	}
}

// TestBudgetStability: every room's queue is stable when its mean
// violation is negative (prices noisy around a level whose cost sits
// under each room's cap).
func TestBudgetStability(t *testing.T) {
	sys, _ := buildSpecSystem(t, topology.UrbanSpec(20), 9)
	allRoomBudgets(t, sys)
	b := roomBudget(t, sys, make([]float64, len(sys.Net.Rooms))...)
	freq := sys.LowestFrequencies()
	src := rng.New(9)
	const slots = 20000
	for i := 0; i < slots; i++ {
		b.Commit(freq, units.Price(src.Normal(40, 15)), nil)
	}
	if avg := b.Backlog() / slots; avg > 0.02 {
		t.Errorf("room queues not stable: total/T = %v", avg)
	}

	// Property: over random violation sequences the one-group backlog
	// stays ≥ 0 and follows Q ← max(Q + θ, 0), slot by slot. quick draws
	// floats across the whole float64 range; folding them into (−10, 10)
	// makes the clamp bind as often as not.
	global, _ := buildSystem(t, 5, 9)
	prop := func(raw []float64) bool {
		_, commit := violationQueue(t, global, 0)
		ref := 0.0
		for _, th := range raw {
			th = math.Mod(th, 10)
			got := commit(th)
			ref = math.Max(ref+th, 0)
			if got < 0 || math.Abs(got-ref) > 1e-9*(ref+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestOneGroupBudgetMatchesP2Objective: the one-group Budget prices
// exactly as the paper's scalar references P2Objective and ThetaActive,
// bit for bit, on random frequencies, prices, backlogs and population
// masks.
func TestOneGroupBudgetMatchesP2Objective(t *testing.T) {
	sys, gen := buildSpecSystem(t, topology.MetroSpec(60), 11)
	src := rng.New(11)
	lo, hi := sys.LowestFrequencies(), sys.HighestFrequencies()
	for trial := 0; trial < 200; trial++ {
		st := gen.Next()
		sel := feasibleSelection(t, sys, st, int64(trial))
		freq := make(Frequencies, len(lo))
		for n := range freq {
			freq[n] = lo[n] + units.Frequency(src.Float64()*float64(hi[n]-lo[n]))
		}
		st.Price = units.Price(src.Normal(50, 40)) // negative prices included
		if trial%2 == 1 {
			st.ServerActive = make([]bool, len(freq))
			for n := range st.ServerActive {
				st.ServerActive[n] = src.Float64() < 0.7
			}
		}
		q := src.Float64() * 100
		if trial%5 == 0 {
			q = 0
		}
		b := sys.globalBudget(q)
		got := []float64{
			b.stateObjective(sel, freq, st, 70),
			b.thetas(freq, st.Price, st.ServerActive),
		}
		want := []float64{
			sys.P2Objective(sel, freq, st, 70, q),
			sys.ThetaActive(freq, st.Price, st.ServerActive),
		}
		requireSameBits(t, "(objective, Θ)", got, want)
		theta, backlog := b.Commit(freq, st.Price, st.ServerActive)
		requireSameBits(t, "commit (Θ, backlog)", []float64{theta, backlog}, []float64{want[1], math.Max(q+want[1], 0)})
	}
}

// roomRun is one per-room controller run's per-slot outputs and final
// checkpoint.
type roomRun struct {
	theta, objective, backlog []uint64
	rooms                     []map[int]float64
	checkpoint                []byte
}

// TestRoomBudgetsDeterministic: per-room runs add their rooms in a fixed
// order, so two identical runs on a 25-room metro agree bit for bit on
// every slot and write byte-identical checkpoints.
func TestRoomBudgetsDeterministic(t *testing.T) {
	run := func() roomRun {
		sys, gen := buildSpecSystem(t, topology.MetroSpec(120), 7)
		allRoomBudgets(t, sys)
		ctrl, err := NewBDMAController(sys, 100, 3, 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		var r roomRun
		for s := 0; s < 15; s++ {
			res, err := ctrl.Step(gen.Next())
			if err != nil {
				t.Fatal(err)
			}
			r.theta = append(r.theta, math.Float64bits(res.Theta))
			r.objective = append(r.objective, math.Float64bits(res.Objective))
			r.backlog = append(r.backlog, math.Float64bits(res.Backlog))
			r.rooms = append(r.rooms, res.RoomBacklogs)
		}
		var buf bytes.Buffer
		if err := ctrl.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		r.checkpoint = buf.Bytes()
		return r
	}
	want := run()
	if len(want.rooms[0]) < 3 {
		t.Fatalf("%d rooms; the order of a two-term sum cannot show", len(want.rooms[0]))
	}
	for i := 0; i < 3; i++ {
		if got := run(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged from run 0", i+1)
		}
	}
}

// TestRoomBudgetsRejectInitialBacklog: per-room queues start at zero, so a
// nonzero initial backlog is an error rather than silently dropped.
func TestRoomBudgetsRejectInitialBacklog(t *testing.T) {
	sys, _ := buildSystem(t, 5, 57)
	withRoomBudgets(t, sys, map[int]float64{0: 0.5, 1: 0.5})
	for _, q := range []float64{3, math.NaN()} {
		_, err := NewController(sys, ControllerConfig{V: 50, InitialBacklog: q})
		if err == nil || !strings.Contains(err.Error(), "initial backlog") {
			t.Errorf("initial backlog %v: error %v", q, err)
		}
	}
	if _, err := NewController(sys, ControllerConfig{V: 50}); err != nil {
		t.Errorf("zero initial backlog rejected: %v", err)
	}
}

// TestRestoreRejectsMalformedBacklogs: a per-room checkpoint whose room
// backlogs name a foreign room or miss one, hold a non-finite backlog, or
// fail a later check after valid room backlogs is rejected, and leaves
// the controller's checkpoint unchanged.
func TestRestoreRejectsMalformedBacklogs(t *testing.T) {
	sys, gen := buildSystem(t, 8, 58)
	withRoomBudgets(t, sys, map[int]float64{0: 0.3, 1: 0.6})
	ctrl, err := NewBDMAController(sys, 75, 1, 0, 58)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if _, err := ctrl.Step(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	good := ctrl.Checkpoint()
	cases := map[string]func(*Checkpoint){
		"foreign room":      func(cp *Checkpoint) { cp.RoomBacklogs = map[int]float64{0: 1, 1: 2, 999: 500} },
		"missing room":      func(cp *Checkpoint) { cp.RoomBacklogs = map[int]float64{0: 1} },
		"renamed room":      func(cp *Checkpoint) { cp.RoomBacklogs = map[int]float64{0: 1, 7: 2} },
		"NaN room backlog":  func(cp *Checkpoint) { cp.RoomBacklogs = map[int]float64{0: math.NaN(), 1: 2} },
		"Inf room backlog":  func(cp *Checkpoint) { cp.RoomBacklogs = map[int]float64{0: 1, 1: math.Inf(1)} },
		"NaN total backlog": func(cp *Checkpoint) { cp.Backlog = math.NaN() },
		"global checkpoint": func(cp *Checkpoint) { cp.RoomBacklogs = nil },
		"previous decision after room backlogs": func(cp *Checkpoint) {
			cp.RoomBacklogs = map[int]float64{0: 42, 1: 43}
			cp.PrevStation, cp.PrevServer = []int{1, 2}, []int{1}
		},
	}
	for name, mutate := range cases {
		cp := good
		mutate(&cp)
		if err := ctrl.Restore(cp); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := ctrl.Checkpoint(); !reflect.DeepEqual(got, good) {
			t.Errorf("%s: rejected restore changed the checkpoint to %+v", name, got)
		}
	}
}

// TestRestoreParentCheckpointFormat: the checkpoint JSON keys are
// unchanged, so a per-room checkpoint in the established format restores
// its room backlogs exactly.
func TestRestoreParentCheckpointFormat(t *testing.T) {
	sys, _ := buildSystem(t, 8, 55)
	withRoomBudgets(t, sys, map[int]float64{0: 0.4, 1: 0.6})
	ctrl, err := NewBDMAController(sys, 75, 1, 0, 55)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(strings.NewReader(`{"slot": 6, "backlog": 3.5, "v": 75, "solver": "CGBA", "seed": 55,
		"room_backlogs": {"0": 1.25, "1": 2.25}}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if got := ctrl.budget.RoomBacklogs(); !reflect.DeepEqual(got, map[int]float64{0: 1.25, 1: 2.25}) || ctrl.Backlog() != 3.5 || ctrl.Slot() != 6 {
		t.Errorf("restored rooms %v, total %v, slot %d", got, ctrl.Backlog(), ctrl.Slot())
	}
}

// TestHugeBacklogStillDecides: under a budget no frequency can meet, a
// restored backlog so large that Q·θ overflows prices every BDMA round at
// +Inf; the slot must still decide (the first round is kept).
func TestHugeBacklogStillDecides(t *testing.T) {
	sys, gen := buildSystem(t, 8, 59)
	sys.Budget = sys.EnergyCost(sys.LowestFrequencies(), 10) / 10
	ctrl, err := NewBDMAController(sys, 75, 3, 0, 59)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Restore(Checkpoint{V: 75, Solver: "CGBA", Seed: 59, Backlog: math.MaxFloat64}); err != nil {
		t.Fatal(err)
	}
	st := gen.Next()
	st.Price = 1e9 // θ ≫ 1 at every frequency
	res, err := ctrl.Step(st)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.Objective, 1) || res.Backlog != math.MaxFloat64 {
		t.Errorf("objective %v, backlog %v; want +Inf and the restored backlog", res.Objective, res.Backlog)
	}
}
