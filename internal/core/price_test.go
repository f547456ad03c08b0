package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"eotora/internal/obs"
	"eotora/internal/rng"
	"eotora/internal/solver"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// statePriced is the state-based pricing of a selection: P2-B, T_t, the
// P2 objective, Θ and the Lemma-1 shares recomputed from (sel, st) with
// the serial entry points. roomQ, when non-nil, holds per-room backlogs
// in Net.Rooms order and selects the per-room budget; the global budget
// is priced by the exported scalar references.
type statePriced struct {
	freq                       Frequencies
	latency, objective, theta  float64
	access, fronthaul, compute []float64
}

func priceFromState(t *testing.T, sys *System, st *trace.State, sel Selection, v, q float64, roomQ []float64) statePriced {
	t.Helper()
	var (
		p   statePriced
		err error
	)
	if roomQ != nil {
		b := roomBudget(t, sys, roomQ...)
		p.freq, err = b.stateP2B(sel, st, v)
		p.objective = b.stateObjective(sel, p.freq, st, v)
		p.theta = b.thetas(p.freq, st.Price, st.ServerActive)
	} else {
		p.freq, err = sys.SolveP2B(sel, st, v, q)
	}
	if err != nil {
		t.Fatal(err)
	}
	p.latency = sys.ReducedLatency(sel, p.freq, st).Value()
	if roomQ == nil {
		p.objective = sys.P2Objective(sel, p.freq, st, v, q)
		p.theta = sys.ThetaActive(p.freq, st.Price, st.ServerActive)
	}
	a := sys.OptimalAllocation(sel, st)
	p.access, p.fronthaul, p.compute = a.AccessShare, a.FronthaulShare, a.ComputeShare
	return p
}

// requireSameBits fails unless two float slices agree bit for bit.
func requireSameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, state-priced %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, state-priced %v", label, i, got[i], want[i])
		}
	}
}

// requirePriced fails unless a game-priced decision (freq, objective, θ,
// shares, and latency when wantLatency) equals the state pricing of its
// own selection bit for bit.
func requirePriced(t *testing.T, label string, want statePriced, freq Frequencies, objective, theta float64,
	alloc Allocation, latency float64, wantLatency bool) {
	t.Helper()
	freqs := func(f Frequencies) []float64 {
		out := make([]float64, len(f))
		for n := range f {
			out[n] = float64(f[n])
		}
		return out
	}
	requireSameBits(t, label+" P2-B frequency", freqs(freq), freqs(want.freq))
	scalars := []float64{objective, theta}
	wantScalars := []float64{want.objective, want.theta}
	if wantLatency {
		scalars, wantScalars = append(scalars, latency), append(wantScalars, want.latency)
	}
	requireSameBits(t, label+" (objective, θ, latency)", scalars, wantScalars)
	requireSameBits(t, label+" access share", alloc.AccessShare, want.access)
	requireSameBits(t, label+" fronthaul share", alloc.FronthaulShare, want.fronthaul)
	requireSameBits(t, label+" compute share", alloc.ComputeShare, want.compute)
}

// noOpDevices rewrites every recorded state so that devices cycle
// through f = 0, d = 0 and f = d = 0 (the pinned no-op) alongside normal
// ones, whose data lengths shrink until access sums fall below 1 and a
// pin read as a share numerator would not underflow to 0; commOnly
// zeroes d for every device instead, so stations whose only users are
// pinned devices carry pins alone.
func noOpDevices(states []*trace.State, commOnly bool) {
	for _, st := range states {
		st.TaskSizes = slices.Clone(st.TaskSizes)
		st.DataLengths = slices.Clone(st.DataLengths)
		for i := range st.TaskSizes {
			zeroF, zeroD := i%4 == 1 || i%4 == 3, i%4 >= 2
			if commOnly {
				zeroF, zeroD = i%2 == 0, true
			}
			if zeroF {
				st.TaskSizes[i] = 0
			}
			if zeroD {
				st.DataLengths[i] = 0
			} else {
				st.DataLengths[i] *= 1e-9
			}
		}
	}
}

// priceCase is one configuration of the game-pricing equivalence matrix.
type priceCase struct {
	name   string
	spec   topology.Spec
	churn  bool
	rooms  bool
	noOp   int // 0 none, 1 mixed no-op devices, 2 d = 0 everywhere
	z      int
	solver P2ASolver
	checks []int // counted slot budgets; nil runs undeadlined
}

// TestPriceFromGameMatchesState is the contract of pricing BDMA rounds
// from the P2-A game: the controller's objective, θ, P2-B frequencies
// and Lemma-1 shares, and BDMAResult's latency and objective, equal the
// state-based System.SolveP2B/ReducedLatency/P2Objective/
// OptimalAllocation of the same selection bit for bit — on the paper
// shape, churned sharded metro, per-room budgets, deadline-truncated
// slots, and f = 0, d = 0 and pinned f = d = 0 devices, at pool sizes
// 0/1/2/4.
func TestPriceFromGameMatchesState(t *testing.T) {
	const slots, v = 6, 100.0
	small := smallSpec(30)
	cases := []priceCase{
		{name: "paper", spec: topology.DefaultSpec(200), z: 5, solver: CGBASolver{}},
		{name: "metro-churn-sharded", spec: topology.MetroSpec(60), churn: true, z: 3,
			solver: CGBASolver{Lambda: 0.05, Shards: ShardsAuto}},
		{name: "rooms", spec: small, rooms: true, churn: true, z: 5, solver: CGBASolver{}},
		{name: "deadline", spec: smallSpec(40), z: 5, solver: CGBASolver{}, checks: []int{4, 12, 40, 120}},
		{name: "no-op-devices", spec: small, noOp: 1, z: 3, solver: CGBASolver{}},
		{name: "pins-only-stations", spec: small, noOp: 2, z: 3, solver: CGBASolver{}},
		{name: "mcba", spec: small, churn: true, z: 3, solver: MCBASolver{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, gen := buildSpecSystem(t, tc.spec, 53)
			if tc.rooms {
				withRoomBudgets(t, sys, map[int]float64{0: 0.5, 1: 0.4})
			}
			var states []*trace.State
			if tc.churn {
				sched, err := trace.NewChurnSchedule(aggressiveChurn(59), sys.Net, gen)
				if err != nil {
					t.Fatal(err)
				}
				states = trace.Record(sched, slots)
			} else {
				states = trace.Record(gen, slots)
			}
			if tc.noOp > 0 {
				noOpDevices(states, tc.noOp == 2)
			}
			checks := tc.checks
			if checks == nil {
				checks = []int{0}
			}
			cfg := BDMAConfig{Iterations: tc.z, Solver: tc.solver}
			anytime := 0
			for _, size := range []int{0, 1, 2, 4} {
				for _, budget := range checks {
					anytime += checkControllerPricing(t, sys, states, cfg, size, budget, tc.rooms, v)
					anytime += checkBDMAPricing(t, sys, states, cfg, size, budget, tc.rooms, v)
				}
			}
			if tc.checks != nil && anytime == 0 {
				t.Fatal("no budget truncated a slot; the anytime rung was tested vacuously")
			}
		})
	}
}

// checkControllerPricing steps a controller over the states and checks
// every full- and anytime-rung slot against the state pricing of its
// selection under the backlogs the slot saw. It returns the number of
// anytime slots.
func checkControllerPricing(t *testing.T, sys *System, states []*trace.State, cfg BDMAConfig, size, checks int, rooms bool, v float64) int {
	t.Helper()
	ctrl, err := NewController(sys, ControllerConfig{V: v, BDMA: cfg, Seed: 61, SlotChecks: checks})
	if err != nil {
		t.Fatal(err)
	}
	pool := withPool(size)
	defer pool.Close()
	ctrl.SetPool(pool)
	anytime := 0
	q, roomQ := 0.0, []float64(nil)
	if rooms {
		roomQ = make([]float64, len(sys.Net.Rooms))
	}
	for slot, st := range states {
		r, err := ctrl.Step(st)
		if err != nil {
			t.Fatal(err)
		}
		if r.Rung <= RungAnytime {
			want := priceFromState(t, sys, st, r.Decision.Selection, v, q, roomQ)
			label := fmt.Sprintf("pool %d checks %d slot %d controller", size, checks, slot)
			requirePriced(t, label, want, r.Decision.Freq, r.Objective, r.Theta, r.Decision.Allocation, 0, false)
		}
		if r.Rung == RungAnytime {
			anytime++
		}
		q = r.Backlog
		for g := range roomQ {
			roomQ[g] = r.RoomBacklogs[sys.Net.Rooms[g].ID]
		}
	}
	return anytime
}

// checkBDMAPricing runs BDMA directly over the states (queue weights
// varying by slot) and checks each result, its latency included, and
// the shares the controller would read from the kept best round. It
// returns the number of degraded results.
func checkBDMAPricing(t *testing.T, sys *System, states []*trace.State, cfg BDMAConfig, size, checks int, rooms bool, v float64) int {
	t.Helper()
	pool := withPool(size)
	defer pool.Close()
	reg := obs.New()
	in := solveInstr{bdmaRounds: reg.Counter(MetricBDMARounds)}
	scratch := new(P2A)
	degraded := 0
	for slot, st := range states {
		src := rng.New(67).Derive(fmt.Sprintf("slot-%d", slot))
		var dl *solver.Deadline
		if checks > 0 {
			dl = new(solver.Deadline)
			dl.Start(0, checks)
		}
		q := float64(slot%3) * 40
		b, rq := sys.globalBudget(q), []float64(nil)
		if rooms {
			rq = []float64{q, q / 3}
			b = roomBudget(t, sys, rq...)
		}
		res, err := sys.bdmaScratch(st, v, b, cfg, src, scratch, in, pool, dl)
		if errors.Is(err, ErrSlotDeadline) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded {
			degraded++
		}
		want := priceFromState(t, sys, st, res.Selection, v, q, rq)
		label := fmt.Sprintf("pool %d checks %d slot %d BDMA", size, checks, slot)
		theta := b.thetas(res.Freq, st.Price, st.ServerActive)
		requirePriced(t, label, want, res.Freq, res.Objective, theta, scratch.bestAllocation(), res.Latency, true)
	}
	return degraded
}

// TestPriceFromGamePinnedLoads checks the loads of a station used only by
// pinned f = d = 0 devices: the game sums their pins, and priceLoads
// must clear that to the state sum's exact 0.
func TestPriceFromGamePinnedLoads(t *testing.T) {
	sys, gen := buildSystem(t, 12, 71)
	states := trace.Record(gen, 1)
	noOpDevices(states, true)
	st := states[0]
	p, err := sys.NewP2A(st, sys.LowestFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	profile := make([]int, p.Game().Players()) // every player's first pair
	sel := p.Selection(profile)
	pinsOnly := 0
	for _, l := range p.Game().Loads(profile) {
		if l > 0 && l < 0x1p-1022 {
			pinsOnly++
		}
	}
	if pinsOnly == 0 {
		t.Fatal("no load of pins alone; the case is vacuous")
	}
	requireSameBits(t, "loads", p.priceLoads(profile), sys.lemma1Sums(make([]float64, p.Game().Resources()), sel, st))
}
