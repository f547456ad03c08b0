package policy

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"eotora/internal/core"
	"eotora/internal/faults"
	"eotora/internal/game"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// refBaseline is the baselines' own decision chassis as it stood before
// they became rule controllers (core.NewRuleController), kept as the
// reference they must match bit for bit: the selection rule at a fixed
// frequency point, Lemma-1 allocation, the V·T + Q·Θ objective priced
// before the queue commit, and a checkpoint of (slot, V, name, seed,
// backlogs).
type refBaseline struct {
	name   string
	sys    *core.System
	budget *core.Budget
	v      float64
	seed   int64
	slot   int
	freq   core.Frequencies
	pick   func(b *refBaseline, st *trace.State) (core.Selection, error)
	p2a    core.P2A
}

func newRefBaseline(name string, sys *core.System, cfg Config) (*refBaseline, error) {
	budget, err := core.NewBudget(sys, cfg.InitialBacklog)
	if err != nil {
		return nil, err
	}
	b := &refBaseline{name: name, sys: sys, budget: budget, v: cfg.V, seed: cfg.Seed}
	switch name {
	case GreedyEnergy:
		b.freq, b.pick = sys.LowestFrequencies(), refPickGreedy
	case GreedyDeadline:
		b.freq, b.pick = sys.HighestFrequencies(), refPickGreedy
	case Random:
		b.freq, b.pick = sys.LowestFrequencies(), refPickRandom
	case LocalOnly:
		b.freq, b.pick = sys.LowestFrequencies(), refPickLocalOnly
	case EdgeOnly:
		b.freq, b.pick = sys.HighestFrequencies(), refPickEdgeOnly
	default:
		return nil, fmt.Errorf("%q is not a baseline", name)
	}
	return b, nil
}

func (b *refBaseline) Decide(st *trace.State) (*core.SlotResult, error) {
	b.slot++
	sel, err := b.pick(b, st)
	if err != nil {
		return nil, err
	}
	if err := b.sys.Validate(sel, st); err != nil {
		return nil, err
	}
	alloc := b.sys.OptimalAllocation(sel, st)
	decision := core.Decision{Selection: sel, Allocation: alloc, Freq: b.freq}
	total, perDevice := b.sys.LatencyOf(decision, st)
	out := &core.SlotResult{
		Slot:       b.slot,
		Decision:   decision,
		Latency:    total,
		PerDevice:  perDevice,
		EnergyCost: b.sys.EnergyCostActive(b.freq, st.Price, st.ServerActive),
		Rung:       core.RungFull,
	}
	out.Objective = b.budget.Objective(b.sys.ReducedLatency(sel, b.freq, st).Value(), b.freq, st, b.v)
	out.Theta, out.Backlog = b.budget.Commit(b.freq, st.Price, st.ServerActive)
	out.RoomBacklogs = b.budget.RoomBacklogs()
	return out, nil
}

func (b *refBaseline) Checkpoint() core.Checkpoint {
	cp := core.Checkpoint{Slot: b.slot, V: b.v, Solver: b.name, Seed: b.seed}
	b.budget.Save(&cp)
	return cp
}

func refPickGreedy(b *refBaseline, st *trace.State) (core.Selection, error) {
	if err := b.sys.BuildP2A(&b.p2a, st, b.freq); err != nil {
		return core.Selection{}, err
	}
	return b.p2a.Selection(game.GreedyProfile(b.p2a.Game()).Profile), nil
}

func refPickRandom(b *refBaseline, st *trace.State) (core.Selection, error) {
	if err := b.sys.BuildP2A(&b.p2a, st, b.freq); err != nil {
		return core.Selection{}, err
	}
	src := rng.New(b.seed).Derive(fmt.Sprintf("policy-%s-slot-%d", b.name, b.slot))
	return b.p2a.Selection(game.RandomProfile(b.p2a.Game(), src).Profile), nil
}

func refPickLocalOnly(b *refBaseline, st *trace.State) (core.Selection, error) {
	if err := b.sys.CheckState(st); err != nil {
		return core.Selection{}, err
	}
	_, _, _, devices := b.sys.Net.Counts()
	sel := refEmptySelection(devices)
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		k, n, ok := b.sys.FirstFeasiblePair(i, st)
		if !ok {
			return core.Selection{}, fmt.Errorf("device %d has no feasible pair", i)
		}
		sel.Station[i], sel.Server[i] = k, n
	}
	return sel, nil
}

func refPickEdgeOnly(b *refBaseline, st *trace.State) (core.Selection, error) {
	if err := b.sys.CheckState(st); err != nil {
		return core.Selection{}, err
	}
	_, _, servers, devices := b.sys.Net.Counts()
	sel := refEmptySelection(devices)
	load := make([]int, servers)
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		bestK, bestSE := -1, 0.0
		for k := range b.sys.Net.BaseStations {
			if se := float64(st.Channel(i, k)); se > bestSE {
				bestK, bestSE = k, se
			}
		}
		if bestK < 0 {
			return core.Selection{}, fmt.Errorf("device %d out of coverage", i)
		}
		n := -1
		for pass := 0; pass < 2 && n < 0; pass++ {
			for _, srv := range b.sys.Net.ReachableServers(bestK) {
				if !st.ActiveServer(srv) || (pass == 0 && st.Down(srv)) {
					continue
				}
				if n < 0 || load[srv] < load[n] {
					n = srv
				}
			}
		}
		if n < 0 {
			k, srv, ok := b.sys.FirstFeasiblePair(i, st)
			if !ok {
				return core.Selection{}, fmt.Errorf("device %d has no feasible pair", i)
			}
			bestK, n = k, srv
		}
		sel.Station[i], sel.Server[i] = bestK, n
		load[n]++
	}
	return sel, nil
}

func refEmptySelection(devices int) core.Selection {
	sel := core.Selection{Station: make([]int, devices), Server: make([]int, devices)}
	for i := range sel.Station {
		sel.Station[i], sel.Server[i] = -1, -1
	}
	return sel
}

// threeRoomSystem builds a metro system cut to three server rooms, each
// budgeted at a different fraction of its cost range.
func threeRoomSystem(t testing.TB, devices int, seed int64) (*core.System, *trace.Generator) {
	t.Helper()
	spec := topology.MetroSpec(devices)
	spec.Rooms, spec.RoomGrid = 3, false
	sys, gen := buildSystem(t, spec, seed)
	ref := units.Price(50)
	lows := sys.RoomEnergyCosts(sys.LowestFrequencies(), ref)
	highs := sys.RoomEnergyCosts(sys.HighestFrequencies(), ref)
	sys.RoomBudgets = make(map[int]units.Money, len(sys.Net.Rooms))
	for g, r := range sys.Net.Rooms {
		frac := 0.2 + 0.3*float64(g)
		sys.RoomBudgets[r.ID] = lows[r.ID] + units.Money(frac*float64(highs[r.ID]-lows[r.ID]))
	}
	if len(sys.Net.Rooms) != 3 {
		t.Fatalf("%d rooms, want 3", len(sys.Net.Rooms))
	}
	return sys, gen
}

// faultedTrace is a churned state source with server outages
// (State.ServerDown) and capacity-loss windows (State.CapScale).
func faultedTrace(t testing.TB, sys *core.System, gen *trace.Generator, seed int64) trace.Source {
	t.Helper()
	sched, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(seed), sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(faults.Config{
		Seed: seed, OutageProb: 0.3, OutageSlots: 3, CapLossProb: 0.3, CapLossScale: 0.5,
	}, len(sys.Net.Servers), sched)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestBaselinesMatchReference: every baseline, run as a rule controller
// through the seam, matches the reference chassis bit for bit — every
// SlotResult field but Elapsed, and the JSON checkpoint after every slot —
// over a churned trace with server outages and capacity loss, under the
// global budget with a nonzero initial backlog and under three per-room
// budgets.
func TestBaselinesMatchReference(t *testing.T) {
	const slots = 40
	type setup struct {
		build   func(t testing.TB) (*core.System, *trace.Generator)
		backlog float64
	}
	setups := map[string]setup{
		"global": {func(t testing.TB) (*core.System, *trace.Generator) { return buildSystem(t, testSpec(30), 11) }, 25},
		"rooms":  {func(t testing.TB) (*core.System, *trace.Generator) { return threeRoomSystem(t, 60, 12) }, 0},
	}
	for setupName, su := range setups {
		for _, name := range baselines {
			t.Run(setupName+"/"+name, func(t *testing.T) {
				sys, gen := su.build(t)
				src := faultedTrace(t, sys, gen, 13)
				cfg := Config{V: 90, InitialBacklog: su.backlog, Seed: 13}
				ref, err := newRefBaseline(name, sys, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sysP, _ := su.build(t)
				pol, err := New(name, sysP, cfg)
				if err != nil {
					t.Fatal(err)
				}
				down, capLoss := 0, 0
				for s := 1; s <= slots; s++ {
					st := src.Next()
					if st.ServerDown != nil {
						down++
					}
					if st.CapScale != nil {
						capLoss++
					}
					want, wantErr := ref.Decide(st)
					got, gotErr := pol.Decide(s, st)
					if gotErr != nil || wantErr != nil {
						t.Fatalf("slot %d: error %v, reference %v", s, gotErr, wantErr)
					}
					got.Elapsed = 0
					if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
						t.Fatalf("slot %d: result\n got %s\nwant %s", s, g, w)
					}
					var gotCP, wantCP bytes.Buffer
					if err := core.WriteCheckpointTo(&gotCP, pol.Checkpoint()); err != nil {
						t.Fatal(err)
					}
					if err := core.WriteCheckpointTo(&wantCP, ref.Checkpoint()); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gotCP.Bytes(), wantCP.Bytes()) {
						t.Fatalf("slot %d: checkpoint\n got %s\nwant %s", s, gotCP.Bytes(), wantCP.Bytes())
					}
				}
				if down == 0 || capLoss == 0 {
					t.Fatalf("%d slots with ServerDown, %d with CapScale; want both faults", down, capLoss)
				}
			})
		}
	}
}

// TestRestoreParentBaselineCheckpoint: greedy-deadline checkpoints in the
// format the baselines wrote before they became rule controllers — one
// under the global budget, one under three room budgets — are still what
// they write, restore, and continue bit-identically to an uninterrupted
// run; every malformed variant is rejected and leaves Checkpoint()
// unchanged.
func TestRestoreParentBaselineCheckpoint(t *testing.T) {
	const slots, cut = 12, 6
	cases := map[string]struct {
		build func(t testing.TB) (*core.System, *trace.Generator)
		cfg   Config
		json  string
		bad   map[string]func(cp *core.Checkpoint)
	}{
		"global": {
			build: func(t testing.TB) (*core.System, *trace.Generator) { return buildSystem(t, testSpec(10), 21) },
			cfg:   Config{V: 90, InitialBacklog: 3, Seed: 21},
			json: `{
  "slot": 6,
  "backlog": 2.879909083216389,
  "v": 90,
  "solver": "greedy-deadline",
  "seed": 21
}
`,
		},
		"rooms": {
			build: func(t testing.TB) (*core.System, *trace.Generator) { return threeRoomSystem(t, 40, 22) },
			cfg:   Config{V: 90, Seed: 22},
			json: `{
  "slot": 6,
  "backlog": 0.442594225916385,
  "v": 90,
  "solver": "greedy-deadline",
  "seed": 22,
  "room_backlogs": {
    "0": 0.3929519153084793,
    "1": 0.04964231060790569,
    "2": 0
  }
}
`,
			bad: map[string]func(cp *core.Checkpoint){
				"foreign room":     func(cp *core.Checkpoint) { cp.RoomBacklogs[999] = 500 },
				"missing room":     func(cp *core.Checkpoint) { delete(cp.RoomBacklogs, 0) },
				"NaN room backlog": func(cp *core.Checkpoint) { cp.RoomBacklogs[1] = math.NaN() },
				"negative backlog": func(cp *core.Checkpoint) { cp.RoomBacklogs[2] = -1 },
			},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			sys, gen := tc.build(t)
			states := trace.Record(gen, slots)
			pa, err := New(GreedyDeadline, sys, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := decide(t, pa, states[:cut])
			var buf bytes.Buffer
			if err := core.WriteCheckpointTo(&buf, pa.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			if buf.String() != tc.json {
				t.Fatalf("checkpoint at slot %d:\n%s\nwant the established format\n%s", cut, buf.String(), tc.json)
			}
			want = append(want, decide(t, pa, states[cut:])...)

			sysB, _ := tc.build(t)
			pb, err := New(GreedyDeadline, sysB, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			good, err := core.ReadCheckpoint(strings.NewReader(tc.json))
			if err != nil {
				t.Fatal(err)
			}
			if err := pb.Restore(good); err != nil {
				t.Fatal(err)
			}
			if got := pb.Checkpoint(); !reflect.DeepEqual(got, good) {
				t.Fatalf("restored checkpoint %+v, want %+v", got, good)
			}

			bad := map[string]func(cp *core.Checkpoint){
				"V mismatch":      func(cp *core.Checkpoint) { cp.V = 91 },
				"solver mismatch": func(cp *core.Checkpoint) { cp.Solver = BDMA },
				"tuner state":     func(cp *core.Checkpoint) { cp.Extra = map[string]float64{"tuner_lambda": 0.1} },
			}
			for what, mutate := range tc.bad {
				bad[what] = mutate
			}
			for what, mutate := range bad {
				cp, err := core.ReadCheckpoint(strings.NewReader(tc.json))
				if err != nil {
					t.Fatal(err)
				}
				mutate(&cp)
				if err := pb.Restore(cp); err == nil {
					t.Errorf("%s: accepted", what)
				}
				if got := pb.Checkpoint(); !reflect.DeepEqual(got, good) {
					t.Errorf("%s: rejected restore changed the checkpoint to %+v", what, got)
				}
			}
			if got := decide(t, pb, states[cut:]); !reflect.DeepEqual(got, want[cut:]) {
				t.Error("run restored from the established checkpoint diverged from the uninterrupted one")
			}
		})
	}
}
