package core_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"eotora/internal/core"
	"eotora/internal/policy"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// restoreTarget is a policy under the fuzzed restore: its checkpoint,
// restore and next decision.
type restoreTarget struct {
	name string
	st   *trace.State
	pol  policy.Policy
}

// fuzzSystem builds a small system with the given room count, per-room
// budgets when rooms > 1, and one recorded state.
func fuzzSystem(t testing.TB, rooms int) (*core.System, *trace.State) {
	t.Helper()
	spec := topology.DefaultSpec(8)
	spec.Stations, spec.UmbrellaStations, spec.Rooms, spec.ServersPerRoom = 3, 1, rooms, 2
	src := rng.New(3)
	net, err := topology.Generate(spec, src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(net, core.DefaultEnergyModels(len(net.Servers), src.Derive("energy")), 3600, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.Budget = sys.EnergyCost(sys.HighestFrequencies(), 50) / 2
	if rooms > 1 {
		highs := sys.RoomEnergyCosts(sys.HighestFrequencies(), 50)
		sys.RoomBudgets = make(map[int]units.Money, rooms)
		for _, r := range net.Rooms {
			sys.RoomBudgets[r.ID] = highs[r.ID] / 2
		}
	}
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	return sys, gen.Next()
}

// FuzzReadCheckpoint decodes arbitrary checkpoint JSON and restores every
// decoded checkpoint into a global controller, a 3-room controller and a
// 3-room baseline. A rejected restore must leave the policy's checkpoint
// unchanged; an accepted one must let the next slot decide, with finite,
// non-negative backlogs.
func FuzzReadCheckpoint(f *testing.F) {
	f.Add(`{"slot": 5, "backlog": 1.5, "v": 100, "solver": "CGBA", "seed": 42}`)
	f.Add(`{}`)
	f.Add(`{"slot": -1}`)
	f.Add(`garbage`)
	f.Add(`{"room_backlogs": {"0": 1.5}}`)
	f.Add(`{"slot": 2, "backlog": 3, "v": 100, "solver": "CGBA", "seed": 42, "room_backlogs": {"0": 1, "1": 0.5, "2": 1.5}}`)
	f.Add(`{"slot": 2, "backlog": 3, "v": 100, "solver": "CGBA", "seed": 42, "room_backlogs": {"0": 1, "1": 2, "999": 500}}`)
	f.Add(`{"slot": 2, "backlog": 3, "v": 100, "solver": "CGBA", "seed": 42, "room_backlogs": {"0": 1, "1": 2}}`)
	f.Add(`{"slot": 2, "backlog": 3, "v": 100, "solver": "greedy-energy", "seed": 42, "room_backlogs": {"0": 1, "1": 0.5, "2": 1.5}}`)
	f.Add(`{"slot": 2, "backlog": 0, "v": 100, "solver": "greedy-energy", "seed": 42}`)
	f.Add(`{"slot": 4, "backlog": 1e308, "v": 100, "solver": "CGBA", "seed": 42, "room_backlogs": {"0": 1e308, "1": 1e308, "2": 0}}`)
	f.Add(`{"slot": 4, "backlog": 1, "v": 100, "solver": "CGBA", "seed": 42, "prev_station": [0], "prev_server": [0, 1]}`)

	globalSys, globalSt := fuzzSystem(f, 1)
	roomSys, roomSt := fuzzSystem(f, 3)
	targets := func(t *testing.T) []restoreTarget {
		global, err := core.NewBDMAController(globalSys, 100, 1, 0, 42)
		if err != nil {
			t.Fatal(err)
		}
		rooms, err := core.NewBDMAController(roomSys, 100, 1, 0, 42)
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := policy.New(policy.GreedyEnergy, roomSys, policy.Config{V: 100, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return []restoreTarget{{"global", globalSt, global}, {"rooms", roomSt, rooms}, {"baseline", roomSt, baseline}}
	}
	f.Fuzz(func(t *testing.T, data string) {
		cp, err := core.ReadCheckpoint(strings.NewReader(data))
		if err != nil {
			return
		}
		for _, tg := range targets(t) {
			before := tg.pol.Checkpoint()
			if err := tg.pol.Restore(cp); err != nil {
				if after := tg.pol.Checkpoint(); !reflect.DeepEqual(after, before) {
					t.Fatalf("%s: rejected restore (%v) changed the checkpoint from %+v to %+v", tg.name, err, before, after)
				}
				continue
			}
			res, err := tg.pol.Decide(tg.pol.Slot()+1, tg.st)
			if err != nil {
				t.Fatalf("%s: slot after an accepted restore: %v", tg.name, err)
			}
			backlogs := []float64{res.Backlog, tg.pol.Backlog()}
			for _, q := range res.RoomBacklogs {
				backlogs = append(backlogs, q)
			}
			for _, q := range backlogs {
				if !(q >= 0) || math.IsInf(q, 1) {
					t.Fatalf("%s: backlog %v after an accepted restore", tg.name, q)
				}
			}
		}
	})
}
