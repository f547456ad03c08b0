package policy

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"eotora/internal/core"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// baselines lists the five comparison policies.
var baselines = []string{GreedyEnergy, GreedyDeadline, Random, LocalOnly, EdgeOnly}

// roomSystem builds a metro system (25 rooms) with every room budgeted at
// a fraction of its cost range that varies by room.
func roomSystem(t *testing.T, devices int, seed int64) (*core.System, *trace.Generator) {
	t.Helper()
	sys, gen := buildSystem(t, topology.MetroSpec(devices), seed)
	ref := units.Price(50)
	lows := sys.RoomEnergyCosts(sys.LowestFrequencies(), ref)
	highs := sys.RoomEnergyCosts(sys.HighestFrequencies(), ref)
	sys.RoomBudgets = make(map[int]units.Money, len(sys.Net.Rooms))
	for g, r := range sys.Net.Rooms {
		frac := 0.2 + 0.3*float64(g%3)
		sys.RoomBudgets[r.ID] = lows[r.ID] + units.Money(frac*float64(highs[r.ID]-lows[r.ID]))
	}
	return sys, gen
}

// roomTrace is a per-room run's per-slot budget outputs, as bits.
type roomTrace struct {
	Theta, Objective, Backlog uint64
	Rooms                     map[int]float64
}

// TestBaselineRoomBudgetsDeterministic: the baselines keep their queues
// in the controller's Budget, so per-room runs on a 25-room metro add the
// rooms in a fixed order — two identical runs agree bit for bit on every
// slot and write byte-identical checkpoints.
func TestBaselineRoomBudgetsDeterministic(t *testing.T) {
	run := func(name string) ([]roomTrace, []byte) {
		sys, gen := roomSystem(t, 120, 7)
		p, err := New(name, sys, Config{V: 90, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		var out []roomTrace
		for _, st := range trace.Record(gen, 12) {
			r, err := p.Decide(p.Slot()+1, st)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, roomTrace{
				math.Float64bits(r.Theta), math.Float64bits(r.Objective), math.Float64bits(r.Backlog), r.RoomBacklogs,
			})
		}
		var buf bytes.Buffer
		if err := core.WriteCheckpointTo(&buf, p.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		return out, buf.Bytes()
	}
	for _, name := range baselines {
		t.Run(name, func(t *testing.T) {
			want, wantCP := run(name)
			if len(want[0].Rooms) < 3 {
				t.Fatalf("%d rooms; the order of a two-term sum cannot show", len(want[0].Rooms))
			}
			for i := 0; i < 3; i++ {
				got, gotCP := run(name)
				if !reflect.DeepEqual(got, want) || !bytes.Equal(gotCP, wantCP) {
					t.Fatalf("run %d diverged from run 0", i+1)
				}
			}
		})
	}
}

// TestBaselineRoomBudgetsRejectInitialBacklog: per-room queues start at
// zero, so a baseline refuses a nonzero initial backlog with room budgets.
func TestBaselineRoomBudgetsRejectInitialBacklog(t *testing.T) {
	sys, _ := roomSystem(t, 30, 8)
	for _, name := range baselines {
		_, err := New(name, sys, Config{V: 90, InitialBacklog: 4})
		if err == nil || !strings.Contains(err.Error(), "initial backlog") {
			t.Errorf("%s: error %v", name, err)
		}
	}
}

// TestBaselineRestoreRejectsMalformedBacklogs: a baseline validates the
// whole checkpoint before writing — foreign, missing and non-finite room
// backlogs are rejected and leave its checkpoint unchanged.
func TestBaselineRestoreRejectsMalformedBacklogs(t *testing.T) {
	sys, gen := roomSystem(t, 30, 9)
	p, err := New(GreedyEnergy, sys, Config{V: 90, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	decide(t, p, trace.Record(gen, 3))
	good := p.Checkpoint()
	valid := func() map[int]float64 {
		out := make(map[int]float64, len(good.RoomBacklogs))
		for room := range good.RoomBacklogs {
			out[room] = 1
		}
		return out
	}
	cases := map[string]func(map[int]float64){
		"foreign room":     func(m map[int]float64) { m[999] = 500 },
		"missing room":     func(m map[int]float64) { delete(m, sys.Net.Rooms[0].ID) },
		"NaN room backlog": func(m map[int]float64) { m[sys.Net.Rooms[1].ID] = math.NaN() },
		"negative backlog": func(m map[int]float64) { m[sys.Net.Rooms[2].ID] = -1 },
	}
	for name, mutate := range cases {
		cp := good
		cp.RoomBacklogs = valid()
		mutate(cp.RoomBacklogs)
		if err := p.Restore(cp); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := p.Checkpoint(); !reflect.DeepEqual(got, good) {
			t.Errorf("%s: rejected restore changed the checkpoint", name)
		}
	}
	cp := good
	cp.RoomBacklogs = valid()
	if err := p.Restore(cp); err != nil {
		t.Fatalf("valid room backlogs rejected: %v", err)
	}
	if got := p.Checkpoint().RoomBacklogs; !reflect.DeepEqual(got, cp.RoomBacklogs) {
		t.Errorf("restored room backlogs %v, want %v", got, cp.RoomBacklogs)
	}
}
