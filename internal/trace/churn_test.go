package trace

import (
	"reflect"
	"slices"
	"testing"

	"eotora/internal/topology"
)

// churnHarness builds a small network plus two independent generators of
// the same seed, so a churned and an unchurned stream can be compared
// slot for slot.
func churnHarness(t *testing.T, devices int) (*topology.Network, *Generator, *Generator) {
	t.Helper()
	net := testNetwork(t, devices)
	genA, err := NewGenerator(net, DefaultGeneratorConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	genB, err := NewGenerator(net, DefaultGeneratorConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return net, genA, genB
}

func TestChurnConfigValidate(t *testing.T) {
	bad := []ChurnConfig{
		{DeviceJoinProb: -0.1, InitialActiveFraction: 1},
		{DeviceLeaveProb: 1.5, InitialActiveFraction: 1},
		{HandoverProb: -1, InitialActiveFraction: 1},
		{ServerRemoveProb: 2, InitialActiveFraction: 1},
		{ServerAddProb: -0.5, InitialActiveFraction: 1},
		{MinActiveDevices: -1, InitialActiveFraction: 1},
		{InitialActiveFraction: 0},
		{InitialActiveFraction: 1.01},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := DefaultChurnConfig(1).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestScaledChurnConfig: intensity 1 is the default regime field for
// field, 4 scales every probability fourfold (the defaults are all at or
// below 0.05, so nothing clamps yet), 100 clamps every one to 1, and 0
// zeroes them; the seed and the non-probability fields always pass
// through.
func TestScaledChurnConfig(t *testing.T) {
	if got, want := ScaledChurnConfig(1, 9), DefaultChurnConfig(9); got != want {
		t.Errorf("intensity 1 = %+v, want the default %+v", got, want)
	}
	def := DefaultChurnConfig(9)
	for _, tc := range []struct {
		intensity float64
		scale     func(p float64) float64
	}{
		{4, func(p float64) float64 { return 4 * p }},
		{100, func(float64) float64 { return 1 }},
		{0, func(float64) float64 { return 0 }},
	} {
		cfg := ScaledChurnConfig(tc.intensity, 9)
		want := def
		want.DeviceJoinProb, want.DeviceLeaveProb = tc.scale(def.DeviceJoinProb), tc.scale(def.DeviceLeaveProb)
		want.HandoverProb = tc.scale(def.HandoverProb)
		want.ServerRemoveProb, want.ServerAddProb = tc.scale(def.ServerRemoveProb), tc.scale(def.ServerAddProb)
		if cfg != want {
			t.Errorf("intensity %g = %+v, want %+v", tc.intensity, cfg, want)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("intensity %g: %v", tc.intensity, err)
		}
	}
}

func TestChurnScheduleNeedsDevices(t *testing.T) {
	net := testNetwork(t, 10)
	gen, err := NewGenerator(net, DefaultGeneratorConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := topology.Generate(topology.DefaultSpec(0), nil)
	if err == nil {
		if _, err := NewChurnSchedule(DefaultChurnConfig(1), empty, gen); err == nil {
			t.Error("schedule accepted a network without devices")
		}
	}
	if _, err := NewChurnSchedule(ChurnConfig{InitialActiveFraction: -1}, net, gen); err == nil {
		t.Error("schedule accepted an invalid config")
	}
}

// TestChurnZeroPassthrough: a zero-probability config with a full initial
// population is a bit-exact passthrough — nil masks, no events, and every
// state field identical to the wrapped source.
func TestChurnZeroPassthrough(t *testing.T) {
	net, genA, genB := churnHarness(t, 20)
	cfg := ChurnConfig{Seed: 3, InitialActiveFraction: 1}
	sched, err := NewChurnSchedule(cfg, net, genA)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Period() != genB.Period() {
		t.Errorf("Period %d, want %d", sched.Period(), genB.Period())
	}
	for slot := 0; slot < 40; slot++ {
		got, want := sched.Next(), genB.Next()
		if got.DeviceActive != nil || got.ServerActive != nil {
			t.Fatalf("slot %d: zero-churn state carries activity masks", slot)
		}
		if len(got.Churn) != 0 {
			t.Fatalf("slot %d: zero-churn state carries %d events", slot, len(got.Churn))
		}
		if !reflect.DeepEqual(got.TaskSizes, want.TaskSizes) ||
			!reflect.DeepEqual(got.DataLengths, want.DataLengths) ||
			!reflect.DeepEqual(got.Channels, want.Channels) ||
			!reflect.DeepEqual(got.FronthaulSE, want.FronthaulSE) ||
			got.Price != want.Price {
			t.Fatalf("slot %d: zero-churn state diverged from the wrapped source", slot)
		}
	}
}

// TestChurnDeterminism: two schedules of the same config over identical
// sources publish identical masks and event lists at every slot.
func TestChurnDeterminism(t *testing.T) {
	net, genA, genB := churnHarness(t, 25)
	cfg := DefaultChurnConfig(17)
	cfg.HandoverProb = 0.2 // make events frequent enough to compare
	a, err := NewChurnSchedule(cfg, net, genA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewChurnSchedule(cfg, net, genB)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	for slot := 0; slot < 60; slot++ {
		sa, sb := a.Next(), b.Next()
		if !reflect.DeepEqual(sa.DeviceActive, sb.DeviceActive) ||
			!reflect.DeepEqual(sa.ServerActive, sb.ServerActive) ||
			!reflect.DeepEqual(sa.Churn, sb.Churn) {
			t.Fatalf("slot %d: same-seed schedules diverged", slot)
		}
		events += len(sa.Churn)
	}
	if events == 0 {
		t.Fatal("no churn events in 60 slots — probabilities not applied?")
	}
}

// TestChurnInvariants walks a lively schedule and asserts the structural
// guards: the device floor holds, joined devices are covered, handed-over
// devices keep at least one covered station, and no station that reaches
// any server is left without an active reachable server.
func TestChurnInvariants(t *testing.T) {
	net, genA, _ := churnHarness(t, 30)
	cfg := ChurnConfig{
		Seed:                  9,
		DeviceJoinProb:        0.1,
		DeviceLeaveProb:       0.3,
		HandoverProb:          0.3,
		ServerRemoveProb:      0.5,
		ServerAddProb:         0.2,
		MinActiveDevices:      4,
		InitialActiveFraction: 0.5,
	}
	sched, err := NewChurnSchedule(cfg, net, genA)
	if err != nil {
		t.Fatal(err)
	}
	stations, _, servers, devices := net.Counts()
	kinds := make(map[ChurnKind]int)
	for slot := 0; slot < 200; slot++ {
		st := sched.Next()
		active := st.ActiveDevices(devices)
		if active < cfg.MinActiveDevices {
			t.Fatalf("slot %d: %d active devices below floor %d", slot, active, cfg.MinActiveDevices)
		}
		for _, ev := range st.Churn {
			kinds[ev.Kind]++
			switch ev.Kind {
			case DeviceJoin, DeviceLeave, Handover:
				if ev.Device < 0 || ev.Device >= devices || ev.Server != -1 {
					t.Fatalf("slot %d: malformed device event %+v", slot, ev)
				}
			case ServerAdd, ServerRemove:
				if ev.Server < 0 || ev.Server >= servers || ev.Device != -1 {
					t.Fatalf("slot %d: malformed server event %+v", slot, ev)
				}
			}
			if ev.Kind == Handover {
				if st.Covered(ev.Device, ev.Station) {
					t.Fatalf("slot %d: handover left channel (%d, %d) covered", slot, ev.Device, ev.Station)
				}
				if len(st.Channels[ev.Device]) == 0 {
					t.Fatalf("slot %d: handover stranded device %d", slot, ev.Device)
				}
			}
		}
		// Every station that reaches any server must still reach an
		// active one, so no covered device can be stranded by removals.
		for k := 0; k < stations; k++ {
			reach := net.ReachableServers(k)
			if len(reach) == 0 {
				continue
			}
			ok := false
			for _, n := range reach {
				if st.ActiveServer(n) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("slot %d: station %d has no active reachable server", slot, k)
			}
		}
	}
	for _, k := range []ChurnKind{DeviceJoin, DeviceLeave, Handover, ServerRemove, ServerAdd} {
		if kinds[k] == 0 {
			t.Errorf("no %v events in 200 slots with aggressive probabilities", k)
		}
	}
}

// TestChurnCopyOnWriteChannels: handover edits must not write through to
// the rows of a recorded or replayed state, whose links share one
// backing array.
func TestChurnCopyOnWriteChannels(t *testing.T) {
	net, _, genB := churnHarness(t, 20)
	states := Record(genB, 10)
	// The rows as recorded, before the schedule sees them, and deep
	// copies to compare them with afterwards.
	rows := make([][][]Link, len(states))
	want := make([][][]Link, len(states))
	for s, st := range states {
		rows[s] = slices.Clone(st.Channels)
		for _, row := range st.Channels {
			want[s] = append(want[s], slices.Clone(row))
		}
	}
	re, err := NewReplay(states, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewChurnSchedule(ChurnConfig{Seed: 2, HandoverProb: 1, InitialActiveFraction: 1}, net, re)
	if err != nil {
		t.Fatal(err)
	}
	handovers := 0
	for s := range states {
		for _, ev := range sched.Next().Churn {
			if ev.Kind == Handover {
				handovers++
			}
		}
		if !reflect.DeepEqual(rows[s], want[s]) {
			t.Fatalf("slot %d: a handover wrote through to the recorded rows", s)
		}
	}
	if handovers == 0 {
		t.Fatal("no handover fired in 10 slots with probability 1")
	}
}

// TestChurnMaskCopy: a full mask publishes nil (the exact legacy path), a
// partial one publishes an independent copy.
func TestChurnMaskCopy(t *testing.T) {
	if got := maskCopy([]bool{true, true, true}); got != nil {
		t.Errorf("full mask published %v, want nil", got)
	}
	src := []bool{true, false, true}
	got := maskCopy(src)
	if !reflect.DeepEqual(got, src) {
		t.Fatalf("maskCopy = %v, want %v", got, src)
	}
	got[1] = true
	if src[1] {
		t.Error("maskCopy aliases its input")
	}
}

// TestChurnKindString covers the Stringer, including the unknown case.
func TestChurnKindString(t *testing.T) {
	want := map[ChurnKind]string{
		DeviceJoin:   "device-join",
		DeviceLeave:  "device-leave",
		Handover:     "handover",
		ServerAdd:    "server-add",
		ServerRemove: "server-remove",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if ChurnKind(99).String() != "churn-kind(99)" {
		t.Errorf("unknown kind = %q", ChurnKind(99).String())
	}
}

// TestStateActiveAccessors: nil masks and out-of-range indices read as
// active; explicit masks are honored.
func TestStateActiveAccessors(t *testing.T) {
	st := &State{}
	if !st.ActiveDevice(0) || !st.ActiveServer(5) {
		t.Error("nil masks must read as active")
	}
	if st.ActiveDevices(3) != 3 || st.ActiveServers(2) != 2 {
		t.Error("nil masks must count the full universe")
	}
	st.DeviceActive = []bool{true, false}
	st.ServerActive = []bool{false}
	if st.ActiveDevice(1) || !st.ActiveDevice(0) || st.ActiveServer(0) {
		t.Error("explicit masks not honored")
	}
	if !st.ActiveDevice(7) || !st.ActiveServer(7) {
		t.Error("out-of-range indices must read as active")
	}
	if st.ActiveDevices(2) != 1 || st.ActiveServers(1) != 0 {
		t.Error("mask counts wrong")
	}
}
