package core

import (
	"fmt"
	"slices"
	"testing"

	"eotora/internal/trace"
	"eotora/internal/units"
)

// Shape bits of FuzzRulePricingEquivalence's slot state.
const (
	shapeDown     = 1 << iota // Down advisories on a third of the servers
	shapeCapScale             // degraded capacity on a third of the servers
	shapeNoOp                 // devices cycling through f = 0 and d = 0
	shapeStale                // decide on the state, perform on a perturbed copy
	shapeLostLink             // the perturbed copy drops one device's links
)

// pricingStates records churned states of a 30-device system, with
// joins, leaves, handovers and server removals.
func pricingStates(t testing.TB) (*System, []*trace.State) {
	t.Helper()
	sys, gen := buildSystem(t, 30, 71)
	sched, err := trace.NewChurnSchedule(aggressiveChurn(71), sys.Net, gen)
	if err != nil {
		t.Fatal(err)
	}
	return sys, trace.Record(sched, 6)
}

// shapeState returns a copy of base shaped by the shape bits, and the
// state the decision is performed against: the copy itself, or with
// shapeStale a perturbed copy whose channels, sizes and price differ.
// shapeLostLink also drops every link of one active device there.
func shapeState(sys *System, base *trace.State, shape uint8, salt int) (observed, realized *trace.State) {
	st := *base
	servers := len(sys.Net.Servers)
	if shape&shapeDown != 0 {
		st.ServerDown = make([]bool, servers)
		for n := range st.ServerDown {
			st.ServerDown[n] = (n+salt)%3 == 0
		}
	}
	if shape&shapeCapScale != 0 {
		st.CapScale = make([]float64, servers)
		for n := range st.CapScale {
			st.CapScale[n] = 1
			if (n+salt)%3 == 1 {
				st.CapScale[n] = 0.25 + float64(salt%4)/8
			}
		}
	}
	if shape&shapeNoOp != 0 {
		noOpDevices([]*trace.State{&st}, salt%2 == 1)
	}
	if shape&shapeStale == 0 {
		return &st, &st
	}
	re := st
	re.Price = st.Price * 1.5
	re.TaskSizes = slices.Clone(st.TaskSizes)
	re.DataLengths = slices.Clone(st.DataLengths)
	re.Channels = make([][]trace.Link, len(st.Channels))
	for i, row := range st.Channels {
		re.TaskSizes[i] *= 1.25
		re.DataLengths[i] *= 0.75
		re.Channels[i] = slices.Clone(row)
		for j := range re.Channels[i] {
			re.Channels[i][j].SE *= units.SpectralEfficiency(0.5 + float64((i+j+salt)%3)/4)
		}
	}
	if shape&shapeLostLink != 0 {
		for i := range re.Channels {
			if d := (i + salt) % len(re.Channels); re.ActiveDevice(d) {
				re.Channels[d] = nil
				break
			}
		}
	}
	return &st, &re
}

// requireReferencePricing checks one performed slot against the
// separate exported passes on its own selection and frequencies:
// Validate on both states, Budget.Objective of ReducedLatency at the
// pre-slot backlog q, OptimalAllocation on the observed state, and
// LatencyOf on the realized one, bit for bit.
func requireReferencePricing(t *testing.T, label string, sys *System, observed, realized *trace.State, q, v float64, got *SlotResult) {
	t.Helper()
	sel, freq := got.Decision.Selection, got.Decision.Freq
	if err := sys.Validate(sel, observed); err != nil {
		t.Fatalf("%s: performed selection invalid on the observed state: %v", label, err)
	}
	if err := sys.Validate(sel, realized); err != nil {
		t.Fatalf("%s: performed selection invalid on the realized state: %v", label, err)
	}
	objective := sys.globalBudget(q).Objective(sys.ReducedLatency(sel, freq, observed).Value(), freq, observed, v)
	alloc := sys.OptimalAllocation(sel, observed)
	total, perDevice := sys.LatencyOf(Decision{Selection: sel, Allocation: alloc, Freq: freq}, realized)
	requireSameBits(t, label+" objective", []float64{got.Objective}, []float64{objective})
	requireSameBits(t, label+" access share", got.Decision.AccessShare, alloc.AccessShare)
	requireSameBits(t, label+" fronthaul share", got.Decision.FronthaulShare, alloc.FronthaulShare)
	requireSameBits(t, label+" compute share", got.Decision.ComputeShare, alloc.ComputeShare)
	requireSameBits(t, label+" latency", []float64{got.Latency.Value()}, []float64{total.Value()})
	if len(got.PerDevice) != len(perDevice) {
		t.Fatalf("%s: %d per-device latencies, want %d", label, len(got.PerDevice), len(perDevice))
	}
	for i, want := range perDevice {
		g := got.PerDevice[i]
		requireSameBits(t, fmt.Sprintf("%s device %d latency", label, i),
			[]float64{g.Access.Value(), g.Fronthaul.Value(), g.Processing.Value()},
			[]float64{want.Access.Value(), want.Fronthaul.Value(), want.Processing.Value()})
	}
}

// ruleLeg steps a fresh rule controller once and checks it against the
// reference passes on the rule's own pick, drawn by a twin controller:
// the same error when the pick is infeasible on the realized state, the
// same bits otherwise.
func ruleLeg(t *testing.T, sys *System, rule string, observed, realized *trace.State, q, v float64) {
	t.Helper()
	ctrl, err := NewRuleController(sys, rule, v, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewRuleController(sys, rule, v, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	twin.slot = 1
	sel, err := twin.rule.pick(twin, observed)
	if err != nil {
		t.Fatalf("%s: pick: %v", rule, err)
	}
	res, err := ctrl.StepWithObservation(observed, realized)
	if want := sys.Validate(sel, realized); want != nil {
		if err == nil || err.Error() != fmt.Sprintf("core: slot 1: stale decision infeasible: %v", want) {
			t.Fatalf("%s: step error %v, want the realized state's %q", rule, err, want)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: step: %v", rule, err)
	}
	if !slices.Equal(res.Decision.Station, sel.Station) || !slices.Equal(res.Decision.Server, sel.Server) {
		t.Fatalf("%s: performed selection is not the rule's pick", rule)
	}
	requireReferencePricing(t, rule, sys, observed, realized, q, v, res)
}

// rungLeg finds the counted slot budget that sends a BDMA controller to
// the wanted fallback rung on the observed state and checks that slot
// against the reference passes. For RungPrevious the controller first
// decides prior, fully, with a budget armed so the decision is kept.
func rungLeg(t *testing.T, sys *System, rung int, prior, observed, realized *trace.State, q, v float64) {
	t.Helper()
	for checks := 1; checks <= 64; checks++ {
		ctrl, err := NewController(sys, ControllerConfig{V: v, InitialBacklog: q, BDMA: BDMAConfig{Iterations: 2}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if rung == RungPrevious {
			ctrl.SetSlotDeadline(0, 1<<30)
			if _, err := ctrl.Step(prior); err != nil {
				t.Fatal(err)
			}
		}
		before := ctrl.Backlog()
		ctrl.SetSlotDeadline(0, checks)
		res, err := ctrl.StepWithObservation(observed, realized)
		if err != nil {
			t.Fatalf("rung %d, %d checks: %v", rung, checks, err)
		}
		if res.Rung == rung {
			requireReferencePricing(t, fmt.Sprintf("rung %d", rung), sys, observed, realized, before, v, res)
			return
		}
	}
	t.Fatalf("no counted budget decided at rung %d", rung)
}

// requireMalformedErrors corrupts a valid selection into each malformed
// class Validate rejects and requires the one-pass pricer to return
// Validate's error text for it.
func requireMalformedErrors(t *testing.T, sys *System, st *trace.State, salt int) {
	t.Helper()
	ctrl, err := NewRuleController(sys, "local-only", 50, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := pickLocalOnly(ctrl, st)
	if err != nil {
		t.Fatal(err)
	}
	devices := len(valid.Station)
	stations, servers := len(sys.Net.BaseStations), len(sys.Net.Servers)
	var active, inactive []int
	for i := 0; i < devices; i++ {
		if st.ActiveDevice(i) {
			active = append(active, i)
		} else {
			inactive = append(inactive, i)
		}
	}
	mutants := map[string]func(sel *Selection) bool{
		"short selection": func(sel *Selection) bool {
			sel.Station = sel.Station[:devices-1]
			return true
		},
		"inactive device picks": func(sel *Selection) bool {
			if len(inactive) == 0 {
				return false
			}
			sel.Station[inactive[salt%len(inactive)]] = 0
			return true
		},
		"station out of range": func(sel *Selection) bool {
			sel.Station[active[salt%len(active)]] = stations
			return true
		},
		"negative station": func(sel *Selection) bool {
			sel.Station[active[salt%len(active)]] = -1
			return true
		},
		"station outside coverage": func(sel *Selection) bool {
			for _, i := range active {
				for k := 0; k < stations; k++ {
					if !st.Covered(i, k) {
						sel.Station[i] = k
						return true
					}
				}
			}
			return false
		},
		"server out of range": func(sel *Selection) bool {
			sel.Server[active[salt%len(active)]] = servers
			return true
		},
		"negative server": func(sel *Selection) bool {
			sel.Server[active[salt%len(active)]] = -1
			return true
		},
		"removed server": func(sel *Selection) bool {
			for n := 0; n < servers; n++ {
				if !st.ActiveServer(n) {
					sel.Server[active[salt%len(active)]] = n
					return true
				}
			}
			return false
		},
		"unreachable server": func(sel *Selection) bool {
			for _, i := range active {
				for n := 0; n < servers; n++ {
					if st.ActiveServer(n) && !slices.Contains(sys.Net.ReachableServers(sel.Station[i]), n) {
						sel.Server[i] = n
						return true
					}
				}
			}
			return false
		},
		"later device breaks after a valid prefix": func(sel *Selection) bool {
			sel.Server[active[len(active)-1]] = servers + 3
			return true
		},
	}
	for name, mutate := range mutants {
		sel := valid.Clone()
		if !mutate(&sel) {
			continue
		}
		want := sys.Validate(sel, st)
		if want == nil {
			t.Fatalf("%s: Validate accepted the mutant", name)
		}
		_, err := ctrl.price(BDMAResult{Selection: sel, Freq: ctrl.ruleFreq}, st)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("%s: pricer error %v, want %q", name, err, want)
		}
	}
}

// FuzzRulePricingEquivalence is the contract of the one-pass pricer
// (priceSelection): for every roster rule and both state-priced fallback
// rungs, a slot's allocation, latency, per-device latencies and objective
// equal what the separate exported passes — Validate, ReducedLatency,
// OptimalAllocation and LatencyOf — give on the performed selection, bit
// for bit, on churned states with Down and CapScale faults, f = 0 and
// d = 0 devices, and a realized state that differs from the observed one;
// and every malformed selection class gets Validate's error text.
func FuzzRulePricingEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), 0.0, 100.0)
	f.Add(uint8(1), uint8(shapeDown|shapeCapScale), 3.5, 60.0)
	f.Add(uint8(2), uint8(shapeNoOp), 0.25, 100.0)
	f.Add(uint8(3), uint8(shapeStale), 1.0, 100.0)
	f.Add(uint8(4), uint8(shapeStale|shapeLostLink), 0.0, 40.0)
	f.Add(uint8(5), uint8(shapeDown|shapeNoOp|shapeStale), 8.0, 100.0)
	f.Add(uint8(7), uint8(shapeCapScale|shapeNoOp|shapeStale|shapeLostLink), 2.0, 250.0)
	f.Add(uint8(9), uint8(0xff), 1e3, 10.0)
	sys, states := pricingStates(f)
	f.Fuzz(func(t *testing.T, pick, shape uint8, q, v float64) {
		if !(q >= 0 && q <= 1e6) {
			q = 0
		}
		if !(v >= 1 && v <= 1e4) {
			v = 100
		}
		salt := int(pick)
		idx := salt % len(states)
		observed, realized := shapeState(sys, states[idx], shape, salt)
		for _, r := range selectionRules {
			ruleLeg(t, sys, r.name, observed, realized, q, v)
		}
		if shape&shapeLostLink == 0 {
			// The rungs' selections are not known before the slot, so a
			// realized state that strands one of them has no reference.
			prior, _ := shapeState(sys, states[(idx+len(states)-1)%len(states)], shape, salt)
			rungLeg(t, sys, RungPrevious, prior, observed, realized, q, v)
			rungLeg(t, sys, RungGreedy, nil, observed, realized, q, v)
		}
		requireMalformedErrors(t, sys, observed, salt)
	})
}
