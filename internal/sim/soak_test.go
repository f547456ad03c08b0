package sim

import (
	"math"
	"os"
	"strconv"
	"testing"
	"time"

	"eotora/internal/core"
	"eotora/internal/faults"
	"eotora/internal/trace"
)

// soakSlots returns the fault-soak length: a quick default for regular CI,
// 10k slots when FAULT_SOAK_SLOTS says so (the nightly configuration).
func soakSlots(t *testing.T) int {
	if s := os.Getenv("FAULT_SOAK_SLOTS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("FAULT_SOAK_SLOTS=%q: want a positive integer", s)
		}
		return n
	}
	if testing.Short() {
		return 128
	}
	return 512
}

// TestFaultSoak drives the full robustness stack — seeded fault injector,
// repairing sanitizer, slot deadline with the fallback ladder — for many
// slots and requires the controller to survive: a feasible decision every
// slot, Q(t) finite throughout, and the decision stream still moving
// (degraded slots happen but do not take over permanently once faults
// allow recovery). This is the nightly soak leg; FAULT_SOAK_SLOTS=10000
// selects the long run, and FAULT_SOAK_CHURN=1 superimposes population
// churn (joins, leaves, handovers, server add/remove) under the faults.
func TestFaultSoak(t *testing.T) {
	slots := soakSlots(t)
	sys, gen := buildFixture(t, 24, 77)
	ctrl, err := core.NewBDMAController(sys, 100, 3, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	// A timed budget (generous, so healthy slots complete) plus injected
	// hour-long stalls forces real deadline misses without sleeping.
	ctrl.SetSlotDeadline(5*time.Second, 0)

	// Churn sits between the raw source and the fault injector, exactly
	// as Job wires it: faults corrupt the churned states.
	var src trace.Source = gen
	if os.Getenv("FAULT_SOAK_CHURN") != "" {
		src, err = trace.NewChurnSchedule(trace.DefaultChurnConfig(31), sys.Net, gen)
		if err != nil {
			t.Fatal(err)
		}
	}

	cfg := faults.DefaultConfig(123)
	inj, err := faults.NewInjector(cfg, len(sys.Net.Servers), src)
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(ctrl)
	san := trace.NewSanitizer(inj)

	degraded, repairs := 0, 0
	for slot := 0; slot < slots; slot++ {
		st := inj.Next() // san.Next, with the repairs counted
		repairs += san.Apply(st)
		res, err := ctrl.Step(st)
		if err != nil {
			t.Fatalf("slot %d: %v (after %d injections, %d repairs)",
				slot, err, inj.Injections(), repairs)
		}
		if q := res.Backlog; math.IsNaN(q) || math.IsInf(q, 0) || q < 0 {
			t.Fatalf("slot %d: backlog Q = %v", slot, q)
		}
		if l := res.Latency.Value(); math.IsNaN(l) || math.IsInf(l, 0) || l < 0 {
			t.Fatalf("slot %d: latency %v", slot, l)
		}
		if err := sys.Validate(res.Decision.Selection, st); err != nil {
			t.Fatalf("slot %d: infeasible decision at rung %d: %v", slot, res.Rung, err)
		}
		if res.Degraded {
			degraded++
		}
	}
	if inj.Injections() == 0 {
		t.Fatal("soak injected no faults; profile or seeding is broken")
	}
	if repairs == 0 {
		t.Fatal("soak repaired nothing; corruption is not reaching the sanitizer")
	}
	if degraded == 0 {
		t.Fatal("soak produced no degraded slots; stalls are not reaching the deadline")
	}
	if degraded == slots {
		t.Fatalf("every one of %d slots degraded; the controller never recovered", slots)
	}
	t.Logf("soak: %d slots, %d injections, %d repairs, %d degraded slots",
		slots, inj.Injections(), repairs, degraded)
}
