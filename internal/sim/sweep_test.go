package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"eotora/internal/core"
	"eotora/internal/faults"
	"eotora/internal/obs"
	"eotora/internal/policy"
	"eotora/internal/trace"
)

func sweepJobs(t *testing.T, vs []float64) []Job {
	t.Helper()
	jobs := make([]Job, 0, len(vs))
	for _, v := range vs {
		v := v
		jobs = append(jobs, Job{
			Name: fmt.Sprintf("V=%g", v),
			Policy: func() (policy.Policy, error) {
				sys, _ := buildFixture(t, 6, 9)
				return core.NewBDMAController(sys, v, 1, 0, 1)
			},
			Source: func() (trace.Source, error) {
				_, gen := buildFixture(t, 6, 9)
				return gen, nil
			},
			Config: Config{Slots: 12, Warmup: 2},
		})
	}
	return jobs
}

func TestSweepRunsAllJobs(t *testing.T) {
	vs := []float64{10, 50, 100, 200}
	results, err := Sweep(sweepJobs(t, vs), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(vs) {
		t.Fatalf("results = %d, want %d", len(results), len(vs))
	}
	for i, r := range results {
		if r.Name != fmt.Sprintf("V=%g", vs[i]) {
			t.Errorf("result %d name = %q — order not preserved", i, r.Name)
		}
		if r.Metrics == nil || r.Metrics.Slots() != 12 {
			t.Errorf("result %d metrics missing", i)
		}
		if r.Metrics.V != vs[i] {
			t.Errorf("result %d ran V=%v, want %v", i, r.Metrics.V, vs[i])
		}
	}
}

func TestSweepMatchesSequential(t *testing.T) {
	// The same jobs run with 1 worker and 4 workers must agree exactly
	// (determinism is per job).
	seq, err := Sweep(sweepJobs(t, []float64{10, 100}), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Sweep(sweepJobs(t, []float64{10, 100}), 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i].Metrics.AvgLatency() != par[i].Metrics.AvgLatency() {
			t.Errorf("job %d: sequential %v ≠ parallel %v", i,
				seq[i].Metrics.AvgLatency(), par[i].Metrics.AvgLatency())
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := sweepJobs(t, []float64{10, 50, 100})
	jobs[1].Policy = func() (policy.Policy, error) { return nil, boom }
	_, err := Sweep(jobs, 2)
	if err == nil || !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

// TestSweepFirstErrorCancelsRemaining pins the cancellation contract with
// a single worker, where scheduling is fully deterministic: job 0
// completes, job 1 fails, and job 2 — still unfed when the only worker
// died — is never started. The completed job's registry survives.
func TestSweepFirstErrorCancelsRemaining(t *testing.T) {
	boom := errors.New("boom")
	jobs := sweepJobs(t, []float64{10, 50, 100})

	reg0 := obs.New()
	inner := jobs[0].Policy
	jobs[0].Obs = reg0
	jobs[0].Policy = func() (policy.Policy, error) {
		pol, err := inner()
		if err != nil {
			return nil, err
		}
		pol.SetObs(reg0)
		return pol, nil
	}
	jobs[1].Policy = func() (policy.Policy, error) { return nil, boom }
	var ranLast atomic.Bool
	inner2 := jobs[2].Policy
	jobs[2].Policy = func() (policy.Policy, error) {
		ranLast.Store(true)
		return inner2()
	}

	_, err := Sweep(jobs, 1)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if ranLast.Load() {
		t.Error("job after the failure still ran — cancellation broken")
	}
	if got := reg0.Counter(core.MetricSlots).Value(); got != 12 {
		t.Errorf("completed job recorded %d slots, want 12", got)
	}
}

// TestSweepInFlightJobFinishes forces the failure to land while another
// job is mid-run: job 0 blocks inside its Source factory until job 1 has
// failed, then must still run to completion (full slot count in its
// registry) before Sweep returns the error.
func TestSweepInFlightJobFinishes(t *testing.T) {
	boom := errors.New("boom")
	jobs := sweepJobs(t, []float64{10, 50})

	started0 := make(chan struct{})
	release0 := make(chan struct{})
	reg0 := obs.New()
	innerCtrl := jobs[0].Policy
	jobs[0].Obs = reg0
	jobs[0].Policy = func() (policy.Policy, error) {
		pol, err := innerCtrl()
		if err != nil {
			return nil, err
		}
		pol.SetObs(reg0)
		return pol, nil
	}
	innerSrc := jobs[0].Source
	jobs[0].Source = func() (trace.Source, error) {
		close(started0)
		<-release0
		return innerSrc()
	}
	jobs[1].Policy = func() (policy.Policy, error) {
		<-started0       // wait until job 0 is provably in flight
		close(release0)  // let it proceed...
		return nil, boom // ...and fail while it runs
	}

	_, err := Sweep(jobs, 2)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := reg0.Counter(core.MetricSlots).Value(); got != 12 {
		t.Errorf("in-flight job recorded %d slots, want 12 — it was cut short", got)
	}
}

func TestSweepValidation(t *testing.T) {
	if _, err := Sweep(nil, 2); err == nil {
		t.Error("empty sweep accepted")
	}
	jobs := []Job{{Name: "nil factories"}}
	if _, err := Sweep(jobs, 1); err == nil {
		t.Error("nil factories accepted")
	}
}

func TestSweepDefaultWorkers(t *testing.T) {
	// workers = 0 selects GOMAXPROCS; must still complete.
	results, err := Sweep(sweepJobs(t, []float64{25}), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatal("missing result")
	}
}

func TestReplicate(t *testing.T) {
	build := func(seed int64) (Job, error) {
		return Job{
			Policy: func() (policy.Policy, error) {
				sys, _ := buildFixture(t, 6, seed)
				return core.NewBDMAController(sys, 50, 1, 0, seed)
			},
			Source: func() (trace.Source, error) {
				_, gen := buildFixture(t, 6, seed)
				return gen, nil
			},
			Config: Config{Slots: 12, Warmup: 2},
		}, nil
	}
	res, err := Replicate([]int64{1, 2, 3}, build)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latency.Values) != 3 {
		t.Fatalf("values = %d", len(res.Latency.Values))
	}
	if res.Latency.Mean <= 0 || res.Cost.Mean <= 0 {
		t.Errorf("means = %v/%v", res.Latency.Mean, res.Cost.Mean)
	}
	// Different seeds give different scenarios → non-zero spread.
	if res.Latency.StdDev == 0 {
		t.Error("zero latency spread across different seeds")
	}
	if res.Latency.RelativeSpread() <= 0 {
		t.Error("zero relative spread")
	}
	// Errors propagate.
	if _, err := Replicate(nil, build); err == nil {
		t.Error("empty seeds accepted")
	}
	if _, err := Replicate([]int64{1}, nil); err == nil {
		t.Error("nil builder accepted")
	}
	boom := errors.New("nope")
	if _, err := Replicate([]int64{1}, func(int64) (Job, error) { return Job{}, boom }); !errors.Is(err, boom) {
		t.Errorf("builder error not propagated: %v", err)
	}
}

// TestSweepPerJobObs: each instrumented job keeps its own registry,
// with exactly its own slots counted.
func TestSweepPerJobObs(t *testing.T) {
	vs := []float64{10, 100, 200}
	jobs := sweepJobs(t, vs)
	for i := range jobs {
		reg := obs.New()
		inner := jobs[i].Policy
		jobs[i].Obs = reg
		jobs[i].Policy = func() (policy.Policy, error) {
			pol, err := inner()
			if err != nil {
				return nil, err
			}
			pol.SetObs(reg)
			return pol, nil
		}
	}
	// Leave one job uninstrumented: Sweep must leave it without one.
	jobs[2].Obs = nil

	results, err := Sweep(jobs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if results[i].Obs == nil {
			t.Fatalf("result %d lost its registry", i)
		}
		if got := results[i].Obs.Counter(core.MetricSlots).Value(); got != 12 {
			t.Errorf("job %d recorded %d slots, want 12", i, got)
		}
	}
	if results[2].Obs != nil {
		t.Error("uninstrumented job gained a registry")
	}

}

// TestSweepCountsRepairs: a job whose faults are repaired counts the
// repaired fields in its registry's trace.repairs, and decides exactly
// as the same job without a registry.
func TestSweepCountsRepairs(t *testing.T) {
	jobs := sweepJobs(t, []float64{50, 50})
	for i := range jobs {
		jobs[i].Faults = &faults.Config{Seed: 3, NaNProb: 0.5, NegProb: 0.5, ZeroChannelProb: 0.5, Sanitize: true}
	}
	jobs[0].Obs = obs.New()
	results, err := Sweep(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Obs.Counter(trace.MetricRepairs).Value(); got == 0 {
		t.Error("trace.repairs recorded no repair")
	}
	got, want := results[0].Metrics, results[1].Metrics
	if !reflect.DeepEqual(got.Latency, want.Latency) || !reflect.DeepEqual(got.EnergyCost, want.EnergyCost) ||
		!reflect.DeepEqual(got.Backlog, want.Backlog) || !reflect.DeepEqual(got.SolverIterations, want.SolverIterations) {
		t.Error("the instrumented job decided differently")
	}
}

// TestSweepMixedPolicyJobs races a bdma job built as a *core.Controller,
// a bdma job built through policy.New, and a baseline job in one sweep:
// mixing policies works, and the two bdma jobs — identical configuration
// through either constructor — agree bit-for-bit.
func TestSweepMixedPolicyJobs(t *testing.T) {
	src := func() (trace.Source, error) {
		_, gen := buildFixture(t, 6, 9)
		return gen, nil
	}
	cfg := Config{Slots: 12, Warmup: 2}
	jobs := []Job{
		{
			Name: "bdma-controller",
			Policy: func() (policy.Policy, error) {
				sys, _ := buildFixture(t, 6, 9)
				return core.NewBDMAController(sys, 50, 1, 0, 1)
			},
			Source: src, Config: cfg,
		},
		{
			Name: "bdma-policy",
			Policy: func() (policy.Policy, error) {
				sys, _ := buildFixture(t, 6, 9)
				return policy.New(policy.BDMA, sys, policy.Config{V: 50, Rounds: 1, Seed: 1})
			},
			Source: src, Config: cfg,
		},
		{
			Name: "greedy-energy",
			Policy: func() (policy.Policy, error) {
				sys, _ := buildFixture(t, 6, 9)
				return policy.New(policy.GreedyEnergy, sys, policy.Config{V: 50, Seed: 1})
			},
			Source: src, Config: cfg,
		},
	}
	results, err := Sweep(jobs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Metrics.Policy != "bdma" || results[2].Metrics.Policy != "greedy-energy" {
		t.Errorf("policy labels %q/%q", results[0].Metrics.Policy, results[2].Metrics.Policy)
	}
	a, b := results[0].Metrics, results[1].Metrics
	for i := range a.Latency {
		if a.Latency[i] != b.Latency[i] || a.Backlog[i] != b.Backlog[i] {
			t.Fatalf("slot %d: bdma job diverged across factories", i)
		}
	}
}

// TestSweepJobFactoryValidation: a job without a policy factory, or whose
// policy factory returns nil, fails cleanly.
func TestSweepJobFactoryValidation(t *testing.T) {
	src := func() (trace.Source, error) {
		_, gen := buildFixture(t, 6, 9)
		return gen, nil
	}
	cases := map[string]Job{
		"neither": {Name: "neither", Source: src, Config: Config{Slots: 2}},
		"nil policy": {
			Name:   "nil policy",
			Policy: func() (policy.Policy, error) { return nil, nil },
			Source: src, Config: Config{Slots: 2},
		},
	}
	for name, job := range cases {
		if _, err := Sweep([]Job{job}, 1); err == nil {
			t.Errorf("%s: sweep accepted the invalid job", name)
		}
	}
}
