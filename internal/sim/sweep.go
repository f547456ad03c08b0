package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"eotora/internal/core"
	"eotora/internal/faults"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/policy"
	"eotora/internal/trace"
)

// Job is one point of a parameter sweep: factories produce the policy
// and state source when (and on whichever goroutine) the job runs, so
// jobs never share mutable state. Exactly one of Policy and Controller
// must be set; mixing job kinds within one Sweep is fine, so a single
// sweep can race the BDMA controller against the baseline policies over
// the same recorded trace and emit side-by-side metrics.
type Job struct {
	// Name labels the job in results and errors.
	Name string
	// Policy builds the job's decision policy (internal/policy).
	Policy func() (policy.Policy, error)
	// Controller builds the job's controller — the pre-policy-seam
	// shorthand for bdma jobs, equivalent to a Policy factory returning
	// the same *core.Controller.
	Controller func() (*core.Controller, error)
	// Source builds the job's state source.
	Source func() (trace.Source, error)
	// Config bounds the job's run.
	Config Config
	// Obs, when non-nil, is the job's observability registry. Give each
	// job its own registry and attach it to the job's policy inside the
	// factory (policy.Policy.SetObs); the sweep carries it into the
	// JobResult.
	Obs *obs.Registry
	// Faults, when non-nil, wraps the job's source in a seeded fault
	// injector (and, when Faults.Sanitize is set, a repairing
	// trace.Sanitizer on top) and attaches the injector's stall channel to
	// the policy when it accepts stalls (faults.Staller); baselines
	// without a timed solve simply skip the stall leg while still seeing
	// the corrupted traces. See the faults package for the fault model.
	Faults *faults.Config
	// Churn, when non-nil, wraps the job's source in a deterministic
	// population process (trace.ChurnSchedule): device joins and leaves,
	// forced handovers, and server add/remove events. The churn layer sits
	// between the raw source and the fault injector, so faults act on the
	// churned states.
	Churn *trace.ChurnConfig
}

// JobResult pairs a job's name with its metrics and, when the job was
// instrumented, its observability registry.
type JobResult struct {
	Name    string
	Metrics *Metrics
	Obs     *obs.Registry
}

// Sweep runs the jobs concurrently on up to workers goroutines (0 selects
// GOMAXPROCS) and returns results in job order. The first error cancels
// the remaining jobs; already-running jobs finish.
//
// The simulator itself is single-threaded per run — the determinism
// guarantees hold per job — but independent sweep points (the V values of
// Figure 8, the budgets of Figure 9) parallelize perfectly. Leftover
// cores (GOMAXPROCS beyond the worker count) are handed to each worker as
// an intra-slot pool (core.Controller.SetPool), so a 2-point sweep on an
// 8-core box still uses all 8 cores without oversubscribing.
func Sweep(jobs []Job, workers int) ([]JobResult, error) {
	if len(jobs) == 0 {
		return nil, errors.New("sim: empty sweep")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	results := make([]JobResult, len(jobs))
	jobCh := make(chan int)
	errCh := make(chan error, len(jobs))

	// Split the machine between sweep-level and slot-level parallelism:
	// workers × slotWorkers never exceeds GOMAXPROCS. The per-worker pools
	// don't change any job's decisions — pooled slot solves are
	// bit-identical to serial (core.Controller.SetPool).
	slotWorkers := runtime.GOMAXPROCS(0) / workers

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var pool *par.Pool
			if slotWorkers > 1 {
				pool = par.New(slotWorkers)
				defer pool.Close()
			}
			for idx := range jobCh {
				if err := runJob(jobs[idx], &results[idx], pool); err != nil {
					errCh <- fmt.Errorf("sim: job %q: %w", jobs[idx].Name, err)
					return
				}
			}
		}()
	}

	// Feed jobs until a worker reports an error (workers that returned
	// stop draining, so stop feeding once errCh has something).
	fed := 0
feed:
	for ; fed < len(jobs); fed++ {
		select {
		case jobCh <- fed:
		case err := <-errCh:
			errCh <- err // put it back for the final collection
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	return results, nil
}

func runJob(job Job, out *JobResult, pool *par.Pool) error {
	if job.Source == nil {
		return errors.New("nil source factory")
	}
	var pol policy.Policy
	switch {
	case job.Policy != nil && job.Controller != nil:
		return errors.New("both Policy and Controller factories set")
	case job.Policy != nil:
		p, err := job.Policy()
		if err != nil {
			return err
		}
		if p == nil {
			return errors.New("policy factory returned nil")
		}
		pol = p
	case job.Controller != nil:
		ctrl, err := job.Controller()
		if err != nil {
			return err
		}
		pol = ctrl
	default:
		return errors.New("nil factory")
	}
	if pool != nil {
		if ps, ok := pol.(policy.PoolSetter); ok {
			ps.SetPool(pool)
		}
	}
	src, err := job.Source()
	if err != nil {
		return err
	}
	if job.Churn != nil {
		src, err = trace.NewChurnSchedule(*job.Churn, pol.System().Net, src)
		if err != nil {
			return err
		}
	}
	if job.Faults != nil {
		inj, err := faults.NewInjector(*job.Faults, len(pol.System().Net.Servers), src)
		if err != nil {
			return err
		}
		if st, ok := pol.(faults.Staller); ok {
			inj.Attach(st)
		}
		src = inj
		if job.Faults.Sanitize {
			san := trace.NewSanitizer(src)
			san.Instrument(job.Obs)
			src = san
		}
	}
	m, err := Run(pol, src, job.Config)
	if err != nil {
		return err
	}
	out.Name = job.Name
	out.Metrics = m
	out.Obs = job.Obs
	return nil
}
