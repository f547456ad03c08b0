package sim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"eotora/internal/policy"
	"eotora/internal/trace"
)

// Job is one point of a parameter sweep: factories produce the policy
// and state source when (and on whichever goroutine) the job runs, so
// jobs never share mutable state. Jobs of one Sweep may run different
// policies, so a single sweep can race the BDMA controller (a
// *core.Controller is a policy) against the baseline policies over the
// same recorded trace and emit side-by-side metrics.
type Job struct {
	// Name labels the job in results and errors.
	Name string
	// Policy builds the job's decision policy (internal/policy).
	Policy func() (policy.Policy, error)
	// Source builds the job's state source.
	Source func() (trace.Source, error)
	// Config bounds the job's run.
	Config Config
}

// JobResult pairs a job's name with its metrics.
type JobResult struct {
	Name    string
	Metrics *Metrics
}

// Sweep runs the jobs concurrently on up to workers goroutines (0 selects
// GOMAXPROCS) and returns results in job order. The first error cancels
// the remaining jobs; already-running jobs finish.
//
// The simulator itself is single-threaded per run — the determinism
// guarantees hold per job — but independent sweep points (the V values of
// Figure 8, the budgets of Figure 9) parallelize perfectly.
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

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				if err := runJob(jobs[idx], &results[idx]); err != nil {
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

func runJob(job Job, out *JobResult) error {
	if job.Source == nil {
		return errors.New("nil source factory")
	}
	if job.Policy == nil {
		return errors.New("nil policy factory")
	}
	pol, err := job.Policy()
	if err != nil {
		return err
	}
	if pol == nil {
		return errors.New("policy factory returned nil")
	}
	src, err := job.Source()
	if err != nil {
		return err
	}
	m, err := Run(pol, src, job.Config)
	if err != nil {
		return err
	}
	out.Name = job.Name
	out.Metrics = m
	return nil
}
