package main

import (
	"fmt"
	"runtime"
	"time"

	"eotora/internal/core"
	"eotora/internal/experiments"
	"eotora/internal/par"
	"eotora/internal/policy"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// batchWorkload drives its policies in-process through
// policy.Policy.Decide, slot by slot, as sim.Run does; with several
// policies every one decides the same state.
type batchWorkload struct {
	name         string
	topology     string
	devices      int
	smokeDevices int
	// churn applies the default churn probabilities to a universe that
	// starts half active, so the population is stationary.
	churn    bool
	policies []string
	// z, lambda and shards configure the bdma controller.
	z      int
	lambda float64
	shards int
	warmup int
	// rate is the workload's nominal timed slots per second (see
	// timedSlots).
	rate float64
}

// batchEnv is one set-up of a batch workload: the system, its state
// source, and the warmed-up policies.
type batchEnv struct {
	sys      *core.System
	src      trace.Source
	policies []policy.Policy
	pool     *par.Pool
}

func (e *batchEnv) close() { e.pool.Close() }

// setup builds the deployment, the seed's state source and the policies,
// and runs the warm-up slots.
func (w batchWorkload) setup(cfg runConfig) (*batchEnv, error) {
	spec, err := topology.SpecByName(w.topology, w.devices)
	if err != nil {
		return nil, err
	}
	sc, err := experiments.NewScenario(experiments.ScenarioOptions{Devices: w.devices, Spec: &spec, BudgetFraction: budgetFrac}, deploymentSeed)
	if err != nil {
		return nil, err
	}
	gen, err := trace.NewGenerator(sc.Net, trace.DefaultGeneratorConfig(), cfg.seed)
	if err != nil {
		return nil, err
	}
	var src trace.Source = gen
	if w.churn {
		cc := trace.DefaultChurnConfig(cfg.seed)
		cc.InitialActiveFraction = 0.5
		if src, err = trace.NewChurnSchedule(cc, sc.Net, gen); err != nil {
			return nil, err
		}
	}
	env := &batchEnv{sys: sc.Sys, src: src}
	if cfg.pool > 1 {
		env.pool = par.New(cfg.pool)
	}
	for _, name := range w.policies {
		p, err := w.newPolicy(name, sc.Sys, cfg.seed)
		if err != nil {
			env.close()
			return nil, err
		}
		if ps, ok := p.(policy.PoolSetter); ok && env.pool != nil {
			ps.SetPool(env.pool)
		}
		env.policies = append(env.policies, p)
	}
	for s := 1; s <= w.warmup; s++ {
		st := src.Next()
		for _, p := range env.policies {
			if _, err := p.Decide(p.Slot()+1, st); err != nil {
				env.close()
				return nil, fmt.Errorf("warm-up slot %d: %w", s, err)
			}
		}
	}
	return env, nil
}

// newPolicy builds a baseline by name, or the bdma controller with the
// workload's z, λ and shard count.
func (w batchWorkload) newPolicy(name string, sys *core.System, seed int64) (policy.Policy, error) {
	if name != policy.BDMA {
		return policy.New(name, sys, policy.Config{V: penaltyV, Seed: seed})
	}
	return core.NewController(sys, core.ControllerConfig{
		V:    penaltyV,
		BDMA: core.BDMAConfig{Iterations: w.z, Solver: core.CGBASolver{Lambda: w.lambda, Shards: w.shards}},
		Seed: seed,
	})
}

func (w batchWorkload) run(cfg runConfig) (*result, error) {
	started := time.Now()
	if cfg.smoke {
		w.devices, w.warmup = w.smokeDevices, 2
	}
	// The load is one process with two threads whatever the host size.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))

	var env *batchEnv
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()

	backlogs := make([]float64, len(env.policies))
	for i, p := range env.policies {
		backlogs[i] = p.Backlog()
	}
	chk := newChecker(env.sys, backlogs)
	var tr *tracer
	if cfg.traced {
		var err error
		if tr, err = newTracer(w, env, cfg); err != nil {
			return nil, err
		}
		defer tr.close()
	}

	slots := timedSlots(cfg, w.rate)
	clock := newHostClock()
	var slotMS, e2eMS, memMB []float64
	for t := 0; t < slots; t++ {
		if time.Since(started) > runLimit {
			chk.record(fmt.Errorf("run limit %v reached after %d of %d timed slots", runLimit, t, slots))
			break
		}
		slot := env.policies[0].Slot() + 1
		tr.slotStart(t, slot)
		t0 := time.Now()
		st := env.src.Next()
		t1 := time.Now()
		tr.observeNext(slot, t0, t1)

		var decide time.Duration
		var err error
		for i, p := range env.policies {
			var res *core.SlotResult
			tr.beforeDecide()
			d0 := time.Now()
			res, err = p.Decide(p.Slot()+1, st)
			d1 := time.Now()
			tr.afterDecide(slot, p.Name(), d0, d1)
			decide += d1.Sub(d0)
			if err != nil {
				err = fmt.Errorf("%s slot %d: %w", p.Name(), slot, err)
				break
			}
			chk.batch(i, st, res)
		}
		if err != nil {
			chk.record(err)
			break
		}
		slotMS = append(slotMS, ms(decide))
		e2eMS = append(e2eMS, ms(t1.Sub(t0)+decide))
		memMB = append(memMB, heldMB())
		clock.tick()
		if err := tr.slotEnd(t, slot, st, chk.backlog[0], decide); err != nil {
			return nil, err
		}
	}

	res := chk.result(w.name)
	rate := ratio(float64(len(e2eMS)), sum(e2eMS)/1000)
	res.notes = timingNotes(clock, slotMS, e2eMS, rate)
	if tr != nil {
		tr.metrics(res.metrics)
		res.spans = tr.spans
		return res, nil
	}
	m, f := res.metrics, clock.scale()
	m["setup_s"] = quantile(setups, 0.5) * f
	m["slot_p50_ms"] = quantile(slotMS, 0.5) * f
	m["e2e_p50_ms"] = quantile(e2eMS, 0.5) * f
	m["slots_per_s"] = rate / f
	chk.qualityMetrics(m)
	m["mem_mb"] = quantile(memMB, 0.5)
	return res, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
