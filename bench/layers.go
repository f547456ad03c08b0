package main

import (
	"fmt"
	"runtime"
	"time"

	"eotora/internal/core"
	"eotora/internal/game"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/policy"
	"eotora/internal/rng"
	"eotora/internal/trace"
)

// tracer instruments the traced run of a batch workload from outside the
// program. Timed slots alternate: even slots run with an obs registry
// attached to the policies and runtime.MemStats read around Decide, odd
// slots run bare, so the tracing overhead is measured inside one run.
// Probes time each layer's public entry point on the slot's real state,
// on probe-owned objects the measured policies never see: ApplyChurn
// every slot, the rest every probeEvery-th slot. Every method is a no-op
// on a nil tracer, which is what untraced runs hold.
type tracer struct {
	z     int // the workload's BDMA rounds
	sys   *core.System
	pols  []policy.Policy
	seed  int64
	reg   *obs.Registry
	spans *spanLog

	traced, attached bool
	root             int
	tracedSlots      int

	tracedMS, bareMS, nextMS []float64
	layerMS                  map[string][]float64
	iters                    []float64

	mem                      runtime.MemStats
	mallocs, allocBytes, gcs uint64

	solver   core.CGBASolver
	pool     *par.Pool
	low      core.Frequencies
	built    core.P2A // rebuilt by every probe
	churned  core.P2A // follows the population slot by slot
	baseline []policy.Policy
}

func newTracer(w batchWorkload, env *batchEnv, cfg runConfig) (*tracer, error) {
	tr := &tracer{
		z:       w.z,
		sys:     env.sys,
		pols:    env.policies,
		seed:    cfg.seed,
		reg:     obs.New(),
		spans:   newSpanLog(),
		layerMS: map[string][]float64{},
		solver:  core.CGBASolver{Lambda: w.lambda, Shards: w.shards},
		low:     env.sys.LowestFrequencies(),
	}
	if cfg.pool > 1 {
		tr.pool = par.New(cfg.pool)
		tr.built.SetPool(tr.pool)
	}
	// The roster workload times the baselines itself; elsewhere the probe
	// owns one of each so their cost shows on every workload.
	if len(env.policies) == 1 {
		for _, name := range baselines {
			b, err := policy.New(name, env.sys, policy.Config{V: penaltyV, Seed: cfg.seed})
			if err != nil {
				tr.close()
				return nil, err
			}
			tr.baseline = append(tr.baseline, b)
		}
	}
	return tr, nil
}

func (tr *tracer) close() {
	if tr != nil {
		tr.pool.Close()
	}
}

// slotStart attaches or detaches the registry for the slot and opens its
// root span.
func (tr *tracer) slotStart(t, slot int) {
	if tr == nil {
		return
	}
	tr.traced = t%2 == 0
	if tr.traced != tr.attached {
		var reg *obs.Registry
		if tr.traced {
			reg = tr.reg
		}
		for _, p := range tr.pols {
			p.SetObs(reg)
		}
		tr.attached = tr.traced
	}
	if tr.traced {
		tr.tracedSlots++
	}
	tr.root = tr.spans.open("slot", slot, -1, time.Now())
}

func (tr *tracer) observeNext(slot int, start, end time.Time) {
	if tr == nil {
		return
	}
	tr.nextMS = append(tr.nextMS, ms(end.Sub(start)))
	tr.spans.add("trace.next", slot, tr.root, start, end)
}

func (tr *tracer) beforeDecide() {
	if tr != nil && tr.traced {
		runtime.ReadMemStats(&tr.mem)
	}
}

func (tr *tracer) afterDecide(slot int, name string, start, end time.Time) {
	if tr == nil {
		return
	}
	if tr.traced {
		before := tr.mem
		runtime.ReadMemStats(&tr.mem)
		tr.mallocs += tr.mem.Mallocs - before.Mallocs
		tr.allocBytes += tr.mem.TotalAlloc - before.TotalAlloc
		tr.gcs += uint64(tr.mem.NumGC - before.NumGC)
	}
	tr.layerMS["policy."+name] = append(tr.layerMS["policy."+name], ms(end.Sub(start)))
	tr.spans.add("policy."+name, slot, tr.root, start, end)
}

// slotEnd records the slot's Decide time, runs the probes and closes the
// root span.
func (tr *tracer) slotEnd(t, slot int, st *trace.State, q float64, decide time.Duration) error {
	if tr == nil {
		return nil
	}
	if tr.traced {
		tr.tracedMS = append(tr.tracedMS, ms(decide))
	} else {
		tr.bareMS = append(tr.bareMS, ms(decide))
	}
	err := tr.time("core.p2a_churn", slot, func() error { return tr.sys.ApplyChurn(&tr.churned, st, tr.low) })
	if err == nil && t%probeEvery == probeEvery-1 {
		err = tr.probe(slot, st, q)
	}
	tr.spans.end(tr.root, time.Now())
	return err
}

// probe walks one slot through the layers in the order a BDMA round
// calls them: build the P2-A game, solve it cold with CGBA, solve P2-B
// for the frequencies, reweight the game, materialize the Lemma-1
// allocation, and price the decision; then every probe-owned baseline
// decides the same state.
func (tr *tracer) probe(slot int, st *trace.State, q float64) error {
	var (
		res   game.Result
		freq  core.Frequencies
		alloc core.Allocation
	)
	src := rng.New(tr.seed).Derive(fmt.Sprintf("bench-probe-%d", slot))
	if err := tr.time("core.p2a_build", slot, func() error { return tr.sys.BuildP2A(&tr.built, st, tr.low) }); err != nil {
		return err
	}
	if err := tr.time("game.cgba", slot, func() (err error) { res, err = tr.solver.Solve(&tr.built, src); return err }); err != nil {
		return err
	}
	tr.iters = append(tr.iters, float64(res.Iterations))
	sel := tr.built.Selection(res.Profile)
	if err := tr.time("core.p2b", slot, func() (err error) { freq, err = tr.sys.SolveP2B(sel, st, penaltyV, q); return err }); err != nil {
		return err
	}
	if err := tr.time("core.p2a_reweight", slot, func() error { return tr.built.Reweight(freq) }); err != nil {
		return err
	}
	_ = tr.time("core.lemma1", slot, func() error { alloc = tr.sys.OptimalAllocation(sel, st); return nil })
	_ = tr.time("core.latency", slot, func() error {
		tr.sys.LatencyOf(core.Decision{Selection: sel, Allocation: alloc, Freq: freq}, st)
		return nil
	})
	for _, b := range tr.baseline {
		if err := tr.time("policy."+b.Name(), slot, func() error { _, err := b.Decide(b.Slot()+1, st); return err }); err != nil {
			return err
		}
	}
	return nil
}

// time runs one probe call, recording its duration and span.
func (tr *tracer) time(layer string, slot int, f func() error) error {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	tr.layerMS[layer] = append(tr.layerMS[layer], ms(t1.Sub(t0)))
	tr.spans.add(layer, slot, tr.root, t0, t1)
	if err != nil {
		return fmt.Errorf("%s probe at slot %d: %w", layer, slot, err)
	}
	return nil
}

// metrics fills every per-layer metric: probe medians, obs counts per
// traced slot, allocation and GC counts around Decide, and the traced
// Decide median with its overhead over the bare slots. The serve layers
// read 0 on a batch workload.
func (tr *tracer) metrics(m map[string]float64) {
	for _, d := range perLayer {
		m[d.name] = 0
	}
	med := func(layer string) float64 { return quantile(tr.layerMS[layer], 0.5) }
	snap := tr.reg.Snapshot()
	c, h := snap.Counters, snap.Histograms
	n := float64(max(tr.tracedSlots, 1))
	count := func(name string) float64 { return float64(c[name]) }
	histMean := func(name string) float64 { return ratio(h[name].Sum, float64(h[name].Count)) }

	iters := h[core.MetricCGBAIterations].Sum
	hits, misses := count(core.MetricCacheHits), count(core.MetricCacheMisses)
	m["game.cgba_ms"] = med("game.cgba")
	m["game.cgba_iters"] = mean(tr.iters)
	m["cgba.iters_per_slot"] = iters / n
	m["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.moves_per_iter"] = ratio(count(core.MetricEngineMoves), iters)
	m["core.p2a_build_ms"] = med("core.p2a_build")
	m["core.p2a_reweight_ms"] = med("core.p2a_reweight")
	m["core.p2a_churn_ms"] = med("core.p2a_churn")
	m["bdma.rounds_per_slot"] = count(core.MetricBDMARounds) / n
	m["bdma.useful_round_frac"] = ratio(histMean(core.MetricBDMABestRound), float64(tr.z))
	m["par.regions_per_slot"] = count(par.MetricRegions) / n
	m["par.shards_per_region"] = histMean(par.MetricRegionShards)
	m["core.p2b_ms"] = med("core.p2b")
	m["p2b.solves_per_slot"] = count(core.MetricP2BSolves) / n
	m["p2b.steps_per_solve"] = histMean(core.MetricP2BIterations)
	m["core.lemma1_ms"] = med("core.lemma1")
	m["core.latency_ms"] = med("core.latency")
	for _, name := range baselines {
		m["policy."+name+"_ms"] = med("policy." + name)
	}
	m["go.allocs_per_slot"] = float64(tr.mallocs) / n
	m["go.alloc_mb_per_slot"] = float64(tr.allocBytes) / (1 << 20) / n
	m["go.gc_per_100_slots"] = 100 * float64(tr.gcs) / n
	m["trace.next_ms"] = quantile(tr.nextMS, 0.5)
	traced, bare := quantile(tr.tracedMS, 0.5), quantile(tr.bareMS, 0.5)
	m["policy.decide_ms"] = traced
	if bare > 0 {
		m["trace.overhead_pct"] = 100 * (traced/bare - 1)
	}
}
