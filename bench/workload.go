package main

import (
	"runtime/metrics"
	"time"

	"eotora/internal/core"
	"eotora/internal/policy"
)

// metricDef names one reported metric and its unit, as BENCHMARK.json
// lists them.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. Timings are at the reference host's speed
// (see hostClock).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slot_p50_ms", "ms"},
	{"e2e_p50_ms", "ms"},
	{"slots_per_s", "1/s"},
	{"mean_latency_s", "s"},
	{"cost_ratio", "1"},
	{"mem_mb", "MB"},
}

// perLayer are the traced run's metrics. Each workload reports all of
// them; a layer a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"game.cgba_ms", "ms"},
	{"game.cgba_iters", "count"},
	{"cgba.iters_per_slot", "count"},
	{"engine.cache_hit_ratio", "1"},
	{"engine.moves_per_iter", "1"},
	{"core.p2a_build_ms", "ms"},
	{"core.p2a_reweight_ms", "ms"},
	{"core.p2a_churn_ms", "ms"},
	{"bdma.rounds_per_slot", "count"},
	{"bdma.useful_round_frac", "1"},
	{"par.regions_per_slot", "count"},
	{"par.shards_per_region", "count"},
	{"core.p2b_ms", "ms"},
	{"p2b.solves_per_slot", "count"},
	{"p2b.steps_per_solve", "count"},
	{"core.lemma1_ms", "ms"},
	{"core.latency_ms", "ms"},
	{"policy.greedy-energy_ms", "ms"},
	{"policy.greedy-deadline_ms", "ms"},
	{"policy.random_ms", "ms"},
	{"policy.local-only_ms", "ms"},
	{"policy.edge-only_ms", "ms"},
	{"go.allocs_per_slot", "count"},
	{"go.alloc_mb_per_slot", "MB"},
	{"go.gc_per_100_slots", "count"},
	{"serve.events_req_ms", "ms"},
	{"serve.tick_req_ms", "ms"},
	{"serve.solve_ms", "ms"},
	{"serve.tick_overhead_ms", "ms"},
	{"serve.publish_to_consumer_ms", "ms"},
	{"serve.events_per_slot", "count"},
	{"serve.queue_high_water", "count"},
	{"trace.next_ms", "ms"},
	{"serve.diff_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.gen_lag_p99_ms", "ms"},
	{"policy.decide_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// baselines is the comparison roster every baseline metric and the
// roster workload use.
var baselines = []string{policy.GreedyEnergy, policy.GreedyDeadline, policy.Random, policy.LocalOnly, policy.EdgeOnly}

// runConfig is one run's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	// pool is the intra-slot worker count of the bdma controller;
	// decisions are bit-identical at every size.
	pool int
	// smoke shrinks every workload to about 50 devices and 10 slots.
	smoke bool
	// eotorad is the daemon binary the serve workload starts.
	eotorad string
}

// result is one run's outcome.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  error
	digest    uint64
	metrics   map[string]float64
	notes     []note
	spans     *spanLog
}

// note is a value printed beside the metrics but not bounded: the raw
// timings, the tails, and the reference kernel's time. On a shared host
// they measure the neighbours' load as much as the program.
type note struct {
	name, unit string
	value      float64
}

// timingNotes returns a run's raw timings and tails and the reference
// kernel's median time.
func timingNotes(clock *hostClock, slotMS, e2eMS []float64, slotsPerS float64) []note {
	return []note{
		{"host.ref_ms", "ms", quantile(clock.samples, 0.5)},
		{"raw.slot_p50_ms", "ms", quantile(slotMS, 0.5)},
		{"raw.slot_p90_ms", "ms", quantile(slotMS, 0.9)},
		{"raw.e2e_p50_ms", "ms", quantile(e2eMS, 0.5)},
		{"raw.e2e_p90_ms", "ms", quantile(e2eMS, 0.9)},
		{"raw.slots_per_s", "1/s", slotsPerS},
	}
}

// workload is one named input set and the function that runs it.
type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

// Common settings. V, the budget position and the population sizes follow
// the paper's setup (Section VI-A) as cmd/eotorasim exposes it.
const (
	penaltyV   = 100
	budgetFrac = 0.5
	// deploymentSeed draws every workload's network, energy models and
	// budget, so that the run's seed varies only the traffic (demand,
	// channels, mobility, prices, churn) and the solver randomness. With a
	// network drawn per seed, slot time and mean latency moved by 20–40%
	// across seeds, wider than any usable regression bound.
	deploymentSeed = 1
	// setupRuns is how often a run sets its workload up; setup_s is the
	// median and the last set-up is the one measured.
	setupRuns = 5
	// probeEvery spaces the traced run's layer probes.
	probeEvery = 5
	// memEvery spaces the serve workload's memory samples, in slots.
	memEvery = 100
	// smokeSlots is the timed slot count of a smoke run, and the least
	// any run times.
	smokeSlots = 10
	// runLimit bounds a run well inside the three minutes it may take; a
	// run still short of its timed slots by then fails.
	runLimit = 150 * time.Second
)

var workloads = []workload{
	{"paper-1k", batchWorkload{
		name: "paper-1k", topology: "default", devices: 1000, smokeDevices: 50,
		policies: []string{policy.BDMA}, z: 5, lambda: 0,
		warmup: 20, rate: 42,
	}.run},
	{"metro-churn-20k", batchWorkload{
		name: "metro-churn-20k", topology: "metro", devices: 20000, smokeDevices: 100, churn: true,
		policies: []string{policy.BDMA}, z: 2, lambda: 0.05, shards: core.ShardsAuto,
		warmup: 3, rate: 16,
	}.run},
	{"roster-1k", batchWorkload{
		name: "roster-1k", topology: "default", devices: 1000, smokeDevices: 50,
		policies: baselines,
		warmup:   20, rate: 135,
	}.run},
	{"serve-churn-300", serveWorkload{
		name: "serve-churn-300", devices: 300, smokeDevices: 50,
		warmup: 20, rate: 100, closedRate: 180, phaseAShare: 0.6,
	}.run},
}

// timedSlots is how many slots a run times: seconds × the workload's
// nominal rate, measured on a 2-core Xeon VM with the checks on. A run
// then lasts about its seconds there, and every run of one seed does the
// same work, so the timings of a non-stationary trace (the backlog and
// the diurnal demand both drift) compare like with like, and the
// quality metrics and the digest cover every timed slot.
func timedSlots(cfg runConfig, rate float64) int {
	if cfg.smoke {
		return smokeSlots
	}
	return max(smokeSlots, int(cfg.seconds*rate))
}

// heldMB returns the memory this process's Go runtime holds from the OS
// (everything it mapped, less the heap it returned) in MB: the same
// quantity as runtime.MemStats Sys − HeapReleased.
func heldMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}
