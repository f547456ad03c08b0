package core

import (
	"eotora/internal/game"
	"eotora/internal/obs"
)

// Metric names recorded by an instrumented controller. One flat
// dot-separated namespace; DESIGN.md §8 documents the semantics.
const (
	// Per-slot controller series (Algorithm 1).
	MetricSlots           = "controller.slots"            // counter: slots decided
	MetricDecisionSeconds = "controller.decision_seconds" // histogram: wall-clock per slot
	MetricLatencySeconds  = "controller.latency_seconds"  // histogram: T_t per slot
	MetricTheta           = "controller.theta"            // histogram: Θ_t = C_t − C̄ per slot
	MetricBacklog         = "controller.backlog"          // histogram: Q(t+1) per slot
	MetricBacklogNow      = "controller.backlog_now"      // gauge: latest Q(t+1)

	// Slot-deadline robustness (the degradation ladder; OPERATIONS.md).
	MetricDeadlineMissed = "controller.slot_deadline_missed" // counter: slots whose deadline expired
	MetricFallbackRung   = "controller.fallback_rung"        // histogram: ladder rung (1–3) of degraded slots

	// BDMA alternation (Algorithm 2).
	MetricBDMARounds        = "bdma.rounds"         // counter: alternation rounds executed
	MetricBDMARoundsSkipped = "bdma.rounds_skipped" // counter: replay rounds skipped by the fixed-point exit
	MetricBDMABestRound     = "bdma.best_round"     // histogram: 1-based round yielding the kept decision

	// P2-B per-server convex solves.
	MetricP2BSolves     = "p2b.solves"     // counter: per-server 1-D solves
	MetricP2BIterations = "p2b.iterations" // histogram: golden-section steps per solve

	// P2-A game engine (Algorithm 3 and the MCBA baseline).
	MetricCGBASolves     = "cgba.solves"       // counter: CGBA solves
	MetricCGBAIterations = "cgba.iterations"   // histogram: improvement steps per solve
	MetricMCBAIterations = "mcba.iterations"   // histogram: walk length per solve
	MetricCacheHits      = "engine.cache_hits" // counter: sharded-sweep players skipped by change stamps
	MetricCacheMisses    = "engine.cache_miss" // counter: player scores (cost and best response)
	MetricEngineMoves    = "engine.moves"      // counter: strategy switches applied
	MetricScanTerms      = "engine.scan_terms" // counter: use terms read by best-response scans

	// Sharded-solve optimality audit (Controller.SetShardAudit;
	// DESIGN.md §13). The gap is (sharded − reference)/reference social
	// cost on the audited slot's final P2-A game.
	MetricShardAudits = "shard.audits"  // counter: audited slots
	MetricShardGap    = "shard.gap"     // histogram: per-audit optimality gap
	MetricShardGapNow = "shard.gap_now" // gauge: latest audited gap
)

// solveInstr carries the per-slot solve instruments through the BDMA
// alternation and into P2-B. The zero value (all-nil handles) records
// nothing and is always safe to pass — obs instruments are nil-safe.
type solveInstr struct {
	bdmaRounds    *obs.Counter
	bdmaSkipped   *obs.Counter
	bdmaBestRound *obs.Histogram
	p2bSolves     *obs.Counter
	p2bIters      *obs.Histogram
}

// ctrlInstr is the controller's full instrument set, resolved once in
// SetObs so the per-slot path performs no registry lookups.
type ctrlInstr struct {
	slots    *obs.Counter
	decision *obs.Histogram
	latency  *obs.Histogram
	theta    *obs.Histogram
	backlog  *obs.Histogram
	backlogG *obs.Gauge
	missed   *obs.Counter
	rung     *obs.Histogram
	solve    solveInstr

	// Shard-audit series (recorded only on audited slots).
	shardAudits *obs.Counter
	shardGap    *obs.Histogram
	shardGapG   *obs.Gauge
}

// SetObs attaches an observability registry to the controller: per-slot
// decision time, reduced latency T_t, energy-cost violation Θ_t, and
// backlog Q(t) histograms, plus the BDMA/P2-B/engine instruments listed
// in the Metric* constants. Passing nil detaches instrumentation (the
// default). The call resolves every instrument once; the per-slot hot
// path then records through the typed handles without allocation.
func (c *Controller) SetObs(reg *obs.Registry) {
	c.obs = reg
	c.instr = ctrlInstr{
		slots:       reg.Counter(MetricSlots),
		decision:    reg.Histogram(MetricDecisionSeconds),
		latency:     reg.Histogram(MetricLatencySeconds),
		theta:       reg.Histogram(MetricTheta),
		backlog:     reg.Histogram(MetricBacklog),
		backlogG:    reg.Gauge(MetricBacklogNow),
		missed:      reg.Counter(MetricDeadlineMissed),
		rung:        reg.Histogram(MetricFallbackRung),
		shardAudits: reg.Counter(MetricShardAudits),
		shardGap:    reg.Histogram(MetricShardGap),
		shardGapG:   reg.Gauge(MetricShardGapNow),
		solve: solveInstr{
			bdmaRounds:    reg.Counter(MetricBDMARounds),
			bdmaSkipped:   reg.Counter(MetricBDMARoundsSkipped),
			bdmaBestRound: reg.Histogram(MetricBDMABestRound),
			p2bSolves:     reg.Counter(MetricP2BSolves),
			p2bIters:      reg.Histogram(MetricP2BIterations),
		},
	}
	c.p2a.SetInstruments(game.Instruments{
		CGBASolves:     reg.Counter(MetricCGBASolves),
		CGBAIterations: reg.Histogram(MetricCGBAIterations),
		MCBAIterations: reg.Histogram(MetricMCBAIterations),
		CacheHits:      reg.Counter(MetricCacheHits),
		CacheMisses:    reg.Counter(MetricCacheMisses),
		Moves:          reg.Counter(MetricEngineMoves),
		ScanTerms:      reg.Counter(MetricScanTerms),
	})
	// The attached pool (if any) records its region/shard-utilization
	// series (par.Metric*) into the same registry.
	c.pool.Instrument(reg)
}

// record captures one slot's outcome in the attached instruments; a
// detached controller pays only nil checks.
func (in *ctrlInstr) record(res *SlotResult) {
	in.slots.Inc()
	in.decision.Observe(res.Elapsed.Seconds())
	in.latency.Observe(res.Latency.Value())
	in.theta.Observe(res.Theta)
	in.backlog.Observe(res.Backlog)
	in.backlogG.Set(res.Backlog)
	// Recorded only on degraded slots: deadline-free runs then produce
	// obs snapshots identical to builds without the ladder (the
	// instruments register as zeros on both sides of a comparison).
	if res.Rung > 0 {
		in.missed.Inc()
		in.rung.Observe(float64(res.Rung))
	}
}
