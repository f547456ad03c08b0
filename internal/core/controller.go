package core

import (
	"errors"
	"fmt"
	"time"

	"eotora/internal/game"
	"eotora/internal/obs"
	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/solver"
	"eotora/internal/stats"
	"eotora/internal/topology"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// ControllerConfig parameterizes Algorithm 1 (the online DPP controller).
type ControllerConfig struct {
	// V is the drift-plus-penalty weight (paper: 10–500).
	V float64
	// InitialBacklog is Q(1); the paper initializes it to 0.
	InitialBacklog float64
	// BDMA configures the per-slot P2 solver (z rounds + P2-A solver).
	BDMA BDMAConfig
	// Seed drives the controller's internal randomness (solver starts).
	Seed int64
	// SlotDeadline is the wall-clock budget for each slot's solve; when it
	// expires the controller descends the degradation ladder (anytime BDMA
	// → previous decision → greedy) instead of running to convergence.
	// Zero disables the timed budget.
	SlotDeadline time.Duration
	// SlotChecks is a deterministic alternative to SlotDeadline: the solve
	// expires after this many deadline checkpoints (BDMA round boundaries,
	// CGBA/MCBA iterations, P2-B entries), machine-independently and
	// identically at every pool size. Zero disables the counted budget.
	// Both budgets may be armed; whichever exhausts first wins.
	SlotChecks int
}

// Fallback-ladder rungs recorded in SlotResult.Rung: each slot is decided
// at the lowest-numbered rung that produced a feasible decision before the
// slot deadline. See OPERATIONS.md for alerting guidance.
const (
	// RungFull is the normal path: BDMA ran to completion.
	RungFull = 0
	// RungAnytime is a truncated solve: the deadline expired mid-BDMA and
	// the best feasible iterate found so far was kept.
	RungAnytime = 1
	// RungPrevious re-prices the previous slot's (x, y, Ω) under the
	// current state (Lemma-1 allocation and objective recomputed).
	RungPrevious = 2
	// RungGreedy is the last resort: a deterministic one-pass greedy
	// profile at the lowest frequencies Ω^L.
	RungGreedy = 3
)

// SlotResult records everything Algorithm 1 did in one slot.
type SlotResult struct {
	// Slot is the slot index t.
	Slot int
	// Decision is the full α_t performed, with the Lemma-1 allocation
	// materialized.
	Decision Decision
	// Latency is T_t, the slot's overall latency (sum over devices).
	Latency units.Seconds
	// PerDevice itemizes each device's latency.
	PerDevice []LatencyBreakdown
	// EnergyCost is C_t.
	EnergyCost units.Money
	// Theta is θ(t) = C_t − C̄.
	Theta float64
	// Backlog is Q(t+1), the backlog after this slot's update (the total
	// across rooms in per-room budget mode).
	Backlog float64
	// RoomBacklogs holds the per-room backlogs Q_m(t+1), keyed by room
	// ID, when the system uses per-room budgets; nil otherwise.
	RoomBacklogs map[int]float64
	// Objective is the P2 objective value of the performed decision.
	Objective float64
	// SolverIterations is the P2-A solver work across BDMA rounds.
	SolverIterations int
	// Elapsed is the wall-clock decision time for the slot.
	Elapsed time.Duration
	// Degraded reports that the slot deadline expired and the decision
	// came from below the full-solve rung. Always false with no deadline
	// configured.
	Degraded bool
	// Rung is the fallback-ladder rung that produced the decision (one of
	// the Rung* constants; RungFull when the solve completed normally).
	Rung int
	// ShardGap is the sharded-vs-unsharded optimality gap measured on
	// this slot when the shard audit sampled it (SetShardAudit):
	// (sharded − reference)/reference social cost on the slot's final
	// P2-A game. Meaningful only when ShardAudited is true.
	ShardGap float64
	// ShardAudited reports that this slot ran the shard audit.
	ShardAudited bool
}

// Controller runs Algorithm 1: at each slot it observes β_t, calls BDMA
// for (x̄, ȳ, Ω̄), materializes the Lemma-1 allocation, performs the
// decision, and updates the virtual queues by equation (21). A rule
// controller (NewRuleController) runs a roster baseline's selection rule
// at a fixed frequency point in place of BDMA, through the same slot.
//
// The controller's solver randomness is derived per slot from
// (Seed, slot), so a controller restored from a Checkpoint continues
// bit-identically to one that never stopped.
type Controller struct {
	sys    *System
	budget *Budget // the virtual queues: one global group, or one per room
	cfg    ControllerConfig
	slot   int
	p2a    P2A // reusable P2-A instance; BDMA rebuilds it in place each slot

	// rule, when set, replaces the BDMA alternation with a roster
	// baseline's selection rule decided at the fixed frequencies ruleFreq.
	rule     *selectionRule
	ruleFreq Frequencies

	// pricing is the scratch of the one-pass pricing of the selections
	// that are not priced from the P2-A arena: a rule's and a fallback
	// rung's (price).
	pricing selectionPricing

	// randPairs is the random rule's scratch: one device's feasible pairs
	// (pickRandom).
	randPairs []topology.Pair

	// greedyWeights, greedyLoads and greedyCands are the greedy pick's
	// scratch: the P2-A resource weights m_r at its frequency point, the
	// running loads of the devices placed so far, and one device's priced
	// pairs (greedy).
	greedyWeights []float64
	greedyLoads   []float64
	greedyCands   []greedyCand

	// pool is the intra-slot worker pool attached with SetPool (nil =
	// serial); it runs the sharded solve's interior sweeps without
	// changing any decision bit.
	pool *par.Pool

	// Slot-deadline state. dl is the controller-owned deadline re-armed
	// each slot when a budget is configured (value, not pointer: no
	// per-slot allocation); stall is a fault-injected artificial solver
	// delay charged against the timed budget (SetStall). prevSel/prevFreq
	// hold the last decision for the RungPrevious fallback, copied into
	// reused capacity only when a deadline is configured so the default
	// path stays allocation-free.
	dl       solver.Deadline
	stall    time.Duration
	prevSel  Selection
	prevFreq Frequencies
	havePrev bool

	// shardAuditEvery samples the sharded-vs-unsharded optimality gap on
	// every N-th full-rung slot (SetShardAudit; 0 = off).
	shardAuditEvery int

	// Observability (see instr.go). obs is the registry attached with
	// SetObs (nil = off); instr holds the pre-resolved instrument handles
	// the per-slot path records through.
	obs   *obs.Registry
	instr ctrlInstr
}

// NewController builds a controller over a system. Systems with
// RoomBudgets set run in per-room budget mode with one virtual queue per
// room (see Budget); a nonzero InitialBacklog is rejected there.
func NewController(sys *System, cfg ControllerConfig) (*Controller, error) {
	if sys == nil {
		return nil, errors.New("core: nil system")
	}
	if err := checkV(cfg.V); err != nil {
		return nil, err
	}
	budget, err := NewBudget(sys, cfg.InitialBacklog)
	if err != nil {
		return nil, err
	}
	return &Controller{sys: sys, budget: budget, cfg: cfg}, nil
}

// System returns the controller's system.
func (c *Controller) System() *System { return c.sys }

// Name identifies the controller as the flagship "bdma" policy behind the
// policy seam (internal/policy): the paper's full DPP + BDMA alternation,
// whatever P2-A solver drives it. SolverName distinguishes the solver. A
// rule controller is named after its rule.
func (c *Controller) Name() string {
	if c.rule != nil {
		return c.rule.name
	}
	return "bdma"
}

// Slot returns the last completed slot index (0 before the first step,
// the checkpointed slot right after a Restore).
func (c *Controller) Slot() int { return c.slot }

// Decide is the policy-seam entry point (internal/policy.Policy): it
// checks that the caller's slot index is the controller's next slot and
// then runs Step. The explicit index exists so drivers that own the slot
// numbering (the serve daemon's tick counter, the simulator's loop)
// fail loudly on a desynchronized restore instead of silently deciding a
// different slot than they publish.
func (c *Controller) Decide(slot int, st *trace.State) (*SlotResult, error) {
	if slot != c.slot+1 {
		return nil, fmt.Errorf("core: Decide slot %d, controller expects %d", slot, c.slot+1)
	}
	return c.Step(st)
}

// Backlog returns the current virtual-queue backlog Q(t) — the total
// across rooms in per-room budget mode.
func (c *Controller) Backlog() float64 { return c.budget.Backlog() }

// V returns the configured penalty weight.
func (c *Controller) V() float64 { return c.cfg.V }

// Z returns the configured BDMA round count z (BDMAConfig.Iterations;
// 0 selects 1).
func (c *Controller) Z() int { return c.cfg.BDMA.Iterations }

// Lambda returns the CGBA approximation slack λ, or 0 when the P2-A
// solver is not CGBA.
func (c *Controller) Lambda() float64 {
	s, _ := c.cfg.BDMA.Solver.(CGBASolver)
	return s.Lambda
}

// SetV retunes the drift-plus-penalty weight V between slots — the
// latency-vs-backlog dial the online auto-tuner (internal/policy) turns.
// The virtual queue carries over unchanged; only the penalty weighting of
// subsequent slots moves. Checkpoints taken after a SetV record the new V,
// so a restore into a fixed-V controller of the old weight fails loudly.
func (c *Controller) SetV(v float64) error {
	if err := checkV(v); err != nil {
		return err
	}
	c.cfg.V = v
	return nil
}

// SetLambda retunes the CGBA approximation slack λ between slots (see
// game.CGBAConfig.Lambda: larger λ certifies a looser equilibrium in
// fewer iterations). It errors when the controller's P2-A solver is not
// CGBA, or when λ leaves [0, 0.125) — beyond that the congestion-game
// approximation bound diverges.
func (c *Controller) SetLambda(lambda float64) error {
	if lambda < 0 || lambda >= 0.125 {
		return fmt.Errorf("core: λ = %v outside [0, 0.125)", lambda)
	}
	s, err := c.cgbaSolver("λ")
	if err != nil {
		return err
	}
	s.Lambda = lambda
	c.cfg.BDMA.Solver = s
	return nil
}

// SetPool attaches a worker pool to the controller's per-slot solve:
// the sharded CGBA's interior sweeps (SetShards) run across the pool's
// workers, and an unsharded controller never uses it. Decisions,
// objectives, iteration counts, and the RNG draw sequence are
// bit-identical to the serial path for every pool size (DESIGN.md §9);
// nil detaches the pool. The pool must not be shared by controllers
// stepping concurrently — give each concurrent controller its own.
func (c *Controller) SetPool(p *par.Pool) {
	c.pool = p
	c.p2a.SetPool(p)
	p.Instrument(c.obs)
}

// SetShards configures the sharded slot solve (DESIGN.md §13): the
// per-slot P2-A game is partitioned into resource-disjoint topology
// clusters solved concurrently over the attached pool, with boundary
// players reconciled serially until the global λ-equilibrium certifies.
// n = 0 or 1 disables sharding (bit-identical to the unsharded path at
// every pool size), and ShardsAuto uses one shard per cluster; any other
// n is an error. It also errors when the controller's P2-A solver is not
// CGBA — the MCBA/ROPT/OPT baselines have no sharded path.
func (c *Controller) SetShards(n int) error {
	if err := checkShards(n); err != nil {
		return err
	}
	s, err := c.cgbaSolver("sharding")
	if err != nil {
		return err
	}
	s.Shards = n
	c.cfg.BDMA.Solver = s
	return nil
}

// SetShardAudit samples the sharded solve's optimality gap on every
// N-th slot decided at RungFull with sharding active: the performed
// selection's social cost on the slot's final P2-A game is compared
// against a fresh unsharded, deadline-free CGBA reference solve of the
// same game, and the relative gap is exported through the shard.*
// metrics (and SlotResult.ShardGap). The reference solve runs
// uninstrumented so its work never lands in the cgba.*/engine.*
// series; it costs one extra unsharded sweep per audited slot, so keep
// `every` large in production (OPERATIONS.md). 0 disables the audit.
func (c *Controller) SetShardAudit(every int) { c.shardAuditEvery = every }

// cgbaSolver returns the controller's CGBA solver config for mutation,
// materializing the implicit default when no solver was configured. The
// error names the knob that has no meaning for non-CGBA baselines.
func (c *Controller) cgbaSolver(what string) (CGBASolver, error) {
	s, ok := c.cfg.BDMA.Solver.(CGBASolver)
	if c.rule != nil || (!ok && c.cfg.BDMA.Solver != nil) {
		return CGBASolver{}, fmt.Errorf("core: %s applies to the CGBA solver, not %s", what, c.SolverName())
	}
	return s, nil
}

// SolverName identifies the P2-A solver driving this controller
// ("CGBA" for the paper's algorithm, "MCBA"/"ROPT" for baselines), or
// the rule of a rule controller.
func (c *Controller) SolverName() string {
	if c.rule != nil {
		return c.rule.name
	}
	if c.cfg.BDMA.Solver == nil {
		return CGBASolver{}.Name()
	}
	return c.cfg.BDMA.Solver.Name()
}

// Step executes one slot of Algorithm 1 against the observed state.
func (c *Controller) Step(st *trace.State) (*SlotResult, error) {
	return c.StepWithObservation(st, st)
}

// StepWithObservation makes the slot's decision from `observed` — which
// may be a forecast or a stale reading — but performs and accounts it
// against `realized`. With observed == realized it is exactly Algorithm 1;
// with a persistence forecast (observed = last slot's state) it quantifies
// the value of the paper's assumption that β_t is observed before
// deciding (cf. the imperfect-estimation setting of [31]).
//
// The realized state must be feasible for the chosen selection: a device
// whose observed coverage disappeared in the realized state yields an
// error, mirroring a failed handover.
func (c *Controller) StepWithObservation(observed, realized *trace.State) (*SlotResult, error) {
	start := time.Now()
	c.slot++
	var (
		res  BDMAResult
		rung int
		err  error
	)
	if c.rule != nil {
		res, err = c.ruleDecision(observed)
	} else {
		res, rung, err = c.solve(observed)
	}
	if err != nil {
		return nil, fmt.Errorf("core: slot %d: %w", c.slot, err)
	}
	if observed != realized {
		if err := c.sys.Validate(res.Selection, realized); err != nil {
			return nil, fmt.Errorf("core: slot %d: stale decision infeasible: %w", c.slot, err)
		}
	}

	// Materialize the allocation for the observed state (shares are part
	// of the decision) and experience it under the realized state. A BDMA
	// decision is a profile of the slot's P2-A game, which prices its
	// shares from the arena; the fallback rungs' and the rules' selections
	// are not, and price computed their roots and links on the observed
	// state, which serve the latency too when it is the realized one.
	var (
		alloc Allocation
		links []units.SpectralEfficiency
	)
	if c.rule == nil && rung <= RungAnytime {
		alloc = c.p2a.bestAllocation()
	} else {
		alloc = c.sys.shares(&c.pricing, res.Selection)
		if observed == realized {
			links = c.pricing.se
		}
	}
	decision := Decision{Selection: res.Selection, Allocation: alloc, Freq: res.Freq}
	total, perDevice := c.sys.latencyOf(decision, realized, links)

	cost := c.sys.EnergyCostActive(res.Freq, realized.Price, realized.ServerActive)
	out := &SlotResult{
		Slot:             c.slot,
		Decision:         decision,
		Latency:          total,
		PerDevice:        perDevice,
		EnergyCost:       cost,
		Objective:        res.Objective,
		SolverIterations: res.SolverIterations,
		Degraded:         rung != RungFull,
		Rung:             rung,
	}
	// The violations are charged at the realized price and population.
	out.Theta, out.Backlog = c.budget.Commit(res.Freq, realized.Price, realized.ServerActive)
	out.RoomBacklogs = c.budget.RoomBacklogs()
	out.Elapsed = time.Since(start)
	if c.shardAuditEvery > 0 && rung == RungFull && c.slot%c.shardAuditEvery == 0 {
		c.auditShardGap(out)
	}
	c.instr.record(out)
	return out, nil
}

// solve runs Algorithm 2 on the slot's observed state and returns its
// decision with the ladder rung that produced it: when the slot deadline
// expires first, the previous decision repriced, then the greedy
// profile at Ω^L.
func (c *Controller) solve(st *trace.State) (BDMAResult, int, error) {
	src := rng.New(c.cfg.Seed).Derive(fmt.Sprintf("controller-slot-%d", c.slot))

	// Arm the slot deadline only when a budget is configured; dl stays nil
	// otherwise, so the undeadlined path performs only nil checks and the
	// decisions stay bit-identical to builds without the ladder.
	var dl *solver.Deadline
	if c.cfg.SlotDeadline > 0 || c.cfg.SlotChecks > 0 {
		c.dl.Start(c.cfg.SlotDeadline, c.cfg.SlotChecks)
		c.dl.Consume(c.stall)
		dl = &c.dl
	}

	res, err := c.sys.bdmaScratch(st, c.cfg.V, c.budget, c.cfg.BDMA, src, &c.p2a, c.instr.solve, dl)
	rung := RungFull
	if err == nil && res.Degraded {
		rung = RungAnytime
	}
	if err != nil {
		// Only a deadline miss descends the ladder; anything else (bad
		// state, infeasible device) is a hard error the caller must see.
		if !errors.Is(err, ErrSlotDeadline) {
			return BDMAResult{}, 0, err
		}
		rung = RungPrevious
		res, err = c.repriceDecision(st)
		if err != nil {
			rung = RungGreedy
			if res, err = c.greedyDecision(st); err != nil {
				return BDMAResult{}, 0, err
			}
		}
	}
	if dl != nil {
		// Remember the decision for RungPrevious, copying into reused
		// capacity (allocation-free after the first slot).
		c.prevSel.Station = append(c.prevSel.Station[:0], res.Selection.Station...)
		c.prevSel.Server = append(c.prevSel.Server[:0], res.Selection.Server...)
		c.prevFreq = append(c.prevFreq[:0], res.Freq...)
		c.havePrev = true
	}
	return res, rung, nil
}

// auditShardGap measures the sharded solve's optimality gap for the
// slot (SetShardAudit): the performed selection is priced on the slot's
// final P2-A game and compared against an unsharded, deadline-free CGBA
// reference solve of the same game. Slots where sharding is off or
// degenerate (the whole topology is one cluster) are skipped, so the
// audit can stay armed across heterogeneous sweeps.
func (c *Controller) auditShardGap(out *SlotResult) {
	s, ok := c.cfg.BDMA.Solver.(CGBASolver)
	if !ok || s.Shards != ShardsAuto {
		return
	}
	p := &c.p2a
	g := p.Game()
	if g == nil {
		return
	}
	if plan, err := p.shardPlanFor(s.Shards); err != nil || plan == nil {
		return
	}
	prof, err := p.Profile(out.Decision.Selection)
	if err != nil {
		return
	}
	sharded := g.SocialCost(prof)
	// The reference solve runs on a throwaway engine bound to the same
	// game: deadline-free (leftover slot budget must not truncate it),
	// uninstrumented (its work must not land in the cgba.*/engine.*
	// series), and fully isolated from the live engine's profile and
	// caches — later slots solve bit-identically whether or not this
	// slot was audited. The unsharded sweep draws no RNG.
	ref, err := game.NewEngine(g).CGBA(game.CGBAConfig{
		Lambda:        s.Lambda,
		MaxIterations: s.MaxIterations,
	}, nil)
	if err != nil {
		return
	}
	refCost := g.SocialCost(ref.Profile)
	gap := 0.0
	if refCost != 0 {
		gap = (sharded - refCost) / refCost
	}
	out.ShardGap, out.ShardAudited = gap, true
	c.instr.shardAudits.Inc()
	c.instr.shardGap.Observe(gap)
	c.instr.shardGapG.Set(gap)
}

// SetSlotDeadline (re)configures the per-slot budgets after construction:
// budget is the wall-clock allowance, checks the deterministic checkpoint
// allowance (see ControllerConfig). Both zero disables the ladder.
func (c *Controller) SetSlotDeadline(budget time.Duration, checks int) {
	c.cfg.SlotDeadline = budget
	c.cfg.SlotChecks = checks
}

// SetStall injects an artificial solver stall: every subsequent slot's
// timed budget is pre-charged by d before the solve starts — the
// deterministic lever the fault harness uses to force deadline misses
// without sleeping. Zero clears it; a stall never affects a slot with no
// timed budget armed.
func (c *Controller) SetStall(d time.Duration) { c.stall = d }

// repriceDecision is RungPrevious: the previous slot's (x, y, Ω) is reused
// with the Lemma-1 allocation and the objective recomputed fresh against
// the current observed state. Devices whose previous pair is no longer
// feasible — the station lost coverage, the server was removed or marked
// down, or the device itself left — are repaired per device: departed
// devices are dropped to (-1, -1), and the rest are reassigned to their
// first feasible (station, server) pair under the current state. It fails
// — sending the ladder to the greedy rung — only when no previous decision
// exists or some active device has no feasible pair at all.
func (c *Controller) repriceDecision(st *trace.State) (BDMAResult, error) {
	if !c.havePrev {
		return BDMAResult{}, errors.New("core: no previous decision to reuse")
	}
	sel := c.prevSel.Clone()
	for i := range sel.Station {
		if !st.ActiveDevice(i) {
			sel.Station[i], sel.Server[i] = -1, -1
			continue
		}
		if c.prevPairFeasible(i, st) {
			continue
		}
		k, n, ok := c.sys.FirstFeasiblePair(i, st)
		if !ok {
			return BDMAResult{}, fmt.Errorf("core: reprice: device %d has no feasible (station, server) pair this slot", i)
		}
		sel.Station[i], sel.Server[i] = k, n
	}
	return c.price(BDMAResult{
		Selection: sel,
		Freq:      c.prevFreq.Clone(),
		Degraded:  true,
	}, st)
}

// prevPairFeasible reports whether device i's previous (station, server)
// pair is still usable under st: the station covers the device, the server
// is structurally present, not marked down, and reachable. A device that
// was inactive last slot carries (-1, -1) and is never feasible here.
func (c *Controller) prevPairFeasible(i int, st *trace.State) bool {
	k, n := c.prevSel.Station[i], c.prevSel.Server[i]
	if k < 0 || k >= len(c.sys.Net.BaseStations) || n < 0 || n >= len(c.sys.Net.Servers) {
		return false
	}
	if !st.Covered(i, k) || !st.ActiveServer(n) || st.Down(n) {
		return false
	}
	for _, idx := range c.sys.Net.ReachableServers(k) {
		if idx == n {
			return true
		}
	}
	return false
}

// FirstFeasiblePair returns the lowest-indexed (station, server) pair
// feasible for device i under st (see feasiblePairs). ok is false when
// the device has none. The RungPrevious repair and the local-only and
// edge-only rules use it.
func (s *System) FirstFeasiblePair(i int, st *trace.State) (station, server int, ok bool) {
	station, server = -1, -1
	ok = s.feasiblePairs(i, st, func(k, n int) bool {
		station, server = k, n
		return false
	}) > 0
	return station, server, ok
}

// feasiblePairs visits device i's feasible (station, server) pairs under
// st in the order BuildP2A streams them as the device's strategies —
// covered stations ascending, each station's present reachable servers
// in order — until visit returns false, and returns how many it visited.
// Pass 0 honors ServerDown advisories; pass 1, run only when pass 0
// finds nothing, re-admits down-but-present servers, BuildP2A's
// degraded-topology policy.
func (s *System) feasiblePairs(i int, st *trace.State, visit func(station, server int) bool) int {
	count := 0
	for pass := 0; pass < 2 && count == 0; pass++ {
		honorDown := pass == 0
		for _, l := range st.Channels[i] {
			k := l.Station
			for _, n := range s.Net.ReachableServers(k) {
				if !st.ActiveServer(n) || (honorDown && st.Down(n)) {
					continue
				}
				count++
				if !visit(k, n) {
					return count
				}
			}
		}
	}
	return count
}

// greedyDecision is RungGreedy, the ladder's last resort: greedy-energy's
// decision, the one-pass greedy streamed from the slot's state at the
// lowest frequencies Ω^L. It needs no P2-A game, so it decides even when
// BDMA round 0 built none.
func (c *Controller) greedyDecision(st *trace.State) (BDMAResult, error) {
	freq := c.sys.LowestFrequencies()
	sel, err := c.greedy(st, freq)
	if err != nil {
		return BDMAResult{}, err
	}
	return c.price(BDMAResult{
		Selection: sel,
		Freq:      freq,
		Degraded:  true,
	}, st)
}

// price validates a rule's or fallback rung's selection against st and
// fills its reduced latency and objective, as bdmaScratch reports them
// for a full solve, in one pass (priceSelection) whose roots and links
// the slot's allocation and latency then reuse.
func (c *Controller) price(res BDMAResult, st *trace.State) (BDMAResult, error) {
	if err := c.sys.priceSelection(&c.pricing, res.Selection, st); err != nil {
		return BDMAResult{}, err
	}
	res.Latency = c.sys.lemma1Latency(c.pricing.sums, res.Freq, st)
	res.Objective = c.budget.Objective(res.Latency, res.Freq, st, c.cfg.V)
	return res, nil
}

// NewBDMAController returns the paper's BDMA-based DPP with CGBA(λ) and z
// alternating rounds.
func NewBDMAController(sys *System, v float64, z int, lambda float64, seed int64) (*Controller, error) {
	return NewController(sys, ControllerConfig{
		V:    v,
		BDMA: BDMAConfig{Iterations: z, Solver: CGBASolver{Lambda: lambda}},
		Seed: seed,
	})
}

// NewROPTController returns the ROPT-based DPP baseline: random feasible
// selections with optimal allocation and P2-B frequencies.
func NewROPTController(sys *System, v float64, z int, seed int64) (*Controller, error) {
	return NewController(sys, ControllerConfig{
		V:    v,
		BDMA: BDMAConfig{Iterations: z, Solver: RandomSolver{}},
		Seed: seed,
	})
}

// NewMCBAController returns the MCBA-based DPP baseline.
func NewMCBAController(sys *System, v float64, z int, seed int64) (*Controller, error) {
	return NewController(sys, ControllerConfig{
		V:    v,
		BDMA: BDMAConfig{Iterations: z, Solver: MCBASolver{}},
		Seed: seed,
	})
}

// Split returns the slot's total communication (access + fronthaul) and
// processing latency across devices.
func (r *SlotResult) Split() (comm, proc units.Seconds) {
	for _, lb := range r.PerDevice {
		comm += lb.Access + lb.Fronthaul
		proc += lb.Processing
	}
	return comm, proc
}

// Fairness returns Jain's fairness index over the per-device latencies:
// 1 when every device experiences the same latency. The square-root
// allocation of Lemma 1 equalizes weighted shares, not raw latencies, so
// values below 1 are expected and reflect the heterogeneity of tasks and
// channels.
func (r *SlotResult) Fairness() float64 {
	lat := make([]float64, 0, len(r.PerDevice))
	for i, lb := range r.PerDevice {
		if i < len(r.Decision.Station) && r.Decision.Station[i] < 0 {
			// Inactive device: no latency to be fair about.
			continue
		}
		lat = append(lat, lb.Total().Value())
	}
	return stats.JainIndex(lat)
}

// NewOptimalController returns a DPP controller that solves P2-A by
// branch-and-bound each slot — the near-optimal reference of equation
// (30): when the per-slot solver is optimal, DPP achieves ρ* + B·D/V.
// With zero budgets in cfg it is exact but can be very slow; budgets make
// it a best-effort upper baseline.
func NewOptimalController(sys *System, v float64, z int, cfg solver.BnBConfig, seed int64) (*Controller, error) {
	return NewController(sys, ControllerConfig{
		V:    v,
		BDMA: BDMAConfig{Iterations: z, Solver: OptimalSolver{Config: cfg}},
		Seed: seed,
	})
}
