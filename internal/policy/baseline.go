package policy

import (
	"errors"
	"fmt"
	"time"

	"eotora/internal/core"
	"eotora/internal/game"
	"eotora/internal/lyapunov"
	"eotora/internal/obs"
	"eotora/internal/rng"
	"eotora/internal/trace"
)

// pickFunc chooses a slot's selection. It owns validating the slot state
// (System.CheckState) before reading it: the P2-A pickers validate
// through BuildP2A, the others call CheckState, so each state is
// checked once per Decide.
type pickFunc func(b *baseline, st *trace.State) (core.Selection, error)

// baseline is the shared frame of the comparison policies: a fixed
// frequency operating point (Ω^L or Ω^U), a per-policy selection rule,
// and the same virtual-queue accounting the controller runs (a
// core.Budget), so backlogs and objectives are comparable across
// policies. Baselines never degrade: every slot is RungFull or a hard
// error.
type baseline struct {
	name   string
	sys    *core.System
	budget *core.Budget
	v      float64
	seed   int64
	slot   int
	freq   core.Frequencies
	pick   pickFunc

	// p2a is the reusable game arena of the profile-based baselines
	// (greedy-*/random), rebuilt in place every slot exactly as the
	// controller's is.
	p2a core.P2A

	obs   *obs.Registry
	instr baselineInstr
}

// baselineInstr mirrors the controller's per-slot instrument set
// (core.Metric* names) so dashboards and merged sweeps read identically
// across policies. All handles are nil-safe.
type baselineInstr struct {
	slots    *obs.Counter
	decision *obs.Histogram
	latency  *obs.Histogram
	theta    *obs.Histogram
	backlog  *obs.Histogram
	backlogG *obs.Gauge
}

// newBaseline builds one of the non-BDMA comparison policies.
func newBaseline(name string, sys *core.System, cfg Config) (*baseline, error) {
	if sys == nil {
		return nil, errors.New("policy: nil system")
	}
	if err := lyapunov.CheckV(cfg.V); err != nil {
		return nil, fmt.Errorf("policy: %w", err)
	}
	budget, err := core.NewBudget(sys, cfg.InitialBacklog)
	if err != nil {
		return nil, err
	}
	b := &baseline{
		name:   name,
		sys:    sys,
		budget: budget,
		v:      cfg.V,
		seed:   cfg.Seed,
	}
	switch name {
	case GreedyEnergy:
		b.freq, b.pick = sys.LowestFrequencies(), pickGreedy
	case GreedyDeadline:
		b.freq, b.pick = sys.HighestFrequencies(), pickGreedy
	case Random:
		b.freq, b.pick = sys.LowestFrequencies(), pickRandom
	case LocalOnly:
		b.freq, b.pick = sys.LowestFrequencies(), pickLocalOnly
	case EdgeOnly:
		b.freq, b.pick = sys.HighestFrequencies(), pickEdgeOnly
	default:
		return nil, fmt.Errorf("policy: %q is not a baseline", name)
	}
	return b, nil
}

// Name identifies the baseline policy.
func (b *baseline) Name() string { return b.name }

// System returns the system the baseline decides for.
func (b *baseline) System() *core.System { return b.sys }

// Slot returns the last decided slot index.
func (b *baseline) Slot() int { return b.slot }

// V returns the penalty weight pricing the baseline's objective.
func (b *baseline) V() float64 { return b.v }

// Backlog returns the current virtual-queue backlog Q(t) — the total
// across rooms in per-room budget mode.
func (b *baseline) Backlog() float64 { return b.budget.Backlog() }

// Decide makes one slot's decision: the per-policy selection rule at the
// policy's fixed frequency point, the Lemma-1 allocation materialized,
// and the same pricing and queue update Algorithm 1 performs — so the
// recorded latency/cost/backlog series are apples-to-apples with BDMA's.
func (b *baseline) Decide(slot int, st *trace.State) (*core.SlotResult, error) {
	start := time.Now()
	if slot != b.slot+1 {
		return nil, fmt.Errorf("policy: Decide slot %d, %s expects %d", slot, b.name, b.slot+1)
	}
	b.slot++
	sel, err := b.pick(b, st)
	if err != nil {
		return nil, fmt.Errorf("policy: %s slot %d: %w", b.name, b.slot, err)
	}
	if err := b.sys.Validate(sel, st); err != nil {
		return nil, fmt.Errorf("policy: %s slot %d: %w", b.name, b.slot, err)
	}

	alloc := b.sys.OptimalAllocation(sel, st)
	decision := core.Decision{Selection: sel, Allocation: alloc, Freq: b.freq}
	total, perDevice := b.sys.LatencyOf(decision, st)
	out := &core.SlotResult{
		Slot:       b.slot,
		Decision:   decision,
		Latency:    total,
		PerDevice:  perDevice,
		EnergyCost: b.sys.EnergyCostActive(b.freq, st.Price, st.ServerActive),
		Rung:       core.RungFull,
	}
	// Price the objective against Q(t) before committing θ(t).
	out.Objective = b.budget.Objective(b.sys.ReducedLatency(sel, b.freq, st).Value(), b.freq, st, b.v)
	out.Theta, out.Backlog = b.budget.Commit(b.freq, st.Price, st.ServerActive)
	out.RoomBacklogs = b.budget.RoomBacklogs()
	out.Elapsed = time.Since(start)
	b.instr.record(out)
	return out, nil
}

// record captures one slot in the attached instruments (nil-safe).
func (in *baselineInstr) record(res *core.SlotResult) {
	in.slots.Inc()
	in.decision.Observe(res.Elapsed.Seconds())
	in.latency.Observe(res.Latency.Value())
	in.theta.Observe(res.Theta)
	in.backlog.Observe(res.Backlog)
	in.backlogG.Set(res.Backlog)
}

// Checkpoint captures the baseline's resume state. Solver carries the
// policy name, so a checkpoint restored into a different policy fails
// the same guard that protects mismatched controller restores.
func (b *baseline) Checkpoint() core.Checkpoint {
	cp := core.Checkpoint{Slot: b.slot, V: b.v, Solver: b.name, Seed: b.seed}
	b.budget.Save(&cp)
	return cp
}

// Restore rewinds the baseline to a checkpoint taken from an identically
// configured baseline. Selection randomness is derived from (seed, slot),
// so the restored policy continues bit-identically. Every check runs
// before any state is written: a rejected checkpoint leaves the baseline
// as it was.
func (b *baseline) Restore(cp core.Checkpoint) error {
	switch {
	case cp.Slot < 0:
		return fmt.Errorf("policy: checkpoint slot %d negative", cp.Slot)
	case cp.Solver != b.name:
		return fmt.Errorf("policy: checkpoint policy %q, this policy %q", cp.Solver, b.name)
	case cp.V != b.v:
		return fmt.Errorf("policy: checkpoint V = %v, policy V = %v", cp.V, b.v)
	case cp.Seed != b.seed:
		return fmt.Errorf("policy: checkpoint seed %d, policy seed %d", cp.Seed, b.seed)
	case len(cp.Extra) != 0:
		return fmt.Errorf("policy: checkpoint carries tuner state, %q has none", b.name)
	}
	// The budget checks its part in full before writing.
	if err := b.budget.Restore(cp); err != nil {
		return err
	}
	b.slot = cp.Slot
	return nil
}

// SetObs attaches an observability registry: baselines record the same
// controller.* per-slot series the flagship does (nil detaches).
func (b *baseline) SetObs(reg *obs.Registry) {
	b.obs = reg
	b.instr = baselineInstr{
		slots:    reg.Counter(core.MetricSlots),
		decision: reg.Histogram(core.MetricDecisionSeconds),
		latency:  reg.Histogram(core.MetricLatencySeconds),
		theta:    reg.Histogram(core.MetricTheta),
		backlog:  reg.Histogram(core.MetricBacklog),
		backlogG: reg.Gauge(core.MetricBacklogNow),
	}
}

// pickGreedy is greedy-energy/greedy-deadline: the deterministic one-pass
// congestion-greedy profile on the slot's P2-A game at the policy's fixed
// frequency point — the generalization of the controller's RungGreedy
// ladder rung into a standalone policy (energy cost depends only on the
// frequencies of active servers, so the frequency point alone separates
// the energy-first and deadline-first variants).
func pickGreedy(b *baseline, st *trace.State) (core.Selection, error) {
	if err := b.sys.BuildP2A(&b.p2a, st, b.freq); err != nil {
		return core.Selection{}, err
	}
	res := game.GreedyProfile(b.p2a.Game())
	return b.p2a.Selection(res.Profile), nil
}

// pickRandom assigns every active device a uniformly random feasible
// (station, server) pair. The draw sequence comes from a source derived
// from (seed, slot), so runs replay bit-identically; only this policy
// derives one.
func pickRandom(b *baseline, st *trace.State) (core.Selection, error) {
	if err := b.sys.BuildP2A(&b.p2a, st, b.freq); err != nil {
		return core.Selection{}, err
	}
	src := rng.New(b.seed).Derive(fmt.Sprintf("policy-%s-slot-%d", b.name, b.slot))
	res := game.RandomProfile(b.p2a.Game(), src)
	return b.p2a.Selection(res.Profile), nil
}

// pickLocalOnly pins every active device to its lowest-indexed feasible
// pair — the "stay on your home cell" floor with no load awareness.
func pickLocalOnly(b *baseline, st *trace.State) (core.Selection, error) {
	if err := b.sys.CheckState(st); err != nil {
		return core.Selection{}, err
	}
	_, _, _, devices := b.sys.Net.Counts()
	sel := emptySelection(devices)
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		k, n, ok := b.sys.FirstFeasiblePair(i, st)
		if !ok {
			return core.Selection{}, fmt.Errorf("device %d has no feasible (station, server) pair this slot", i)
		}
		sel.Station[i], sel.Server[i] = k, n
	}
	return sel, nil
}

// pickEdgeOnly sends every active device to its strongest-channel covered
// station and the least-loaded usable server reachable from it (load =
// devices already placed this slot, ties to the lower index). Like the
// game builder it honors ServerDown advisories first and re-admits
// down-but-present servers only when a station would otherwise strand
// its devices; a device whose best station has no usable server at all
// falls back to its first feasible pair anywhere.
func pickEdgeOnly(b *baseline, st *trace.State) (core.Selection, error) {
	if err := b.sys.CheckState(st); err != nil {
		return core.Selection{}, err
	}
	_, _, servers, devices := b.sys.Net.Counts()
	sel := emptySelection(devices)
	load := make([]int, servers)
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		bestK, bestSE := -1, 0.0
		for k := range b.sys.Net.BaseStations {
			if se := float64(st.Channels[i][k]); se > bestSE {
				bestK, bestSE = k, se
			}
		}
		if bestK < 0 {
			return core.Selection{}, fmt.Errorf("device %d out of coverage this slot", i)
		}
		n := leastLoaded(b.sys, st, bestK, load)
		if n < 0 {
			k, srv, ok := b.sys.FirstFeasiblePair(i, st)
			if !ok {
				return core.Selection{}, fmt.Errorf("device %d has no feasible (station, server) pair this slot", i)
			}
			bestK, n = k, srv
		}
		sel.Station[i], sel.Server[i] = bestK, n
		load[n]++
	}
	return sel, nil
}

// leastLoaded returns the least-loaded usable server reachable from
// station k (pass 0 honors Down advisories, pass 1 re-admits), or -1
// when the station reaches no present server.
func leastLoaded(sys *core.System, st *trace.State, k int, load []int) int {
	for pass := 0; pass < 2; pass++ {
		honorDown := pass == 0
		best := -1
		for _, n := range sys.Net.ReachableServers(k) {
			if !st.ActiveServer(n) || (honorDown && st.Down(n)) {
				continue
			}
			if best < 0 || load[n] < load[best] {
				best = n
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// emptySelection returns an all-inactive (-1, -1) selection.
func emptySelection(devices int) core.Selection {
	sel := core.Selection{
		Station: make([]int, devices),
		Server:  make([]int, devices),
	}
	for i := range sel.Station {
		sel.Station[i], sel.Server[i] = -1, -1
	}
	return sel
}
