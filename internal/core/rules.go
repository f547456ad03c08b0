package core

import (
	"fmt"

	"eotora/internal/game"
	"eotora/internal/rng"
	"eotora/internal/trace"
)

// selectionRule is one of the roster baselines (internal/policy): a
// selection rule decided at a fixed frequency point, Ω^L or Ω^U, in place
// of the BDMA alternation. The controller runs it through its one slot
// tail — Lemma-1 allocation, fallback-rung pricing and the queue commit —
// so a baseline's latency, cost and backlog series are comparable with
// BDMA's. A pick owns validating the slot state (System.CheckState)
// before reading it: the greedy rules validate through BuildP2A, the
// others call CheckState, so each state is checked once per slot.
type selectionRule struct {
	name string
	freq func(*System) Frequencies // the fixed frequency point
	pick func(c *Controller, st *trace.State) (Selection, error)
}

// selectionRules is the baseline roster, by name.
var selectionRules = []selectionRule{
	{"greedy-energy", (*System).LowestFrequencies, pickGreedy},
	{"greedy-deadline", (*System).HighestFrequencies, pickGreedy},
	{"random", (*System).LowestFrequencies, pickRandom},
	{"local-only", (*System).LowestFrequencies, pickLocalOnly},
	{"edge-only", (*System).HighestFrequencies, pickEdgeOnly},
}

// NewRuleController returns a controller that decides every slot by the
// named roster baseline ("greedy-energy", "greedy-deadline", "random",
// "local-only" or "edge-only"; DESIGN.md §15) instead of BDMA. Its
// virtual queues, objective, checkpoints and instruments are the
// controller's own; it never degrades, and slot budgets do not apply to
// it. Name and SolverName report the rule's name.
func NewRuleController(sys *System, name string, v, initialBacklog float64, seed int64) (*Controller, error) {
	for i := range selectionRules {
		r := &selectionRules[i]
		if r.name != name {
			continue
		}
		c, err := NewController(sys, ControllerConfig{V: v, InitialBacklog: initialBacklog, Seed: seed})
		if err != nil {
			return nil, err
		}
		c.rule, c.ruleFreq = r, r.freq(sys)
		return c, nil
	}
	return nil, fmt.Errorf("core: %q is not a selection rule", name)
}

// ruleDecision is a rule controller's slot: the rule's selection at its
// fixed frequencies, validated against the state and priced like a
// fallback rung.
func (c *Controller) ruleDecision(st *trace.State) (BDMAResult, error) {
	sel, err := c.rule.pick(c, st)
	if err != nil {
		return BDMAResult{}, err
	}
	return c.price(BDMAResult{Selection: sel, Freq: c.ruleFreq}, st)
}

// greedySelection is the deterministic one-pass congestion-greedy
// profile on the slot's P2-A game, as a selection: greedy-energy and
// greedy-deadline on a game built at their frequency point, and the
// ladder's RungGreedy on the game BDMA round 0 built at Ω^L. Energy cost
// depends only on the frequencies of active servers, so the frequency
// point alone separates the energy-first and deadline-first variants.
func (c *Controller) greedySelection() (Selection, bool) {
	g := c.p2a.Game()
	if g == nil {
		return Selection{}, false
	}
	return c.p2a.Selection(game.GreedyProfile(g).Profile), true
}

// pickGreedy is greedy-energy/greedy-deadline.
func pickGreedy(c *Controller, st *trace.State) (Selection, error) {
	if err := c.sys.BuildP2A(&c.p2a, st, c.ruleFreq); err != nil {
		return Selection{}, err
	}
	sel, _ := c.greedySelection()
	return sel, nil
}

// pickRandom assigns every active device a uniformly random feasible
// (station, server) pair — the ROPT selection step. The draws come from a
// source derived from (seed, slot) under the policy's own name, so runs
// replay bit-identically. Each active device, in ascending order, draws
// one Intn over its feasible-pair count: the draws game.RandomProfile
// makes on the slot's P2-A game, whose players are the active devices in
// that order with those pairs as strategies, without building the game.
func pickRandom(c *Controller, st *trace.State) (Selection, error) {
	if err := c.sys.CheckState(st); err != nil {
		return Selection{}, err
	}
	src := rng.New(c.cfg.Seed).Derive(fmt.Sprintf("policy-random-slot-%d", c.slot))
	_, _, _, devices := c.sys.Net.Counts()
	sel := emptySelection(devices)
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		count := c.sys.feasiblePairs(i, st, func(int, int) bool { return true })
		if count == 0 {
			return Selection{}, fmt.Errorf("core: device %d has no feasible (station, server) pair this slot", i)
		}
		pick := src.Intn(count)
		c.sys.feasiblePairs(i, st, func(k, n int) bool {
			if pick > 0 {
				pick--
				return true
			}
			sel.Station[i], sel.Server[i] = k, n
			return false
		})
	}
	return sel, nil
}

// pickLocalOnly pins every active device to its lowest-indexed feasible
// pair — the "stay on your home cell" floor with no load awareness.
func pickLocalOnly(c *Controller, st *trace.State) (Selection, error) {
	if err := c.sys.CheckState(st); err != nil {
		return Selection{}, err
	}
	_, _, _, devices := c.sys.Net.Counts()
	sel := emptySelection(devices)
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		k, n, ok := c.sys.FirstFeasiblePair(i, st)
		if !ok {
			return Selection{}, fmt.Errorf("device %d has no feasible (station, server) pair this slot", i)
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
func pickEdgeOnly(c *Controller, st *trace.State) (Selection, error) {
	if err := c.sys.CheckState(st); err != nil {
		return Selection{}, err
	}
	_, _, servers, devices := c.sys.Net.Counts()
	sel := emptySelection(devices)
	load := make([]int, servers)
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		bestK, bestSE := -1, 0.0
		for _, l := range st.Channels[i] {
			if se := float64(l.SE); se > bestSE {
				bestK, bestSE = l.Station, se
			}
		}
		if bestK < 0 {
			return Selection{}, fmt.Errorf("device %d out of coverage this slot", i)
		}
		n := c.sys.leastLoaded(st, bestK, load)
		if n < 0 {
			k, srv, ok := c.sys.FirstFeasiblePair(i, st)
			if !ok {
				return Selection{}, fmt.Errorf("device %d has no feasible (station, server) pair this slot", i)
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
func (s *System) leastLoaded(st *trace.State, k int, load []int) int {
	for pass := 0; pass < 2; pass++ {
		honorDown := pass == 0
		best := -1
		for _, n := range s.Net.ReachableServers(k) {
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
func emptySelection(devices int) Selection {
	sel := Selection{
		Station: make([]int, devices),
		Server:  make([]int, devices),
	}
	for i := range sel.Station {
		sel.Station[i], sel.Server[i] = -1, -1
	}
	return sel
}
