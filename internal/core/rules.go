package core

import (
	"errors"
	"fmt"
	"math"

	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// selectionRule is one of the roster baselines (internal/policy): a
// selection rule decided at a fixed frequency point, Ω^L or Ω^U, in place
// of the BDMA alternation. The controller runs it through its one slot
// tail — Lemma-1 allocation, fallback-rung pricing and the queue commit —
// so a baseline's latency, cost and backlog series are comparable with
// BDMA's. A pick owns validating the slot state: each calls
// System.CheckState once before reading it.
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

// pickGreedy is greedy-energy/greedy-deadline: the one-pass greedy at
// the rule's frequency point.
func pickGreedy(c *Controller, st *trace.State) (Selection, error) {
	return c.greedy(st, c.ruleFreq)
}

// greedy is the deterministic one-pass congestion greedy of the slot's
// P2-A game at freq, streamed from the state without building the game:
// active devices commit in index order, each to the feasible pair of
// least marginal cost against the loads of the devices placed before it.
// greedy-energy and greedy-deadline run it at their frequency points, and
// the ladder's RungGreedy at Ω^L. Energy cost depends only on the
// frequencies of active servers, so the frequency point alone separates
// the energy-first and deadline-first variants.
//
// Its selection is game.GreedyProfile's on the game BuildP2A builds, bit
// for bit. A device's pairs are walked in BuildP2A's strategy order (see
// feasiblePairs), with its weights √(f/σ), √(d/h) and √(d/h^F). A pair
// (k, n) costs the terms m_r·p·(load_r + p) of the uses the game gives
// it, each rounded on its own, summed in use order: (C_n + A_k) + F_k,
// without the terms of zero weights when f = 0 or d = 0, and the no-op
// pin's access term when every weight is zero. The first least cost wins,
// or the first pair when no cost is finite, and the winner's uses are
// added to the loads. It validates as BuildP2A does, with its errors:
// CheckState, ValidateFrequencies, a device with no feasible pair, then
// Build's checks of the resource weights, the players and the use
// weights.
func (c *Controller) greedy(st *trace.State, freq Frequencies) (Selection, error) {
	s := c.sys
	if err := s.CheckState(st); err != nil {
		return Selection{}, err
	}
	if err := s.ValidateFrequencies(freq); err != nil {
		return Selection{}, err
	}
	servers, stations := len(s.Net.Servers), len(s.Net.BaseStations)
	_, _, _, devices := s.Net.Counts()
	weights := resized(c.greedyWeights, servers+2*stations)
	s.fillResourceWeights(weights, freq, st.CapScale)
	loads := resized(c.greedyLoads, len(weights))
	clear(loads)
	c.greedyWeights, c.greedyLoads = weights, loads

	sel := emptySelection(devices)
	players := 0
	var useErr error
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		cycles, bits, suitability := st.TaskSizes[i].Count(), st.DataLengths[i].Bits(), s.Net.Suitability[i]
		// Every pair is priced before any is compared, so no branch waits
		// on a pair's square roots.
		cands := c.greedyCands[:0]
		for pass := 0; pass < 2 && len(cands) == 0; pass++ {
			honorDown := pass == 0
			for j, l := range st.Channels[i] {
				k := l.Station
				a, f := servers+k, servers+stations+k
				accessW := math.Sqrt(bits / l.SE.BpsPerHz())
				fronthaulW := math.Sqrt(bits / st.FronthaulSE[k].BpsPerHz())
				aTerm := float64(weights[a] * accessW * (loads[a] + accessW))
				fTerm := float64(weights[f] * fronthaulW * (loads[f] + fronthaulW))
				linkInf := accessW > math.MaxFloat64 || fronthaulW > math.MaxFloat64
				for _, n := range s.Net.ReachableServers(k) {
					if !st.ActiveServer(n) || (honorDown && st.Down(n)) {
						continue
					}
					computeW := math.Sqrt(cycles / suitability[n])
					if useErr == nil && (computeW > math.MaxFloat64 || linkInf) {
						useErr = invalidUseWeight(players, len(cands), computeW, accessW, fronthaulW)
					}
					cost, used := 0.0, computeW > 0
					if used {
						cost = float64(weights[n] * computeW * (loads[n] + computeW))
					}
					if accessW > 0 {
						cost, used = cost+aTerm, true
					}
					if fronthaulW > 0 {
						cost, used = cost+fTerm, true
					}
					if !used {
						cost = float64(weights[a] * noOpPin * (loads[a] + noOpPin))
					}
					cands = append(cands, greedyCand{link: int32(j), server: int32(n), cost: cost})
				}
			}
		}
		c.greedyCands = cands
		if len(cands) == 0 {
			return Selection{}, fmt.Errorf("core: device %d has no feasible (station, server) pair this slot", i)
		}
		best, bestCost := 0, math.Inf(1)
		for j := range cands {
			if cands[j].cost < bestCost {
				best, bestCost = j, cands[j].cost
			}
		}
		l, n := st.Channels[i][cands[best].link], int(cands[best].server)
		k := l.Station
		sel.Station[i], sel.Server[i] = k, n
		addGreedyUses(loads, n, servers+k, servers+stations+k,
			math.Sqrt(cycles/suitability[n]), math.Sqrt(bits/l.SE.BpsPerHz()), math.Sqrt(bits/st.FronthaulSE[k].BpsPerHz()))
		players++
	}
	for r, m := range weights {
		if !(m > 0) || math.IsInf(m, 0) {
			return Selection{}, fmt.Errorf("core: building P2-A game: game: resource %d has invalid weight %v", r, m)
		}
	}
	if players == 0 {
		return Selection{}, errors.New("core: building P2-A game: game: no players")
	}
	if useErr != nil {
		return Selection{}, useErr
	}
	return sel, nil
}

// greedyCand is a feasible pair of the device the greedy pick places:
// its link's index in the device's channel row, its server, and its cost.
type greedyCand struct {
	link, server int32
	cost         float64
}

// addGreedyUses adds the uses a pair has in the P2-A game to the loads:
// its compute, access and fronthaul weights that are positive, or the
// no-op pin on the access link when none is.
func addGreedyUses(loads []float64, compute, access, fronthaul int, computeW, accessW, fronthaulW float64) {
	used := false
	if computeW > 0 {
		loads[compute] += computeW
		used = true
	}
	if accessW > 0 {
		loads[access] += accessW
		used = true
	}
	if fronthaulW > 0 {
		loads[fronthaul] += fronthaulW
		used = true
	}
	if !used {
		loads[access] += noOpPin
	}
}

// invalidUseWeight is Build's error for player pl's strategy s whose
// uses, with weights ws in use order, include one that is not finite.
func invalidUseWeight(pl, s int, ws ...float64) error {
	for _, w := range ws {
		if w > math.MaxFloat64 {
			return fmt.Errorf("core: building P2-A game: game: player %d strategy %d has invalid weight %v", pl, s, w)
		}
	}
	return nil
}

// pickRandom assigns every active device a uniformly random feasible
// (station, server) pair — the ROPT selection step. The draws come from a
// source derived from (seed, slot) under the policy's own name, so runs
// replay bit-identically. Each active device, in ascending order, draws
// one Intn over its feasible-pair count: the draws game.RandomProfile
// makes on the slot's P2-A game, whose players are the active devices in
// that order with those pairs as strategies, without building the game.
// The device's pairs are recorded in one walk into c.randPairs and the
// draw indexes them.
func pickRandom(c *Controller, st *trace.State) (Selection, error) {
	if err := c.sys.CheckState(st); err != nil {
		return Selection{}, err
	}
	src := rng.New(c.cfg.Seed).Derive(fmt.Sprintf("policy-random-slot-%d", c.slot))
	_, _, _, devices := c.sys.Net.Counts()
	sel := emptySelection(devices)
	pairs := c.randPairs
	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			continue
		}
		pairs = pairs[:0]
		c.sys.feasiblePairs(i, st, func(k, n int) bool {
			pairs = append(pairs, topology.Pair{Station: k, Server: n})
			return true
		})
		if len(pairs) == 0 {
			return Selection{}, fmt.Errorf("core: device %d has no feasible (station, server) pair this slot", i)
		}
		pick := pairs[src.Intn(len(pairs))]
		sel.Station[i], sel.Server[i] = pick.Station, pick.Server
	}
	c.randPairs = pairs
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
