package solver

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Assignment is a choice of one option per item.
type Assignment []int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// Problem is a sequential assignment problem solvable by branch-and-bound:
// items 0..Items()−1 each pick one option; the engine explores partial
// assignments depth-first in item order.
//
// Implementations carry mutable search state: Assign and Unassign push and
// pop one item's choice, and Cost/LowerBound read the current partial
// assignment. LowerBound must be admissible: no completion of the current
// partial assignment may cost less than Cost() + LowerBound().
type Problem interface {
	// Items returns the number of items to assign.
	Items() int
	// OptionCount returns how many options the given item has.
	OptionCount(item int) int
	// Assign applies option to item (item's previous state is unassigned).
	Assign(item, option int)
	// Unassign reverts the most recent Assign of this item.
	Unassign(item, option int)
	// Cost returns the objective contribution of the currently assigned
	// items.
	Cost() float64
	// LowerBound returns an admissible lower bound on the *additional*
	// cost of assigning all remaining items, given items 0..assigned−1
	// are already assigned.
	LowerBound(assigned int) float64
}

// BnBConfig bounds a branch-and-bound run.
type BnBConfig struct {
	// MaxNodes caps the number of explored nodes; 0 means unlimited.
	MaxNodes int
	// TimeLimit caps wall-clock time; 0 means unlimited.
	TimeLimit time.Duration
	// Incumbent, if non-nil, seeds the search with a known feasible
	// assignment and its cost; a good incumbent (e.g. from CGBA) prunes
	// aggressively, matching how warm starts are used with MIP solvers.
	Incumbent Assignment
	// IncumbentCost is the objective of Incumbent; required when
	// Incumbent is set.
	IncumbentCost float64
}

// BnBResult reports the outcome of a branch-and-bound run.
type BnBResult struct {
	// Best is the best complete assignment found.
	Best Assignment
	// Cost is the objective of Best.
	Cost float64
	// Bound is a global lower bound on the optimum. When the search
	// completes, Bound == Cost.
	Bound float64
	// Optimal is true when the search space was exhausted (the result is
	// provably optimal), false when a node or time budget stopped it.
	Optimal bool
	// Nodes is the number of explored search nodes.
	Nodes int
}

// ErrNoFeasible is returned when an item has no options.
var ErrNoFeasible = errors.New("solver: item with no options")

// BranchAndBound performs depth-first branch-and-bound over the problem.
// At each node the children (options of the next item) are explored in
// ascending order of their immediate cost increase, which keeps good
// incumbents early and pruning effective — the same child-ordering
// heuristic MIP solvers apply to binary assignment structures.
func BranchAndBound(p Problem, cfg BnBConfig) (BnBResult, error) {
	n := p.Items()
	res := BnBResult{Cost: math.Inf(1)}
	if n == 0 {
		res.Best = Assignment{}
		res.Cost = p.Cost()
		res.Bound = res.Cost
		res.Optimal = true
		return res, nil
	}
	for i := 0; i < n; i++ {
		if p.OptionCount(i) == 0 {
			return res, fmt.Errorf("%w: item %d", ErrNoFeasible, i)
		}
	}
	if cfg.Incumbent != nil {
		if len(cfg.Incumbent) != n {
			return res, fmt.Errorf("solver: incumbent has %d items, want %d", len(cfg.Incumbent), n)
		}
		res.Best = cfg.Incumbent.Clone()
		res.Cost = cfg.IncumbentCost
	}

	var deadline time.Time
	if cfg.TimeLimit > 0 {
		deadline = time.Now().Add(cfg.TimeLimit)
	}
	current := make(Assignment, n)
	truncated := false
	// prunedBound tracks the smallest lower bound among pruned-by-budget
	// subtrees so the final Bound stays valid even when truncated.
	prunedBound := math.Inf(1)

	var dfs func(item int)
	dfs = func(item int) {
		if truncated {
			return
		}
		res.Nodes++
		if cfg.MaxNodes > 0 && res.Nodes > cfg.MaxNodes {
			truncated = true
			return
		}
		if cfg.TimeLimit > 0 && res.Nodes%256 == 0 && time.Now().After(deadline) {
			truncated = true
			return
		}
		if item == n {
			cost := p.Cost()
			if cost < res.Cost {
				res.Cost = cost
				res.Best = current.Clone()
			}
			return
		}
		// Order children by immediate cost increase.
		base := p.Cost()
		opts := p.OptionCount(item)
		type child struct {
			option int
			delta  float64
		}
		children := make([]child, 0, opts)
		for o := 0; o < opts; o++ {
			p.Assign(item, o)
			children = append(children, child{option: o, delta: p.Cost() - base})
			p.Unassign(item, o)
		}
		// Insertion sort: opts is small (≤ K·N) and mostly ordered.
		for i := 1; i < len(children); i++ {
			for j := i; j > 0 && children[j].delta < children[j-1].delta; j-- {
				children[j], children[j-1] = children[j-1], children[j]
			}
		}
		for _, ch := range children {
			p.Assign(item, ch.option)
			lb := p.Cost() + p.LowerBound(item+1)
			if lb < res.Cost {
				current[item] = ch.option
				dfs(item + 1)
			} else if truncated && lb < prunedBound {
				prunedBound = lb
			}
			p.Unassign(item, ch.option)
			if truncated {
				// Everything not yet explored may hide the optimum; the
				// root bound below accounts for it.
				if lb < prunedBound {
					prunedBound = lb
				}
				return
			}
		}
	}
	dfs(0)

	if res.Best == nil {
		return res, errors.New("solver: no feasible assignment found")
	}
	if truncated {
		rootBound := p.LowerBound(0)
		res.Bound = math.Min(res.Cost, math.Max(rootBound, 0))
		if prunedBound < res.Bound {
			res.Bound = prunedBound
		}
		res.Optimal = false
	} else {
		res.Bound = res.Cost
		res.Optimal = true
	}
	return res, nil
}
