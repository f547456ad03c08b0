package core

import (
	"fmt"
	"math"
	"sync"

	"eotora/internal/par"
	"eotora/internal/solver"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// SolveP2B solves the continuous subproblem P2-B: for fixed (x, y) it
// minimizes
//
//	V·T_t(x̄, ȳ, Ω, β) + Q(t)·Θ(Ω, p_t)
//
// over Ω with ω_n ∈ [F_n^L, F_n^U]. The paper hands this to the CVX
// convex solver; here we exploit that the objective separates per server:
//
//	min_{ω_n}  V·A_n/(cores_n·ω_n) + Q·p_t·cores_n·g_n(ω_n)·slot,
//
// with A_n = (Σ_{i→n} √(f_i/σ_{i,n}))², a strictly convex 1-D problem per
// server (decreasing hyperbola plus convex increasing energy term) solved
// by guaranteed golden-section search. The −C̄ part of Θ is constant in Ω
// and therefore dropped inside the minimization.
func (s *System) SolveP2B(sel Selection, st *trace.State, v, q float64) (Frequencies, error) {
	if q < 0 || math.IsNaN(q) {
		return nil, fmt.Errorf("core: P2-B needs Q ≥ 0, got %v", q)
	}
	sc := borrowSums(len(s.Net.Servers))
	defer sc.release()
	return s.solveP2B(s.computeSums(sc.sums, sel, st), st, v, s.globalBudget(q), solveInstr{}, nil, nil)
}

// computeSums accumulates the per-server Lemma-1 sums Σ_{i→n} √(f_i/σ_{i,n})
// of a selection, the compute part of lemma1Sums, into compute (zeroed,
// one entry per server) and returns it: P2-B's input for selections
// priced from the state.
func (s *System) computeSums(compute []float64, sel Selection, st *trace.State) []float64 {
	for i, n := range sel.Server {
		if n < 0 {
			continue
		}
		compute[n] += math.Sqrt(st.TaskSizes[i].Count() / s.Net.Suitability[i][n])
	}
	return compute
}

// solveP2B is the shared per-server convex solve over the per-server sums
// computeSum (A_n = computeSum[n]²): BDMA rounds pass the compute loads
// of their P2-A game, the exported entry points the sums of a selection.
// b supplies the queue weight of each server's energy term, its budget
// group's backlog (Budget.weight). in records per-server solver work (the zero value records
// nothing). pool, when non-trivial, fans the independent per-server 1-D
// minimizations across workers: the separability the paper exploits
// analytically is exactly shard independence, each server's result lands
// in its preallocated freq slot, and golden-section search draws no
// randomness, so the returned frequencies are bit-identical to the
// serial loop.
//
// dl is polled exactly once, at entry — never per server, which would make
// counted-checkpoint budgets depend on the shard layout. An expired
// deadline returns ErrSlotDeadline; the BDMA loop maps it to the best
// decision found so far.
func (s *System) solveP2B(computeSum []float64, st *trace.State, v float64, b *Budget, in solveInstr, pool *par.Pool, dl *solver.Deadline) (Frequencies, error) {
	if !(v > 0) {
		return nil, fmt.Errorf("core: P2-B needs V > 0, got %v", v)
	}
	if dl.Expired() {
		return nil, fmt.Errorf("core: P2-B: %w", ErrSlotDeadline)
	}
	servers := len(s.Net.Servers)
	freq := make(Frequencies, servers)
	if pool.Size() > 1 && servers > 1 {
		t := p2bTaskPool.Get().(*p2bTask)
		shards := pool.Size()
		if shards > servers {
			shards = servers
		}
		t.sys, t.st, t.v, t.budget, t.in = s, st, v, b, in
		t.sums, t.freq, t.shards = computeSum, freq, shards
		if cap(t.errs) < shards {
			t.errs = make([]error, shards)
		} else {
			t.errs = t.errs[:shards]
			for i := range t.errs {
				t.errs[i] = nil
			}
		}
		pool.Run(shards, t)
		var err error
		// Shards own ascending server spans and each stops at its own
		// first failure, so the first errored shard holds the error of
		// the lowest failing server — the one the serial loop returns.
		for _, e := range t.errs {
			if e != nil {
				err = e
				break
			}
		}
		t.release()
		if err != nil {
			return nil, err
		}
		return freq, nil
	}
	for n := 0; n < servers; n++ {
		if !st.ActiveServer(n) {
			// Removed server: pinned at F^L, carries no load and no cost.
			freq[n] = s.Net.Servers[n].MinFreq
			continue
		}
		w, steps, solved, err := s.solveP2BServer(n, computeSum[n], st, v, b.weight(n))
		if err != nil {
			return nil, err
		}
		if solved {
			in.p2bSolves.Inc()
			in.p2bIters.Observe(float64(steps))
		}
		freq[n] = w
	}
	return freq, nil
}

// solveP2BServer runs one server's golden-section minimization — the
// single source of truth shared by the serial loop and the parallel
// shards. solved is false for the flat-objective shortcut (no load and
// Q = 0), which performs no search and records no solver work.
func (s *System) solveP2BServer(n int, sum float64, st *trace.State, v, q float64) (w units.Frequency, steps int, solved bool, err error) {
	srv := &s.Net.Servers[n]
	a := sum * sum
	cores := float64(srv.Cores)
	capScale := st.Cap(n)
	model := s.Energy[n]
	obj := func(w float64) float64 {
		latency := 0.0
		if a > 0 {
			latency = a / (cores * w * capScale)
		}
		e := units.Over(units.Power(model.Power(units.Frequency(w)).Watts()*cores), units.Seconds(s.SlotSeconds))
		return v*latency + q*float64(st.Price.Cost(e))
	}
	// With no load and Q = 0 the objective is flat; golden section
	// still returns a boundary point, conventionally F^L.
	if a == 0 && q == 0 {
		return srv.MinFreq, 0, false, nil
	}
	x, _, steps, err := solver.Minimize1DSteps(obj, srv.MinFreq.Hertz(), srv.MaxFreq.Hertz(), 1e3)
	if err != nil {
		return 0, 0, false, fmt.Errorf("core: P2-B server %d: %w", n, err)
	}
	return units.Frequency(x), steps, true, nil
}

// p2bTask fans solveP2BServer across server shards. Each shard writes
// its servers' preallocated freq slots and stops at its first error;
// solver-work instruments are recorded directly from the shards (obs
// atomics commute, so totals match serial on success paths). Tasks are
// pooled so steady-state parallel slots stay allocation-free.
type p2bTask struct {
	sys    *System
	st     *trace.State
	v      float64
	budget *Budget
	in     solveInstr
	sums   []float64
	freq   Frequencies
	shards int
	errs   []error
}

var p2bTaskPool = sync.Pool{New: func() any { return new(p2bTask) }}

func (t *p2bTask) Run(shard int) {
	lo, hi := par.Span(len(t.freq), t.shards, shard)
	for n := lo; n < hi; n++ {
		if !t.st.ActiveServer(n) {
			t.freq[n] = t.sys.Net.Servers[n].MinFreq
			continue
		}
		w, steps, solved, err := t.sys.solveP2BServer(n, t.sums[n], t.st, t.v, t.budget.weight(n))
		if err != nil {
			t.errs[shard] = err
			return
		}
		if solved {
			t.in.p2bSolves.Inc()
			t.in.p2bIters.Observe(float64(steps))
		}
		t.freq[n] = w
	}
}

// release drops all references and returns the task to the pool.
func (t *p2bTask) release() {
	t.sys, t.st, t.budget, t.in = nil, nil, nil, solveInstr{}
	t.sums, t.freq = nil, nil
	p2bTaskPool.Put(t)
}

// P2Objective evaluates the P2 objective f(x, y, Ω) = V·T_t + Q·Θ for a
// candidate decision under the paper's global budget, priced from the
// state: the reference the one-group Budget.Objective reproduces.
func (s *System) P2Objective(sel Selection, freq Frequencies, st *trace.State, v, q float64) float64 {
	return v*s.ReducedLatency(sel, freq, st).Value() + q*s.ThetaActive(freq, st.Price, st.ServerActive)
}
