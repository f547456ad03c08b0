// Package par provides a fixed-size, reusable worker pool for
// deterministic intra-slot parallelism. The per-slot solve of the online
// controller fans its embarrassingly parallel loops — the per-server
// P2-B minimizations, the CGBA best-response rescans, and the sharded
// CGBA's interior sweeps — across a Pool whose workers persist for the
// life of the run: no goroutine is spawned per slot, per round, or per
// region.
//
// Determinism is the contract, not a best effort. A Pool never changes
// *what* is computed, only *where*: a parallel region is a set of shards
// whose work items write disjoint, preallocated output slots, and every
// reduction over those slots happens on the caller in fixed shard order
// after Run returns. Combined with Span's fixed shard boundaries and the
// rule that no RNG is drawn inside a region, results are bit-identical
// for every pool size — including nil (no pool at all), which the hot
// paths treat as "run the exact serial code". DESIGN.md §9 carries the
// full argument; the pool-matrix tests in game and core enforce it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"eotora/internal/obs"
)

// Metric names recorded by an instrumented Pool (see Instrument).
const (
	// MetricRegions counts parallel regions dispatched through the pool
	// (serial fallbacks — nil pool, size 1, single shard — don't count).
	MetricRegions = "par.regions"
	// MetricRegionShards is a histogram of shards per region — the shard
	// utilization: regions with fewer shards than workers leave workers
	// idle.
	MetricRegionShards = "par.region_shards"
	// MetricWorkers is a gauge holding the pool size (caller + helpers).
	MetricWorkers = "par.workers"
)

// Task is one parallel region's work, split into shards. Run(shard) must
// touch only state owned by that shard (typically a Span of a shared
// output slice); shards of one region run concurrently on the pool's
// workers and on the caller.
//
// Task is an interface rather than a func value so hot paths can hand
// the pool a pointer to a persistent struct: converting a pointer to an
// interface does not allocate, keeping parallel regions off the heap in
// steady state.
type Task interface {
	// Run executes one shard's slice of the region; shard ranges over
	// [0, shards) as passed to Pool.Run.
	Run(shard int)
}

// Pool is a fixed-size set of reusable workers. The zero-value-adjacent
// states degrade gracefully: a nil *Pool and a size-1 Pool both execute
// Run entirely on the caller, exercising the same code path as the
// serial solver. A Pool is reusable across regions, rounds, and slots,
// but regions must not overlap: one Run at a time, and Run must not be
// called from inside a Task (regions do not nest).
type Pool struct {
	size int // workers including the caller; >= 1

	// Region state, written by Run before waking helpers (the channel
	// send/receive pair publishes it) and read-only during the region.
	task   Task
	shards int
	next   atomic.Int64 // next shard to claim

	wake chan struct{} // one token wakes one helper
	wg   sync.WaitGroup

	instr Instruments
}

// New returns a Pool of the given size (caller + size−1 helper
// goroutines). size <= 0 selects runtime.GOMAXPROCS(0); size 1 returns a
// pool with no helpers that runs every region on the caller. Call Close
// when done to release the helpers.
func New(size int) *Pool {
	if size <= 0 {
		size = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: size}
	if size > 1 {
		p.wake = make(chan struct{})
		for w := 0; w < size-1; w++ {
			go p.worker(p.wake)
		}
	}
	return p
}

// Size returns the pool's worker count (including the caller). A nil
// pool has size 1: the caller alone.
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// Run executes t.Run(s) for every shard s in [0, shards), distributing
// shards across the helpers and the calling goroutine, and returns when
// all shards are done. Shards are claimed dynamically (load-balanced),
// which is safe precisely because shard identity, not claim order,
// determines what a shard computes and where it writes.
//
// On a nil pool, a size-1 pool, or a single-shard region, Run degrades
// to a plain serial loop on the caller.
func (p *Pool) Run(shards int, t Task) {
	if shards <= 0 {
		return
	}
	if p == nil || p.size == 1 || shards == 1 {
		for s := 0; s < shards; s++ {
			t.Run(s)
		}
		return
	}
	p.task = t
	p.shards = shards
	p.next.Store(0)
	helpers := p.size - 1
	if helpers > shards-1 {
		helpers = shards - 1
	}
	p.wg.Add(helpers)
	for w := 0; w < helpers; w++ {
		p.wake <- struct{}{}
	}
	p.drain()
	p.wg.Wait()
	p.task = nil
	p.instr.Regions.Inc()
	p.instr.RegionShards.Observe(float64(shards))
}

// drain claims and runs shards until none remain.
func (p *Pool) drain() {
	for {
		s := int(p.next.Add(1)) - 1
		if s >= p.shards {
			return
		}
		p.task.Run(s)
	}
}

// worker receives the wake channel as an argument rather than reading
// p.wake, which Close nils out (possibly before a freshly spawned
// worker's first receive).
func (p *Pool) worker(wake <-chan struct{}) {
	for range wake {
		p.drain()
		p.wg.Done()
	}
}

// Close releases the helper goroutines. The pool remains usable: after
// Close it behaves as a size-1 pool, running regions serially on the
// caller. Close must not race with Run and is not idempotent-safe from
// multiple goroutines; call it once from the owner.
func (p *Pool) Close() {
	if p == nil || p.size == 1 {
		return
	}
	close(p.wake)
	p.size = 1
	p.wake = nil
}

// Span returns the half-open range [lo, hi) of items shard s of shards
// owns out of n items: fixed boundaries, contiguous, in order, differing
// by at most one in length. Every caller that shards the same n the same
// way gets the same decomposition — part of the determinism contract
// (reductions walk shards 0..shards−1, which is items 0..n−1 in order).
func Span(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// Instruments are the pool's observability hooks; all fields are
// optional (obs handles are nil-safe).
type Instruments struct {
	// Regions counts parallel regions executed (Pool.Run calls).
	Regions *obs.Counter
	// RegionShards records each region's shard count.
	RegionShards *obs.Histogram
}

// Instrument resolves the pool's instruments from a registry (nil
// detaches them). It must not be called concurrently with Run.
func (p *Pool) Instrument(reg *obs.Registry) {
	if p == nil {
		return
	}
	if reg == nil {
		p.instr = Instruments{}
		return
	}
	p.instr = Instruments{
		Regions:      reg.Counter(MetricRegions),
		RegionShards: reg.Histogram(MetricRegionShards),
	}
	reg.Gauge(MetricWorkers).Set(float64(p.size))
}
