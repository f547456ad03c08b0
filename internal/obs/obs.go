// Package obs is the solver observability layer: allocation-free
// instrumentation primitives (atomic counters, fixed-bucket log-scale
// histograms, gauges) collected in a Registry that the solver stack
// threads through its hot paths.
//
// Two invariants make it safe to leave instrumentation wired in
// permanently (DESIGN.md §8):
//
//  1. Nil-safe: every method on a nil *Registry, *Counter, *Gauge, or
//     *Histogram is a no-op, so instrumented code needs no "is
//     observability on?" branches — an unset registry costs one nil
//     check per record.
//  2. Alloc-free on the hot path: Counter.Add, Gauge.Set, and
//     Histogram.Observe perform only atomic operations on preallocated
//     memory. All allocation happens at registration (Registry.Counter
//     et al.) or snapshot time.
package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. Safe for
// concurrent use; all methods are no-ops on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge holds the latest value of an instantaneous quantity (e.g. the
// virtual-queue backlog Q(t)). Safe for concurrent use; no-op when nil.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucket layout: numBuckets fixed power-of-two buckets.
// Bucket i (0 < i < numBuckets−1) counts values in [2^(i−32), 2^(i−31));
// bucket 0 is the underflow bucket (v < 2^−31, including zero, negative,
// and NaN observations — Θ_t can be negative when the slot runs under
// budget); the last bucket is the overflow bucket (v ≥ 2^31). The layout
// spans nanoseconds to gigaunits with ~1 significant bit of resolution,
// enough to see the shape of iteration counts, latencies, and backlogs
// without any per-histogram configuration.
const (
	numBuckets = 64
	minExp     = -31 // exponent of bucket 1's lower bound
)

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if !(v > 0) { // negative, zero, or NaN
		return 0
	}
	if math.IsInf(v, 1) {
		return numBuckets - 1
	}
	// Frexp: v = frac·2^exp with frac ∈ [0.5, 1), so v ∈ [2^(exp−1), 2^exp).
	_, exp := math.Frexp(v)
	idx := exp - 1 - minExp + 1 // bucket 1 holds [2^minExp, 2^(minExp+1))
	if idx < 0 {
		return 0
	}
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// BucketUpperBound returns the exclusive upper bound of bucket i
// (+Inf for the overflow bucket).
func BucketUpperBound(i int) float64 {
	if i >= numBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, minExp+i) // bucket 0 → 2^minExp, bucket 1 → 2^(minExp+1), …
}

// Histogram is a fixed-bucket log₂-scale histogram with running count,
// sum, min, and max. Safe for concurrent use; no-op when nil. Observe
// performs only atomic operations — no allocation, no locks.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	minBits atomic.Uint64 // float64 bits; initialized to +Inf
	maxBits atomic.Uint64 // float64 bits; initialized to −Inf
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
	h.updateMin(v)
	h.updateMax(v)
}

func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (h *Histogram) updateMin(v float64) {
	for {
		old := h.minBits.Load()
		if !(v < math.Float64frombits(old)) {
			return
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func (h *Histogram) updateMax(v float64) {
	for {
		old := h.maxBits.Load()
		if !(v > math.Float64frombits(old)) {
			return
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Sum returns the running sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry names and owns a set of instruments. The zero value is not
// usable; call New. A nil *Registry is the "observability off" state:
// every accessor returns a nil instrument whose methods are no-ops.
//
// Instrument lookup takes a mutex and may allocate; hot paths should
// resolve instruments once (at controller/engine construction) and hold
// the typed handles.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram()
		r.hists[name] = h
	}
	return h
}
