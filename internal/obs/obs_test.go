package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{math.Inf(-1), 0},
		{-1, 0},
		{0, 0},
		{math.NaN(), 0},
		{math.SmallestNonzeroFloat64, 0}, // far below 2^-31
		{math.Ldexp(1, -32), 0},          // just under bucket 1's lower bound
		{math.Ldexp(1, -31), 1},          // bucket 1 lower bound, inclusive
		{math.Ldexp(1.5, -31), 1},
		{math.Ldexp(1, -30), 2}, // bucket 1 upper bound is exclusive
		{0.5, 31},               // [2^-1, 2^0)
		{1, 32},                 // [2^0, 2^1)
		{1.999, 32},
		{2, 33},
		{3, 33},
		{1e9, 61}, // 2^29.9 ∈ [2^29, 2^30)
		{math.Ldexp(1, 30), 62},
		{math.Ldexp(1, 31), 63}, // overflow bucket
		{math.MaxFloat64, 63},
		{math.Inf(1), 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every finite positive observation lands in a bucket whose bounds
	// contain it: lower = BucketUpperBound(i-1), upper = BucketUpperBound(i).
	for _, v := range []float64{1e-9, 3.7e-4, 0.25, 1, 42, 1e6, 2.9e9} {
		i := bucketIndex(v)
		lo, hi := BucketUpperBound(i-1), BucketUpperBound(i)
		if i == 0 {
			lo = math.Inf(-1)
		}
		if !(v >= lo && v < hi) {
			t.Errorf("v=%g in bucket %d with bounds [%g, %g)", v, i, lo, hi)
		}
	}
}

func TestBucketUpperBound(t *testing.T) {
	if got := BucketUpperBound(0); got != math.Ldexp(1, -31) {
		t.Errorf("BucketUpperBound(0) = %g, want 2^-31", got)
	}
	if got := BucketUpperBound(32); got != 2 {
		t.Errorf("BucketUpperBound(32) = %g, want 2", got)
	}
	if !math.IsInf(BucketUpperBound(numBuckets-1), 1) {
		t.Error("overflow bucket upper bound should be +Inf")
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("hits")
	h := r.Histogram("lat")
	g := r.Gauge("q")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(float64(i%7) + 0.5)
				g.Set(float64(w))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := h.count.Load(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	wantSum := float64(workers) * (1000.0/7*21 + float64(per)*0.5)
	_ = wantSum // sum is CAS-accumulated; just check it is sane
	if s := h.Sum(); s <= 0 || s > float64(workers*per)*7 {
		t.Errorf("histogram sum %g out of range", s)
	}
	if v := g.Value(); v < 0 || v >= workers {
		t.Errorf("gauge = %g, want a worker index", v)
	}
}

func TestNilRegistryNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// None of these may panic, and all reads are zero values.
	c.Inc()
	c.Add(5)
	g.Set(3)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read as zero")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestObserveAllocFree(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(1.5)
		h.Observe(2.5)
	})
	if allocs != 0 {
		t.Errorf("hot-path record allocated %.1f times per op, want 0", allocs)
	}
	var nilC *Counter
	var nilH *Histogram
	allocs = testing.AllocsPerRun(1000, func() {
		nilC.Inc()
		nilH.Observe(2.5)
	})
	if allocs != 0 {
		t.Errorf("nil-instrument record allocated %.1f times per op, want 0", allocs)
	}
}

func TestSnapshotStats(t *testing.T) {
	r := New()
	h := r.Histogram("h")
	for _, v := range []float64{1, 2, 4, 8, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != 5 || s.Sum != 1015 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	if m := s.Mean(); m != 203 {
		t.Errorf("mean = %g, want 203", m)
	}
	// p50 falls in the bucket of the 3rd observation (value 4 → le 8).
	if q := s.Quantile(0.5); q != 8 {
		t.Errorf("p50 = %g, want 8", q)
	}
	if q := s.Quantile(1); q != s.Max {
		t.Errorf("p100 = %g, want max %g", q, s.Max)
	}
	if !math.IsNaN(HistogramSnapshot{}.Quantile(0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
	if !math.IsNaN(HistogramSnapshot{}.Mean()) {
		t.Error("empty histogram mean should be NaN")
	}
}

func TestSnapshotWriteJSONCSV(t *testing.T) {
	r := New()
	r.Counter("slots").Add(10)
	r.Gauge("backlog").Set(1.25)
	r.Histogram("t").Observe(0.5)
	snap := r.Snapshot()

	var jsonBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var round map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v\n%s", err, jsonBuf.String())
	}

	var csvBuf bytes.Buffer
	if err := snap.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	out := csvBuf.String()
	for _, want := range []string{
		"kind,name,field,value\n",
		"counter,slots,value,10\n",
		"gauge,backlog,value,1.25\n",
		"histogram,t,count,1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestPublishExpvar(t *testing.T) {
	r := New()
	r.Counter("c").Add(2)
	if err := r.PublishExpvar("obs_test_registry"); err != nil {
		t.Fatal(err)
	}
	v := expvar.Get("obs_test_registry")
	if v == nil {
		t.Fatal("expvar not published")
	}
	if !strings.Contains(v.String(), `"c":2`) {
		t.Errorf("expvar value missing counter: %s", v.String())
	}
	// Re-publishing re-points the same name at a new registry.
	r2 := New()
	r2.Counter("c").Add(9)
	if err := r2.PublishExpvar("obs_test_registry"); err != nil {
		t.Fatalf("re-publish: %v", err)
	}
	if !strings.Contains(expvar.Get("obs_test_registry").String(), `"c":9`) {
		t.Error("re-publish did not re-point the expvar")
	}
	// A name owned by someone else is an error.
	expvar.NewInt("obs_test_foreign")
	if err := New().PublishExpvar("obs_test_foreign"); err == nil {
		t.Error("publishing over a foreign expvar should fail")
	}
}
