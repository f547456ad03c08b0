package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"eotora/internal/obs"
)

// fillTask writes shard indices into disjoint spans of out — the shape
// every real region has: per-shard work, preallocated slots.
type fillTask struct {
	out    []int
	shards int
}

func (t *fillTask) Run(shard int) {
	lo, hi := Span(len(t.out), t.shards, shard)
	for i := lo; i < hi; i++ {
		t.out[i] = shard
	}
}

// countTask counts Run invocations (atomically: shards run concurrently).
type countTask struct{ n atomic.Int64 }

func (t *countTask) Run(int) { t.n.Add(1) }

func poolSizes() []int {
	return []int{1, 2, 3, runtime.NumCPU(), runtime.NumCPU() + 2}
}

func TestSpanPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 16, 100, 1023} {
		for shards := 1; shards <= 9; shards++ {
			prev := 0
			for s := 0; s < shards; s++ {
				lo, hi := Span(n, shards, s)
				if lo != prev {
					t.Fatalf("Span(%d, %d, %d): lo = %d, want %d (contiguous)", n, shards, s, lo, prev)
				}
				if hi < lo {
					t.Fatalf("Span(%d, %d, %d): hi %d < lo %d", n, shards, s, hi, lo)
				}
				if d := hi - lo; d > n/shards+1 {
					t.Fatalf("Span(%d, %d, %d): span length %d unbalanced", n, shards, s, d)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("Span(%d, %d, ·): covers %d items", n, shards, prev)
			}
		}
	}
}

func TestRunCoversAllShards(t *testing.T) {
	for _, size := range poolSizes() {
		p := New(size)
		for _, shards := range []int{1, 2, size, 3 * size, 17} {
			task := &fillTask{out: make([]int, 101), shards: shards}
			for i := range task.out {
				task.out[i] = -1
			}
			p.Run(shards, task)
			for i, got := range task.out {
				lo, _ := Span(len(task.out), shards, got)
				_, hi := Span(len(task.out), shards, got)
				if got < 0 || got >= shards || i < lo || i >= hi {
					t.Fatalf("size %d shards %d: out[%d] = %d", size, shards, i, got)
				}
			}
		}
		p.Close()
	}
}

func TestRunNilPool(t *testing.T) {
	var p *Pool
	if got := p.Size(); got != 1 {
		t.Fatalf("nil pool Size() = %d, want 1", got)
	}
	task := &countTask{}
	p.Run(5, task)
	if got := task.n.Load(); got != 5 {
		t.Fatalf("nil pool ran %d shards, want 5", got)
	}
	p.Close()         // no-op
	p.Instrument(nil) // no-op
}

func TestRunZeroShards(t *testing.T) {
	p := New(4)
	defer p.Close()
	task := &countTask{}
	p.Run(0, task)
	p.Run(-3, task)
	if got := task.n.Load(); got != 0 {
		t.Fatalf("ran %d shards for empty regions", got)
	}
}

func TestPoolReuse(t *testing.T) {
	p := New(3)
	defer p.Close()
	task := &countTask{}
	const regions, shards = 200, 7
	for r := 0; r < regions; r++ {
		p.Run(shards, task)
	}
	if got := task.n.Load(); got != regions*shards {
		t.Fatalf("ran %d shard executions, want %d", got, regions*shards)
	}
}

func TestCloseDegradesToSerial(t *testing.T) {
	p := New(4)
	p.Close()
	if got := p.Size(); got != 1 {
		t.Fatalf("Size after Close = %d, want 1", got)
	}
	task := &countTask{}
	p.Run(6, task) // must run on the caller, no helpers left
	if got := task.n.Load(); got != 6 {
		t.Fatalf("closed pool ran %d shards, want 6", got)
	}
	p.Close() // second Close is a no-op
}

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	p := New(0)
	defer p.Close()
	if got, want := p.Size(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("New(0).Size() = %d, want %d", got, want)
	}
}

// sumTask accumulates per-shard partial sums into preallocated slots;
// the caller reduces in shard order — the canonical deterministic
// reduction.
type sumTask struct {
	in     []float64
	part   []float64
	shards int
}

func (t *sumTask) Run(shard int) {
	lo, hi := Span(len(t.in), t.shards, shard)
	s := 0.0
	for i := lo; i < hi; i++ {
		s += t.in[i]
	}
	t.part[shard] = s
}

// TestShardedReductionDeterministic locks the pattern the solvers rely
// on: identical shard counts yield bit-identical reductions regardless
// of pool size or scheduling.
func TestShardedReductionDeterministic(t *testing.T) {
	in := make([]float64, 1000)
	x := 0.5
	for i := range in {
		x = 4 * x * (1 - x) // chaotic but deterministic values
		in[i] = x
	}
	const shards = 8
	want := math.NaN()
	for _, size := range poolSizes() {
		p := New(size)
		for rep := 0; rep < 5; rep++ {
			task := &sumTask{in: in, part: make([]float64, shards), shards: shards}
			p.Run(shards, task)
			total := 0.0
			for _, s := range task.part {
				total += s
			}
			if math.IsNaN(want) {
				want = total
			} else if math.Float64bits(total) != math.Float64bits(want) {
				t.Fatalf("size %d rep %d: sum bits %x, want %x",
					size, rep, math.Float64bits(total), math.Float64bits(want))
			}
		}
		p.Close()
	}
}

func TestInstruments(t *testing.T) {
	reg := obs.New()
	p := New(2)
	defer p.Close()
	p.Instrument(reg)
	task := &countTask{}
	p.Run(4, task) // parallel region: recorded
	p.Run(1, task) // single shard: serial fallback, not recorded
	snap := reg.Snapshot()
	if got := snap.Counters[MetricRegions]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricRegions, got)
	}
	if got := snap.Gauges[MetricWorkers]; got != 2 {
		t.Fatalf("%s = %v, want 2", MetricWorkers, got)
	}
	h, ok := snap.Histograms[MetricRegionShards]
	if !ok || h.Count != 1 || h.Sum != 4 {
		t.Fatalf("%s = %+v, want count 1 sum 4", MetricRegionShards, h)
	}
	p.Instrument(nil) // detach: further regions don't record
	p.Run(4, task)
	if got := reg.Snapshot().Counters[MetricRegions]; got != 1 {
		t.Fatalf("detached pool still recorded: %d", got)
	}
}

// spinTask gives each shard a fixed amount of serial work: a dependent
// chain of logistic-map steps, written to the shard's own slot.
type spinTask struct {
	steps int
	part  []float64
}

func (t *spinTask) Run(shard int) {
	x := 0.3 + 0.1*float64(shard)
	for i := 0; i < t.steps; i++ {
		x = 3.9 * x * (1 - x)
	}
	t.part[shard] = x
}

// BenchmarkPoolRegion measures whether an intra-slot region pays on the
// recording host: one op is a 2-shard region run serially on the caller
// (nil pool) and on a 2-worker pool, at about 10 µs, 100 µs and 1 ms of
// work per shard (step counts sized on a 2-vCPU x86-64 Xeon). Pooled ns/op
// near half the serial ns/op means the host runs the shards in
// parallel; near or above it means wake-up cost or core sharing eats the
// split.
func BenchmarkPoolRegion(b *testing.B) {
	for _, work := range []struct {
		name  string
		steps int
	}{{"10us", 3_300}, {"100us", 33_000}, {"1ms", 330_000}} {
		for _, mode := range []struct {
			name string
			size int
		}{{"serial", 0}, {"pool2", 2}} {
			b.Run("work="+work.name+"/"+mode.name, func(b *testing.B) {
				var p *Pool
				if mode.size > 0 {
					p = New(mode.size)
					defer p.Close()
				}
				task := &spinTask{steps: work.steps, part: make([]float64, 2)}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Run(2, task)
				}
			})
		}
	}
}
