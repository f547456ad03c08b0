package main

import (
	"math"
	"slices"
	"time"
)

// refNominalMS is the reference kernel's median time on the host the
// benchmark was sized on (a 2-core Xeon VM).
const refNominalMS = 2.0

// refEvery spaces the reference kernel's runs inside a timed loop.
const refEvery = 25 * time.Millisecond

// hostClock times a fixed reference computation between slots, so that a
// run can report its timings at the reference host's speed. On a shared
// VM whole runs drift 15–25% slower or faster with the neighbours' load;
// the kernel drifts with them, and scaling by refNominalMS / its median
// cancels the drift while a change to the program still moves the scaled
// time in full. The kernel is allocation-free, so the program's garbage
// collector cannot slow it except by running beside it, which the median
// over a run's samples discounts.
type hostClock struct {
	src, buf []float64
	bytes    []byte
	sink     uint64
	last     time.Time
	samples  []float64
}

func newHostClock() *hostClock {
	h := &hostClock{src: make([]float64, 1<<14), buf: make([]float64, 1<<14), bytes: make([]byte, 4<<20)}
	x := uint64(88172645463325252)
	for i := range h.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.src[i] = float64(x % 1000003)
	}
	for i := range h.bytes {
		h.bytes[i] = byte(i * 31)
	}
	return h
}

// tick runs the kernel once if refEvery has passed since its last run.
func (h *hostClock) tick() {
	if time.Since(h.last) < refEvery {
		return
	}
	t0 := time.Now()
	copy(h.buf, h.src)
	slices.Sort(h.buf)
	v := uint64(14695981039346656037)
	for i := 0; i < len(h.bytes); i += 16 {
		v ^= uint64(h.bytes[i])
		v *= 1099511628211
	}
	h.sink += v + math.Float64bits(h.buf[len(h.buf)/2])
	h.last = time.Now()
	h.samples = append(h.samples, ms(h.last.Sub(t0)))
}

// scale is refNominalMS over the kernel's median time: multiply a
// measured duration by it to get the duration at the reference host's
// speed (1 when the kernel never ran).
func (h *hostClock) scale() float64 {
	if len(h.samples) == 0 {
		return 1
	}
	return refNominalMS / quantile(h.samples, 0.5)
}
