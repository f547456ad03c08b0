package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"eotora/internal/core"
	"eotora/internal/serve"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// checker validates every timed decision of a run, counts the failures,
// and folds each decision into the digest and the quality sums. One
// checker follows one run; backlog[i] tracks Q(t) of the i-th policy so
// the virtual-queue recurrence is checked slot by slot.
type checker struct {
	sys       *core.System
	backlog   []float64
	attempted int
	failed    int
	firstErr  error

	digest hash.Hash64
	buf    []byte

	// Quality sums: Σ T_t/active devices, Σ C_t/C̄, and the number of
	// decisions summed.
	latency, cost float64
	decisions     int
}

func newChecker(sys *core.System, backlogs []float64) *checker {
	return &checker{sys: sys, backlog: backlogs, digest: fnv.New64a()}
}

// record counts one checked decision and its verdict.
func (c *checker) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

// batch checks one policy's slot result against the state it decided:
// constraints (1)–(3) on the selection, the frequency box, the Lemma-1
// shares' capacity constraints (4)–(6), θ(t) = C_t − C̄, the queue
// recurrence Q(t+1) = max(Q(t)+θ(t), 0) exactly, and a full-rung solve.
func (c *checker) batch(i int, st *trace.State, res *core.SlotResult) {
	c.record(c.checkBatch(i, st, res))
	c.backlog[i] = res.Backlog
	d := res.Decision
	freq := make([]float64, len(d.Freq))
	for n, f := range d.Freq {
		freq[n] = f.Hertz()
	}
	c.fold(d.Station, d.Server, freq, res.Backlog)
	c.quality(res.Latency.Value(), st, res.EnergyCost.Dollars())
}

func (c *checker) checkBatch(i int, st *trace.State, res *core.SlotResult) error {
	d := res.Decision
	if res.Rung != core.RungFull {
		return fmt.Errorf("slot %d decided at rung %d, want full", res.Slot, res.Rung)
	}
	if err := c.sys.Validate(d.Selection, st); err != nil {
		return fmt.Errorf("slot %d: %w", res.Slot, err)
	}
	if err := c.sys.ValidateFrequencies(d.Freq); err != nil {
		return fmt.Errorf("slot %d: %w", res.Slot, err)
	}
	if err := c.sys.ValidateAllocation(d.Selection, d.Allocation); err != nil {
		return fmt.Errorf("slot %d: %w", res.Slot, err)
	}
	if theta := float64(res.EnergyCost - c.sys.Budget); res.Theta != theta {
		return fmt.Errorf("slot %d: θ = %v, want C_t − C̄ = %v", res.Slot, res.Theta, theta)
	}
	return c.recurrence(res.Slot, c.backlog[i], res.Theta, res.Backlog, res.Latency.Value())
}

// served checks one published decision of the daemon against the
// generator state its events encode: the selection and frequencies are
// feasible, every event of the batch was applied and none was invalid,
// the slot was solved at the full rung, and the queue recurrence holds.
func (c *checker) served(st *trace.State, dec *serve.Decision, events int) {
	c.record(c.checkServed(st, dec, events))
	c.backlog[0] = dec.Backlog
	c.fold(dec.Station, dec.Server, dec.FreqHz, dec.Backlog)
	c.quality(dec.LatencySeconds, st, dec.EnergyCostUSD)
}

func (c *checker) checkServed(st *trace.State, dec *serve.Decision, events int) error {
	if dec.Rung != core.RungFull || dec.Degraded || dec.Escalated {
		return fmt.Errorf("slot %d decided at rung %d (escalated %v), want full", dec.Slot, dec.Rung, dec.Escalated)
	}
	if dec.EventsApplied != events || dec.EventsInvalid != 0 {
		return fmt.Errorf("slot %d applied %d of %d events, %d invalid", dec.Slot, dec.EventsApplied, events, dec.EventsInvalid)
	}
	if err := c.sys.Validate(core.Selection{Station: dec.Station, Server: dec.Server}, st); err != nil {
		return fmt.Errorf("slot %d: %w", dec.Slot, err)
	}
	freq := make(core.Frequencies, len(dec.FreqHz))
	for n, f := range dec.FreqHz {
		freq[n] = units.Frequency(f)
	}
	if err := c.sys.ValidateFrequencies(freq); err != nil {
		return fmt.Errorf("slot %d: %w", dec.Slot, err)
	}
	theta := dec.EnergyCostUSD - c.sys.Budget.Dollars()
	return c.recurrence(dec.Slot, c.backlog[0], theta, dec.Backlog, dec.LatencySeconds)
}

// recurrence checks Q(t+1) = max(Q(t)+θ(t), 0) bit for bit and a finite,
// positive slot latency T_t.
func (c *checker) recurrence(slot int, q, theta, next, latency float64) error {
	if want := math.Max(q+theta, 0); next != want {
		return fmt.Errorf("slot %d: Q(t+1) = %v, want max(%v + %v, 0) = %v", slot, next, q, theta, want)
	}
	if !(latency > 0) || math.IsInf(latency, 0) {
		return fmt.Errorf("slot %d: latency T_t = %v", slot, latency)
	}
	return nil
}

// fold adds one decision to the digest: FNV-64a over the selection, the
// frequency bits and the backlog bits.
func (c *checker) fold(station, server []int, freq []float64, backlog float64) {
	b := c.buf[:0]
	for i := range station {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(station[i])))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(server[i])))
	}
	for _, f := range freq {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(backlog))
	c.digest.Write(b)
	c.buf = b
}

func (c *checker) quality(latency float64, st *trace.State, cost float64) {
	c.latency += latency / float64(st.ActiveDevices(len(st.TaskSizes)))
	c.cost += cost / c.sys.Budget.Dollars()
	c.decisions++
}

// result starts the run's result from the checker's tallies.
func (c *checker) result(workload string) *result {
	return &result{
		workload:  workload,
		attempted: c.attempted,
		failed:    c.failed,
		firstErr:  c.firstErr,
		digest:    c.digest.Sum64(),
		metrics:   map[string]float64{},
	}
}

// qualityMetrics sets mean_latency_s and cost_ratio from the quality sums.
func (c *checker) qualityMetrics(m map[string]float64) {
	m["mean_latency_s"] = c.latency / float64(max(c.decisions, 1))
	m["cost_ratio"] = c.cost / float64(max(c.decisions, 1))
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio returns a/b, or 0 when b is 0 (a layer the run did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
