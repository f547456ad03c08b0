// Package faults provides deterministic, seeded fault injection for the
// simulation harness: trace corruption (NaN/negative demands, zeroed
// channel rows), topology degradation (server outage windows, capacity
// loss), and solver latency (artificial stalls that force slot-deadline
// misses). An Injector wraps a trace.Source; every fault draw derives from
// (Seed, slot), so a fault schedule replays bit-identically regardless of
// what the consumer does between slots.
//
// Injected trace garbage is meant to be caught downstream — by
// core.System.CheckState (reject) or a trace.Sanitizer layered on top of
// the injector (repair); NewSanitized builds that standard stack.
package faults

import (
	"fmt"
	"math"
	"time"

	"eotora/internal/obs"
	"eotora/internal/rng"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// Config parameterizes an Injector. All probabilities are per slot; the
// zero value injects nothing.
type Config struct {
	// Seed drives every fault draw; two runs with the same seed and
	// source see the same fault schedule.
	Seed int64

	// NaNProb corrupts one uniformly chosen device's task size or data
	// length with NaN.
	NaNProb float64
	// NegProb corrupts one uniformly chosen device's task size or data
	// length with a negative value.
	NegProb float64
	// ZeroChannelProb zeroes one uniformly chosen device's entire channel
	// row (total coverage loss for the slot).
	ZeroChannelProb float64

	// OutageProb starts a server outage: one uniformly chosen server is
	// marked down (trace.State.ServerDown) for OutageSlots consecutive
	// slots.
	OutageProb float64
	// OutageSlots is the outage window length; 0 selects 1.
	OutageSlots int
	// CapLossProb starts a capacity-loss window: one uniformly chosen
	// server runs at CapLossScale capacity for OutageSlots slots.
	CapLossProb float64
	// CapLossScale is the degraded capacity in (0, 1); 0 selects 0.5.
	CapLossScale float64

	// StallProb injects an artificial solver stall of Stall into the
	// slot's timed deadline budget (via Controller.SetStall), forcing a
	// deadline miss without sleeping. No effect on controllers without a
	// timed budget.
	StallProb float64
	// Stall is the injected stall length; 0 selects one hour (certain to
	// exhaust any realistic slot budget).
	Stall time.Duration
}

// DefaultConfig returns moderate rates exercising every fault class — the
// soak-test profile: roughly one fault every few slots, outages lasting a
// handful of slots.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		NaNProb:         0.05,
		NegProb:         0.05,
		ZeroChannelProb: 0.03,
		OutageProb:      0.03,
		OutageSlots:     4,
		CapLossProb:     0.05,
		CapLossScale:    0.5,
		StallProb:       0.05,
	}
}

// Validate checks the configuration's ranges.
func (c *Config) Validate() error {
	for name, p := range map[string]float64{
		"NaNProb": c.NaNProb, "NegProb": c.NegProb, "ZeroChannelProb": c.ZeroChannelProb,
		"OutageProb": c.OutageProb, "CapLossProb": c.CapLossProb, "StallProb": c.StallProb,
	} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("faults: %s = %v outside [0, 1]", name, p)
		}
	}
	if c.OutageSlots < 0 {
		return fmt.Errorf("faults: negative OutageSlots %d", c.OutageSlots)
	}
	if c.CapLossScale < 0 || c.CapLossScale >= 1 {
		if c.CapLossScale != 0 {
			return fmt.Errorf("faults: CapLossScale %v outside (0, 1)", c.CapLossScale)
		}
	}
	return nil
}

// Staller receives per-slot stall injections; *core.Controller implements
// it. The interface keeps this package free of a core dependency.
type Staller interface {
	// SetStall sets the artificial solver delay charged against every
	// subsequent slot's timed budget; zero clears it.
	SetStall(d time.Duration)
}

// Injector wraps a trace.Source and applies the configured faults to each
// state in place. It implements trace.Source.
type Injector struct {
	cfg     Config
	src     trace.Source
	servers int
	ctrl    Staller

	// Window state: remaining down/degraded slots per server, and the
	// buffers exposed through the state (reused every slot).
	outageLeft []int
	capLeft    []int
	downBuf    []bool
	capBuf     []float64

	slot      int
	injected  int
	stallHits int
}

// NewInjector wraps src for a system with the given server count. The
// configuration must validate.
func NewInjector(cfg Config, servers int, src trace.Source) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if servers <= 0 {
		return nil, fmt.Errorf("faults: injector needs servers > 0, got %d", servers)
	}
	return &Injector{
		cfg:        cfg,
		src:        src,
		servers:    servers,
		outageLeft: make([]int, servers),
		capLeft:    make([]int, servers),
		downBuf:    make([]bool, servers),
		capBuf:     make([]float64, servers),
	}, nil
}

// NewSanitized builds the standard fault stack over src, for a system
// with the given server count: a seeded Injector whose stalls reach st
// (nil = none, as for policies without a timed solve), under a repairing
// trace.Sanitizer whose repairs reg counts under trace.repairs (nil reg =
// uncounted). It returns the sanitizer, which is the source to consume,
// and the injector for post-run reporting.
func NewSanitized(cfg Config, servers int, src trace.Source, st Staller, reg *obs.Registry) (*trace.Sanitizer, *Injector, error) {
	inj, err := NewInjector(cfg, servers, src)
	if err != nil {
		return nil, nil, err
	}
	inj.Attach(st)
	san := trace.NewSanitizer(inj)
	san.Instrument(reg)
	return san, inj, nil
}

// Attach registers a stall receiver (typically the controller consuming
// this source); each slot's stall draw is pushed into it before the state
// is returned. Nil detaches.
func (in *Injector) Attach(ctrl Staller) { in.ctrl = ctrl }

// Injections returns the total number of faults injected so far (trace
// corruptions, outage/capacity window starts, and stalls).
func (in *Injector) Injections() int { return in.injected }

// Period implements trace.Source.
func (in *Injector) Period() int { return in.src.Period() }

// Next implements trace.Source: it pulls the next state and corrupts it
// according to the fault schedule derived from (Seed, slot).
func (in *Injector) Next() *trace.State {
	st := in.src.Next()
	in.slot++
	r := rng.New(in.cfg.Seed).Derive(fmt.Sprintf("faults-slot-%d", in.slot))

	in.corruptTrace(st, r)
	in.degradeTopology(st, r)
	in.injectStall(r)
	return st
}

// corruptTrace applies the per-slot trace faults. Draw order is fixed
// (NaN, negative, zero-channel) so schedules are reproducible.
func (in *Injector) corruptTrace(st *trace.State, r *rng.Source) {
	devices := len(st.TaskSizes)
	if devices == 0 {
		return
	}
	if r.Bernoulli(in.cfg.NaNProb) {
		i := r.Intn(devices)
		if r.Bernoulli(0.5) {
			st.TaskSizes[i] = units.Cycles(math.NaN())
		} else {
			st.DataLengths[i] = units.DataSize(math.NaN())
		}
		in.injected++
	}
	if r.Bernoulli(in.cfg.NegProb) {
		i := r.Intn(devices)
		if r.Bernoulli(0.5) {
			st.TaskSizes[i] = -st.TaskSizes[i] - 1
		} else {
			st.DataLengths[i] = -st.DataLengths[i] - 1
		}
		in.injected++
	}
	if r.Bernoulli(in.cfg.ZeroChannelProb) && len(st.Channels) == devices {
		st.Channels[r.Intn(devices)] = nil
		in.injected++
	}
}

// degradeTopology advances the outage and capacity-loss windows and
// publishes them through the state's ServerDown/CapScale fields.
func (in *Injector) degradeTopology(st *trace.State, r *rng.Source) {
	window := in.cfg.OutageSlots
	if window <= 0 {
		window = 1
	}
	scale := in.cfg.CapLossScale
	if scale == 0 {
		scale = 0.5
	}
	if r.Bernoulli(in.cfg.OutageProb) {
		in.outageLeft[r.Intn(in.servers)] = window
		in.injected++
	}
	if r.Bernoulli(in.cfg.CapLossProb) {
		in.capLeft[r.Intn(in.servers)] = window
		in.injected++
	}
	anyDown, anyScaled := false, false
	for n := 0; n < in.servers; n++ {
		in.downBuf[n] = in.outageLeft[n] > 0
		if in.downBuf[n] {
			in.outageLeft[n]--
			anyDown = true
		}
		in.capBuf[n] = 1
		if in.capLeft[n] > 0 {
			in.capLeft[n]--
			in.capBuf[n] = scale
			anyScaled = true
		}
	}
	st.ServerDown, st.CapScale = nil, nil
	if anyDown {
		st.ServerDown = in.downBuf
	}
	if anyScaled {
		st.CapScale = in.capBuf
	}
}

// injectStall pushes this slot's stall (possibly zero) into the attached
// controller.
func (in *Injector) injectStall(r *rng.Source) {
	if in.ctrl == nil {
		return
	}
	stall := time.Duration(0)
	if r.Bernoulli(in.cfg.StallProb) {
		stall = in.cfg.Stall
		if stall == 0 {
			stall = time.Hour
		}
		in.injected++
		in.stallHits++
	}
	in.ctrl.SetStall(stall)
}
