// Package serve turns the batch EOTORA controller into a long-running
// streaming service: it ingests state-update events (device churn, channel
// reports, demand moves, price ticks, server lifecycle), batches them into
// slot ticks on a configurable cadence, drives the incremental slot solve,
// and publishes each slot's decision to poll/long-poll consumers.
//
// The pipeline is ingest → batch → tick → publish (DESIGN.md §14): ingest
// appends to a bounded queue (overflow is shed and counted, never
// blocking the producer), every tick drains the queue in arrival order
// into the daemon's working copy of β_t, the decision policy decides the
// slot, and the decision lands in a ring buffer that long-pollers wait
// on. A single tick goroutine owns the working state, so a replayed
// event stream reproduces the identical decision sequence — the property
// the snapshot/restore and loadgen-equivalence tests pin down.
//
// The daemon drives any policy.Policy (DESIGN.md §15) — the default BDMA
// controller, a comparison baseline like greedy-energy, or the bdma-tuned
// auto-tuner. Slot budgets and backpressure escalation require the
// DeadlineSetter capability (the bdma family); configuring them for a
// baseline fails at construction rather than silently never degrading.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"eotora/internal/obs"
	"eotora/internal/policy"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// Config parameterizes a Daemon. The zero value of every field selects a
// sensible default (see the field comments); Tick = 0 selects manual mode
// where slots advance only through Tick / POST /v1/tick.
type Config struct {
	// Tick is the slot cadence for Run. Zero means manual ticking — the
	// lockstep mode cmd/loadgen and the tests drive.
	Tick time.Duration
	// QueueCap bounds the ingest queue in events; arrivals beyond it are
	// shed and counted, so daemon memory stays bounded no matter how far
	// ingest outruns the slot budget. The queue's storage grows on demand
	// with its depth, never past QueueCap events. Zero selects 65536.
	QueueCap int
	// MaxBatch bounds the events applied per tick; the remainder stays
	// queued for the next tick (and counts toward escalation pressure).
	// Zero applies the whole queue each tick.
	MaxBatch int
	// DecisionBuffer is the published-decision ring size — how far a slow
	// poller may lag before it can only observe the latest slot. Zero
	// selects 64.
	DecisionBuffer int
	// DegradeAt is the queue-occupancy fraction (pending/QueueCap,
	// sampled at tick time) at which the daemon escalates: the slot is
	// solved under the tighter Escalate* budget so the queue can drain
	// through faster (degraded-rung) decisions instead of growing. Zero
	// disables escalation.
	DegradeAt float64
	// EscalateDeadline is the wall-clock slot budget armed while
	// escalated (see core.ControllerConfig.SlotDeadline).
	EscalateDeadline time.Duration
	// EscalateChecks is the deterministic counted slot budget armed while
	// escalated (see core.ControllerConfig.SlotChecks). Either or both
	// Escalate* fields may be set.
	EscalateChecks int
	// SlotDeadline is the steady-state wall-clock slot budget (the
	// controller's degradation ladder; 0 = none).
	SlotDeadline time.Duration
	// SlotChecks is the steady-state counted slot budget (0 = none).
	SlotChecks int
}

// withDefaults fills the zero-value defaults.
func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 65536
	}
	if c.DecisionBuffer <= 0 {
		c.DecisionBuffer = 64
	}
	return c
}

// Decision is one published slot decision — the wire form of
// core.SlotResult that /v1/decisions serves.
type Decision struct {
	// Slot is the slot index t.
	Slot int `json:"slot"`
	// Rung is the fallback-ladder rung that decided the slot (0 = full).
	Rung int `json:"rung"`
	// Degraded reports a below-full-rung decision.
	Degraded bool `json:"degraded"`
	// Escalated reports that backpressure armed the tighter slot budget
	// for this tick.
	Escalated bool `json:"escalated"`
	// Backlog is the virtual-queue backlog Q(t+1) after the slot.
	Backlog float64 `json:"backlog"`
	// LatencySeconds is the slot's overall latency T_t.
	LatencySeconds float64 `json:"latency_seconds"`
	// EnergyCostUSD is the slot's energy cost C_t.
	EnergyCostUSD float64 `json:"energy_cost_usd"`
	// Objective is the P2 objective of the performed decision.
	Objective float64 `json:"objective"`
	// ElapsedMicros is the slot's decision wall time in microseconds.
	ElapsedMicros int64 `json:"elapsed_micros"`
	// Station[i] is device i's chosen base station (-1 = inactive).
	Station []int `json:"station"`
	// Server[i] is device i's chosen server (-1 = inactive).
	Server []int `json:"server"`
	// FreqHz[n] is server n's chosen clock frequency in Hz.
	FreqHz []float64 `json:"freq_hz"`
	// EventsApplied counts the ingest events folded into this slot.
	EventsApplied int `json:"events_applied"`
	// EventsInvalid counts the malformed events shed at apply time.
	EventsInvalid int `json:"events_invalid"`
}

// Status is the daemon's live health summary served by /v1/status.
type Status struct {
	// Slot is the last completed slot index.
	Slot int `json:"slot"`
	// Backlog is the controller's current virtual-queue backlog.
	Backlog float64 `json:"backlog"`
	// QueueDepth is the current ingest-queue occupancy in events.
	QueueDepth int `json:"queue_depth"`
	// QueueCap is the configured ingest-queue bound.
	QueueCap int `json:"queue_cap"`
	// EventsIngested counts events accepted into the queue.
	EventsIngested int64 `json:"events_ingested"`
	// EventsShed counts events dropped because the queue was full.
	EventsShed int64 `json:"events_shed"`
	// EventsApplied counts events folded into slot states.
	EventsApplied int64 `json:"events_applied"`
	// EventsInvalid counts malformed events shed at apply time.
	EventsInvalid int64 `json:"events_invalid"`
	// Ticks counts completed slot ticks.
	Ticks int64 `json:"ticks"`
	// TickErrors counts ticks whose solve returned a hard error.
	TickErrors int64 `json:"tick_errors"`
	// Escalations counts ticks solved under the backpressure budget.
	Escalations int64 `json:"escalations"`
	// DegradedSlots counts slots decided below the full rung.
	DegradedSlots int64 `json:"degraded_slots"`
	// LastRung is the most recent slot's fallback-ladder rung.
	LastRung int `json:"last_rung"`
	// ActiveDevices is the current active-device population.
	ActiveDevices int `json:"active_devices"`
	// ActiveServers is the count of structurally present servers.
	ActiveServers int `json:"active_servers"`
}

// instruments holds the pre-resolved obs handles of the serve.* series.
// Every field is nil-safe per the obs contract, so an uninstrumented
// daemon records through nil handles for free.
type instruments struct {
	ingested, shed, applied, invalid *obs.Counter
	ticks, tickErrors, escalations   *obs.Counter
	degraded, snapshots, restores    *obs.Counter
	queueDepth, queueHighWater       *obs.Gauge
	rung, backlog                    *obs.Gauge
	slotSeconds, batchSize           *obs.Histogram
}

// Daemon is the streaming controller service. Construct with NewDaemon,
// feed events through the HTTP handler, and advance slots
// either manually with Tick or on a cadence with Run.
type Daemon struct {
	cfg Config
	pol policy.Policy
	// deadline is pol's DeadlineSetter capability; nil for policies
	// without a slot budget (construction rejects budgeted configs for
	// those, so a nil deadline is only ever paired with a zero budget).
	deadline policy.DeadlineSetter

	devices  int
	stations int
	servers  int

	// qmu guards the ingest queue and the ingest-side counters. The ingest
	// path never touches the tick state, so producers are never blocked by an
	// in-flight solve.
	qmu      sync.Mutex
	queue    []Event
	ingested int64
	shedN    int64

	// tickMu serializes ticks, snapshots, and restores; it owns the
	// working state, the batch buffer, and the tick-side counters.
	tickMu sync.Mutex
	// batch is the tick's reused copy of the events it drains from the
	// queue.
	batch        []Event
	st           *trace.State
	deviceActive []bool
	serverActive []bool
	serverDown   []bool
	capScale     []float64
	ticks        int64
	tickErrors   int64
	escalations  int64
	degraded     int64
	applied      int64
	invalid      int64
	lastRung     int

	pub publisher

	obs   *obs.Registry
	instr instruments
}

// NewDaemon builds a daemon around a decision policy and the initial slot
// state (the full β_1 of the daemon's fixed universe — typically the
// first state of the deterministic generator both daemon and load source
// derive from the shared seed). The initial state is deep-copied; the
// caller keeps ownership of its copy. The policy must be exclusively
// owned by the daemon from here on. Slot budgets and escalation require
// a policy with the DeadlineSetter capability (the bdma family).
func NewDaemon(pol policy.Policy, initial *trace.State, cfg Config) (*Daemon, error) {
	if pol == nil {
		return nil, errors.New("serve: nil policy")
	}
	if initial == nil {
		return nil, errors.New("serve: nil initial state")
	}
	cfg = cfg.withDefaults()
	ds, _ := pol.(policy.DeadlineSetter)
	if ds == nil && (cfg.SlotDeadline > 0 || cfg.SlotChecks > 0 ||
		cfg.EscalateDeadline > 0 || cfg.EscalateChecks > 0) {
		return nil, fmt.Errorf("serve: policy %q has no slot-deadline capability; clear the Slot*/Escalate* budgets",
			pol.Name())
	}
	stations, _, servers, devices := pol.System().Net.Counts()
	if len(initial.TaskSizes) != devices || len(initial.Channels) != devices {
		return nil, fmt.Errorf("serve: initial state has %d devices, topology %d", len(initial.TaskSizes), devices)
	}
	d := &Daemon{
		cfg:      cfg,
		pol:      pol,
		deadline: ds,
		devices:  devices,
		stations: stations,
		servers:  servers,
	}
	d.pub.init(cfg.DecisionBuffer)
	d.loadState(initial)
	if cfg.SlotDeadline > 0 || cfg.SlotChecks > 0 {
		ds.SetSlotDeadline(cfg.SlotDeadline, cfg.SlotChecks)
	}
	return d, nil
}

// loadState deep-copies src into the daemon's working state and expands
// its optional masks to full universe length.
func (d *Daemon) loadState(src *trace.State) {
	st := &trace.State{
		Slot:        src.Slot,
		TaskSizes:   append([]units.Cycles(nil), src.TaskSizes...),
		DataLengths: append([]units.DataSize(nil), src.DataLengths...),
		Channels:    make([][]trace.Link, len(src.Channels)),
		FronthaulSE: append([]units.SpectralEfficiency(nil), src.FronthaulSE...),
		Price:       src.Price,
	}
	for i, row := range src.Channels {
		st.Channels[i] = slices.Clone(row)
	}
	d.st = st
	d.deviceActive = fullMask(d.devices, src.DeviceActive)
	d.serverActive = fullMask(d.servers, src.ServerActive)
	d.serverDown = make([]bool, d.servers)
	copy(d.serverDown, src.ServerDown)
	d.capScale = make([]float64, d.servers)
	for n := range d.capScale {
		d.capScale[n] = src.Cap(n)
	}
}

// fullMask expands an optional activity mask (nil = all active) to a
// full-length mutable mask.
func fullMask(n int, src []bool) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = i >= len(src) || src[i]
	}
	return out
}

// SetObs attaches an observability registry: the serve.* series land
// there, and the policy's own instruments are threaded through
// (policy.Policy.SetObs). Nil detaches.
func (d *Daemon) SetObs(reg *obs.Registry) {
	d.obs = reg
	d.pol.SetObs(reg)
	if reg == nil {
		d.instr = instruments{}
		return
	}
	d.instr = instruments{
		ingested:       reg.Counter("serve.events_ingested"),
		shed:           reg.Counter("serve.events_shed"),
		applied:        reg.Counter("serve.events_applied"),
		invalid:        reg.Counter("serve.events_invalid"),
		ticks:          reg.Counter("serve.ticks"),
		tickErrors:     reg.Counter("serve.tick_errors"),
		escalations:    reg.Counter("serve.escalations"),
		degraded:       reg.Counter("serve.degraded_slots"),
		snapshots:      reg.Counter("serve.snapshots"),
		restores:       reg.Counter("serve.restores"),
		queueDepth:     reg.Gauge("serve.queue_depth"),
		queueHighWater: reg.Gauge("serve.queue_high_water"),
		rung:           reg.Gauge("serve.rung"),
		backlog:        reg.Gauge("serve.backlog"),
		slotSeconds:    reg.Histogram("serve.slot_seconds"),
		batchSize:      reg.Histogram("serve.batch_size"),
	}
}

// Obs returns the registry attached with SetObs, or nil.
func (d *Daemon) Obs() *obs.Registry { return d.obs }

// ingest appends events to the bounded queue in arrival order and
// returns how many were accepted, how many were shed because the queue
// was full, and the queue depth after the batch. It never blocks on an
// in-flight solve and is safe for concurrent producers.
func (d *Daemon) ingest(events []Event) (accepted, shed, depth int) {
	d.qmu.Lock()
	room := d.cfg.QueueCap - len(d.queue)
	if room < 0 {
		room = 0
	}
	accepted = len(events)
	if accepted > room {
		accepted = room
	}
	shed = len(events) - accepted
	if need := len(d.queue) + accepted; need > cap(d.queue) {
		// Grow on demand, doubling but never past QueueCap (need is
		// within it), so storage tracks the depth the stream reaches.
		size := min(max(2*cap(d.queue), need), d.cfg.QueueCap)
		grown := make([]Event, len(d.queue), size)
		copy(grown, d.queue)
		d.queue = grown
	}
	d.queue = append(d.queue, events[:accepted]...)
	d.ingested += int64(accepted)
	d.shedN += int64(shed)
	depth = len(d.queue)
	d.qmu.Unlock()

	d.instr.ingested.Add(int64(accepted))
	d.instr.shed.Add(int64(shed))
	d.instr.queueDepth.Set(float64(depth))
	if hw := d.instr.queueHighWater; hw != nil && float64(depth) > hw.Value() {
		hw.Set(float64(depth))
	}
	return accepted, shed, depth
}

// takeBatch removes this tick's batch (bounded by MaxBatch) from the
// queue and returns it with the queue occupancy observed before the
// take — the escalation pressure signal. The batch is the daemon's
// reused batch buffer, so the caller must hold tickMu and be done with
// it before the next take.
func (d *Daemon) takeBatch() (batch []Event, occupancy float64) {
	d.qmu.Lock()
	defer d.qmu.Unlock()
	occupancy = float64(len(d.queue)) / float64(d.cfg.QueueCap)
	n := len(d.queue)
	if d.cfg.MaxBatch > 0 && n > d.cfg.MaxBatch {
		n = d.cfg.MaxBatch
	}
	d.batch = append(d.batch[:0], d.queue[:n]...)
	rest := copy(d.queue, d.queue[n:])
	d.queue = d.queue[:rest]
	d.instr.queueDepth.Set(float64(rest))
	return d.batch, occupancy
}

// Tick advances one slot: it drains (up to MaxBatch of) the ingest queue
// into the working state in arrival order, solves the slot — under the
// escalation budget when queue occupancy crossed DegradeAt — and
// publishes the decision. Manual callers (lockstep drivers, tests) and
// Run share this path. A solve error is counted and returned; the
// working state and queue survive it, so a later tick can recover once
// corrective events arrive.
func (d *Daemon) Tick() (*Decision, error) {
	d.tickMu.Lock()
	defer d.tickMu.Unlock()

	batch, occupancy := d.takeBatch()
	applied, invalid := 0, 0
	for _, ev := range batch {
		if err := d.validate(ev); err != nil {
			invalid++
			continue
		}
		d.apply(ev)
		applied++
	}
	d.applied += int64(applied)
	d.invalid += int64(invalid)
	d.instr.applied.Add(int64(applied))
	d.instr.invalid.Add(int64(invalid))
	d.instr.batchSize.Observe(float64(applied))

	escalated := d.cfg.DegradeAt > 0 && occupancy >= d.cfg.DegradeAt &&
		(d.cfg.EscalateDeadline > 0 || d.cfg.EscalateChecks > 0)
	if escalated {
		d.escalations++
		d.instr.escalations.Inc()
		d.deadline.SetSlotDeadline(d.cfg.EscalateDeadline, d.cfg.EscalateChecks)
	}

	d.st.Slot = int(d.ticks) + 1
	d.st.DeviceActive = maskOrNil(d.deviceActive)
	d.st.ServerActive = maskOrNil(d.serverActive)
	d.st.ServerDown = downOrNil(d.serverDown)
	d.st.CapScale = capOrNil(d.capScale)

	res, err := d.pol.Decide(d.st.Slot, d.st)
	if escalated {
		d.deadline.SetSlotDeadline(d.cfg.SlotDeadline, d.cfg.SlotChecks)
	}
	d.ticks++
	d.instr.ticks.Inc()
	if err != nil {
		d.tickErrors++
		d.instr.tickErrors.Inc()
		return nil, fmt.Errorf("serve: tick %d: %w", d.ticks, err)
	}

	if res.Degraded {
		d.degraded++
		d.instr.degraded.Inc()
	}
	d.lastRung = res.Rung
	d.instr.rung.Set(float64(res.Rung))
	d.instr.backlog.Set(res.Backlog)
	d.instr.slotSeconds.Observe(res.Elapsed.Seconds())

	dec := &Decision{
		Slot:           res.Slot,
		Rung:           res.Rung,
		Degraded:       res.Degraded,
		Escalated:      escalated,
		Backlog:        res.Backlog,
		LatencySeconds: res.Latency.Value(),
		EnergyCostUSD:  res.EnergyCost.Dollars(),
		Objective:      res.Objective,
		ElapsedMicros:  res.Elapsed.Microseconds(),
		Station:        append([]int(nil), res.Decision.Station...),
		Server:         append([]int(nil), res.Decision.Server...),
		FreqHz:         make([]float64, len(res.Decision.Freq)),
		EventsApplied:  applied,
		EventsInvalid:  invalid,
	}
	for n, f := range res.Decision.Freq {
		dec.FreqHz[n] = float64(f)
	}
	d.pub.publish(dec)
	return dec, nil
}

// Run ticks the daemon on the configured cadence until ctx is canceled.
// Solve errors are counted (Status.TickErrors) and reported through errf
// when non-nil; they do not stop the loop — the streaming producers own
// state repair. It returns an error only when Tick is zero (manual mode).
func (d *Daemon) Run(ctx context.Context, errf func(error)) error {
	if d.cfg.Tick <= 0 {
		return errors.New("serve: Run needs a positive Config.Tick (manual mode ticks via Tick)")
	}
	tk := time.NewTicker(d.cfg.Tick)
	defer tk.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tk.C:
			if _, err := d.Tick(); err != nil && errf != nil {
				errf(err)
			}
		}
	}
}

// Status returns the daemon's live health summary.
func (d *Daemon) Status() Status {
	d.tickMu.Lock()
	activeDev := 0
	for _, a := range d.deviceActive {
		if a {
			activeDev++
		}
	}
	activeSrv := 0
	for _, a := range d.serverActive {
		if a {
			activeSrv++
		}
	}
	s := Status{
		Slot:          int(d.ticks),
		Backlog:       d.pol.Backlog(),
		QueueCap:      d.cfg.QueueCap,
		EventsApplied: d.applied,
		EventsInvalid: d.invalid,
		Ticks:         d.ticks,
		TickErrors:    d.tickErrors,
		Escalations:   d.escalations,
		DegradedSlots: d.degraded,
		LastRung:      d.lastRung,
		ActiveDevices: activeDev,
		ActiveServers: activeSrv,
	}
	d.tickMu.Unlock()

	d.qmu.Lock()
	s.QueueDepth = len(d.queue)
	s.EventsIngested = d.ingested
	s.EventsShed = d.shedN
	d.qmu.Unlock()
	return s
}

// Latest returns the newest published decision with Slot > since, and
// whether one exists.
func (d *Daemon) Latest(since int) (*Decision, bool) { return d.pub.latest(since) }

// WaitDecision blocks until a decision with Slot > since is published or
// ctx expires, returning the decision or ctx's error — the long-poll
// primitive behind GET /v1/decisions?wait=.
func (d *Daemon) WaitDecision(ctx context.Context, since int) (*Decision, error) {
	return d.pub.wait(ctx, since)
}

// maskOrNil returns the mask to publish on the slot state: nil when every
// entry is true, matching trace.ChurnSchedule's convention so a
// full-population daemon slot takes the exact legacy solve path.
func maskOrNil(mask []bool) []bool {
	for _, a := range mask {
		if !a {
			return mask
		}
	}
	return nil
}

// downOrNil returns the drain mask to publish: nil when no server is
// drained (all-up states take the drain-free path).
func downOrNil(mask []bool) []bool {
	for _, down := range mask {
		if down {
			return mask
		}
	}
	return nil
}

// capOrNil returns the capacity-scale vector to publish: nil when every
// server is at nominal capacity (scale 1 is bit-exact, but nil keeps the
// fault-free fast path).
func capOrNil(scale []float64) []float64 {
	for _, s := range scale {
		if s != 1 {
			return scale
		}
	}
	return nil
}

// publisher is the decision ring buffer plus the long-poll wake channel.
type publisher struct {
	mu   sync.Mutex
	ring []*Decision
	n    int
	wake chan struct{}
}

// init sizes the ring.
func (p *publisher) init(size int) {
	p.ring = make([]*Decision, size)
	p.wake = make(chan struct{})
}

// publish stores the decision and wakes every long-poller.
func (p *publisher) publish(d *Decision) {
	p.mu.Lock()
	p.ring[p.n%len(p.ring)] = d
	p.n++
	close(p.wake)
	p.wake = make(chan struct{})
	p.mu.Unlock()
}

// latest returns the newest decision with Slot > since.
func (p *publisher) latest(since int) (*Decision, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.n == 0 {
		return nil, false
	}
	d := p.ring[(p.n-1)%len(p.ring)]
	if d.Slot <= since {
		return nil, false
	}
	return d, true
}

// wait blocks until latest(since) succeeds or ctx expires.
func (p *publisher) wait(ctx context.Context, since int) (*Decision, error) {
	for {
		p.mu.Lock()
		var d *Decision
		if p.n > 0 {
			d = p.ring[(p.n-1)%len(p.ring)]
		}
		wake := p.wake
		p.mu.Unlock()
		if d != nil && d.Slot > since {
			return d, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-wake:
		}
	}
}
