package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"eotora/internal/core"
	"eotora/internal/experiments"
	"eotora/internal/obs"
	"eotora/internal/serve"
	"eotora/internal/trace"
)

// serveWorkload streams a churned state trace into a real eotorad over
// HTTP, as cmd/loadgen does, from one producer goroutine that posts each
// slot's serve.DiffStates batch and then POST /v1/tick, while one
// consumer goroutine long-polls /v1/decisions. Both processes run with
// GOMAXPROCS=1, over two connections.
//
// Phase A is an open loop at rate slots per second: each batch is
// generated and encoded before its due time, and its end-to-end latency
// runs from that due time until the consumer holds the decision, so a
// stall is charged to every slot queued behind it. Phase B is a closed
// loop, the producer sending the next slot once the consumer holds the
// last, and gives the highest rate a single producer sustains.
type serveWorkload struct {
	name         string
	devices      int
	smokeDevices int
	warmup       int
	// rate is phase A's open-loop rate in slots per second, and
	// closedRate phase B's nominal closed-loop rate (see timedSlots).
	rate, closedRate float64
	// phaseAShare is phase A's share of the run's seconds; phase B takes
	// the rest.
	phaseAShare float64
}

func (w serveWorkload) run(cfg runConfig) (*result, error) {
	started := time.Now()
	if cfg.eotorad == "" {
		return nil, errors.New("the serve workload needs -eotorad")
	}
	if cfg.smoke {
		w.devices, w.warmup = w.smokeDevices, 2
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	var s *serveRun
	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if s, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.close()

	var before obs.Snapshot
	if cfg.traced {
		var err error
		if before, err = s.cli.metrics(); err != nil {
			return nil, err
		}
	}

	var a phaseStats
	var memMB []float64
	// Each phase gets its own reference clock: phase A's scales the
	// latencies, phase B's the throughput measured minutes later.
	clock, clockB := newHostClock(), newHostClock()
	nA := timedSlots(cfg, w.phaseAShare*w.rate)
	period := time.Duration(float64(time.Second) / w.rate)
	due := time.Now().Add(period)
	for k := 0; k < nA; k++ {
		if time.Since(started) > runLimit {
			s.chk.record(fmt.Errorf("run limit %v reached in phase A after %d slots", runLimit, k))
			break
		}
		b, err := s.prepare()
		if err != nil {
			s.chk.record(err)
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		a.lagMS = append(a.lagMS, max(0, ms(time.Since(due))))
		s.tracing = cfg.traced && k%2 == 0
		r, err := s.send(b)
		if err != nil {
			s.chk.record(err)
			break
		}
		a.add(b, r, s.tracing)
		a.e2eMS = append(a.e2eMS, ms(r.received.Sub(due)))
		due = due.Add(period)
		// Sample the daemon's memory in the slack before the next due time.
		if k%memEvery == memEvery-1 || k == nA-1 {
			mb, err := s.cli.heldMB()
			if err != nil {
				s.chk.record(err)
				break
			}
			memMB = append(memMB, mb)
		}
		if time.Until(due) > 3*time.Millisecond {
			clock.tick()
		}
	}

	var after obs.Snapshot
	if cfg.traced && s.chk.failed == 0 {
		var err error
		if after, err = s.cli.metrics(); err != nil {
			return nil, err
		}
	}

	// Phase B's elapsed time leaves out the reference kernel's runs.
	nB := timedSlots(cfg, (1-w.phaseAShare)*w.closedRate)
	var bElapsed time.Duration
	for k := 0; k < nB && s.chk.failed == 0; k++ {
		if time.Since(started) > runLimit {
			s.chk.record(fmt.Errorf("run limit %v reached in phase B after %d slots", runLimit, k))
			break
		}
		start := time.Now()
		if err := s.step(); err != nil {
			s.chk.record(err)
			break
		}
		bElapsed += time.Since(start)
		clockB.tick()
	}
	s.tracing = false

	if s.chk.failed == 0 {
		st, err := s.cli.status()
		s.chk.record(err)
		if err == nil && (st.EventsShed != 0 || st.EventsInvalid != 0 || st.TickErrors != 0 || st.DegradedSlots != 0) {
			s.chk.record(fmt.Errorf("daemon status: %d shed, %d invalid, %d tick errors, %d degraded slots",
				st.EventsShed, st.EventsInvalid, st.TickErrors, st.DegradedSlots))
		}
	}
	if err := s.close(); err != nil {
		return nil, err
	}

	res := s.chk.result(w.name)
	rate := ratio(float64(nB), bElapsed.Seconds())
	res.notes = append(timingNotes(clock, a.slotMS, a.e2eMS, rate), note{"host.ref_b_ms", "ms", quantile(clockB.samples, 0.5)})
	m := res.metrics
	if cfg.traced {
		for _, d := range perLayer {
			m[d.name] = 0
		}
		solve := after.Histograms["serve.slot_seconds"]
		solve0 := before.Histograms["serve.slot_seconds"]
		m["serve.events_req_ms"] = quantile(a.eventsMS, 0.5)
		m["serve.tick_req_ms"] = quantile(a.tickMS, 0.5)
		m["serve.solve_ms"] = 1000 * ratio(solve.Sum-solve0.Sum, float64(solve.Count-solve0.Count))
		m["serve.tick_overhead_ms"] = quantile(a.tickOverMS, 0.5)
		m["serve.publish_to_consumer_ms"] = quantile(a.publishMS, 0.5)
		m["serve.events_per_slot"] = mean(a.events)
		m["serve.queue_high_water"] = after.Gauges["serve.queue_high_water"]
		m["trace.next_ms"] = quantile(a.nextMS, 0.5)
		m["serve.diff_ms"] = quantile(a.diffMS, 0.5)
		m["serve.encode_ms"] = quantile(a.encodeMS, 0.5)
		m["serve.gen_lag_p99_ms"] = quantile(a.lagMS, 0.99)
		traced, bare := quantile(a.tracedMS, 0.5), quantile(a.bareMS, 0.5)
		m["policy.decide_ms"] = traced
		if bare > 0 {
			m["trace.overhead_pct"] = 100 * (traced/bare - 1)
		}
		res.spans = s.spans
		return res, nil
	}
	f := clock.scale()
	m["setup_s"] = quantile(setups, 0.5) * f
	m["slot_p50_ms"] = quantile(a.slotMS, 0.5) * f
	m["e2e_p50_ms"] = quantile(a.e2eMS, 0.5) * f
	m["slots_per_s"] = rate / clockB.scale()
	s.chk.qualityMetrics(m)
	m["mem_mb"] = quantile(memMB, 0.5)
	return res, nil
}

// phaseStats collects phase A's per-slot timings in milliseconds. In a
// traced run, even slots record spans and odd slots run bare; tracedMS
// and bareMS split the slot times accordingly.
type phaseStats struct {
	tracedMS, bareMS                    []float64
	slotMS, e2eMS, lagMS                []float64
	eventsMS, tickMS, tickOverMS        []float64
	publishMS, nextMS, diffMS, encodeMS []float64
	events                              []float64
}

func (a *phaseStats) add(b *batch, r *sent, traced bool) {
	slot := ms(r.ticked.Sub(r.posted))
	a.slotMS = append(a.slotMS, slot)
	if traced {
		a.tracedMS = append(a.tracedMS, slot)
	} else {
		a.bareMS = append(a.bareMS, slot)
	}
	a.eventsMS = append(a.eventsMS, ms(r.accepted.Sub(r.posted)))
	a.tickMS = append(a.tickMS, ms(r.ticked.Sub(r.accepted)))
	a.tickOverMS = append(a.tickOverMS, ms(r.ticked.Sub(r.accepted))-float64(r.dec.ElapsedMicros)/1000)
	a.publishMS = append(a.publishMS, ms(r.received.Sub(r.ticked)))
	a.nextMS = append(a.nextMS, b.stepMS(0))
	a.diffMS = append(a.diffMS, b.stepMS(1))
	a.encodeMS = append(a.encodeMS, b.stepMS(2))
	a.events = append(a.events, float64(b.events))
}

// serveRun is one set-up of the serve workload: the generator the events
// come from, the daemon, and the consumer.
type serveRun struct {
	sys  *core.System
	src  trace.Source
	prev *trace.State
	d    *daemon
	cli  *client
	chk  *checker
	// spans holds a traced run's spans; tracing says whether the slot
	// being sent records them.
	spans   *spanLog
	tracing bool

	recv         chan receipt
	stopConsumer context.CancelFunc
	consumerDone chan struct{}
	closed       bool
}

// setup starts the daemon on the deployment and the consumer, decides
// slot 1 (the daemon's initial state, which eotorad derives from its own
// seed, with no events), and runs the warm-up slots, whose first batch
// moves the daemon onto the run's own churned trace.
func (w serveWorkload) setup(cfg runConfig) (*serveRun, error) {
	sc, err := experiments.NewScenario(experiments.ScenarioOptions{Devices: w.devices, BudgetFraction: budgetFrac}, deploymentSeed)
	if err != nil {
		return nil, err
	}
	initial, err := churned(sc, deploymentSeed)
	if err != nil {
		return nil, err
	}
	src, err := churned(sc, cfg.seed)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.eotorad,
		"-listen", "127.0.0.1:0", "-devices", strconv.Itoa(w.devices), "-churn", "1", "-tick", "0",
		"-slot-workers", "1", "-seed", strconv.Itoa(deploymentSeed))
	if err != nil {
		return nil, err
	}
	s := &serveRun{sys: sc.Sys, src: src, prev: initial.Next(), d: d, cli: newClient(d.base), recv: make(chan receipt)}
	if cfg.traced {
		s.spans = newSpanLog()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopConsumer, s.consumerDone = cancel, make(chan struct{})
	go s.consume(ctx)

	s.chk = newChecker(s.sys, []float64{0})
	for slot := 1; slot <= 1+w.warmup; slot++ {
		var err error
		if slot == 1 {
			_, err = s.send(&batch{st: s.prev})
		} else {
			err = s.step()
		}
		if err != nil || s.chk.failed > 0 {
			if err == nil {
				err = s.chk.firstErr
			}
			_ = s.close() // the warm-up error is the one to report
			return nil, fmt.Errorf("warm-up slot %d: %w", slot, err)
		}
	}
	s.chk = newChecker(s.sys, []float64{s.chk.backlog[0]})
	return s, nil
}

// churned is the state source `eotorad -churn 1 -seed seed` derives on
// the deployment: the default generator under the default churn regime.
func churned(sc *experiments.Scenario, seed int64) (trace.Source, error) {
	gen, err := trace.NewGenerator(sc.Net, trace.DefaultGeneratorConfig(), seed)
	if err != nil {
		return nil, err
	}
	return trace.NewChurnSchedule(trace.DefaultChurnConfig(seed), sc.Net, gen)
}

// batch is one slot's prepared event batch, the generator state it
// leads to, and when its preparation started and each step ended.
type batch struct {
	st     *trace.State
	body   []byte
	events int
	times  [4]time.Time // start, next drawn, diffed, encoded
}

// prepare draws the next state, diffs it into events and encodes them.
func (s *serveRun) prepare() (*batch, error) {
	b := &batch{}
	b.times[0] = time.Now()
	b.st = s.src.Next()
	b.times[1] = time.Now()
	events := serve.DiffStates(s.prev, b.st)
	b.times[2] = time.Now()
	body, err := json.Marshal(events)
	if err != nil {
		return nil, fmt.Errorf("encoding slot %d's events: %w", b.st.Slot, err)
	}
	b.times[3] = time.Now()
	s.prev = b.st
	b.body, b.events = body, len(events)
	return b, nil
}

// step prepares the next batch and sends it.
func (s *serveRun) step() error {
	b, err := s.prepare()
	if err == nil {
		_, err = s.send(b)
	}
	return err
}

func (b *batch) stepMS(i int) float64 { return ms(b.times[i+1].Sub(b.times[i])) }

// sent records when one slot's requests and receipt happened.
type sent struct {
	posted, accepted, ticked, received time.Time
	dec                                *serve.Decision
}

// send posts the batch (none for slot 1), ticks, waits until the
// consumer holds the slot's decision, and checks it.
func (s *serveRun) send(b *batch) (*sent, error) {
	r := &sent{posted: time.Now()}
	if b.body != nil {
		resp, err := s.cli.postEvents(b.body)
		if err != nil {
			return nil, err
		}
		if resp.Accepted != b.events || resp.Shed != 0 {
			return nil, fmt.Errorf("ingest accepted %d of %d events, shed %d", resp.Accepted, b.events, resp.Shed)
		}
	}
	r.accepted = time.Now()
	dec, err := s.cli.tick()
	if err != nil {
		return nil, err
	}
	r.ticked, r.dec = time.Now(), dec
	got, err := s.await(dec.Slot)
	if err != nil {
		return nil, err
	}
	r.received = got.at
	if s.tracing {
		start := r.posted
		if b.body != nil {
			start = b.times[0]
		}
		root := s.spans.add("slot", dec.Slot, -1, start, r.received)
		if b.body != nil {
			for i, name := range []string{"trace.next", "serve.diff", "serve.encode"} {
				s.spans.add(name, dec.Slot, root, b.times[i], b.times[i+1])
			}
		}
		s.spans.add("serve.events_req", dec.Slot, root, r.posted, r.accepted)
		s.spans.add("serve.tick_req", dec.Slot, root, r.accepted, r.ticked)
		s.spans.add("serve.consumer", dec.Slot, root, r.ticked, r.received)
	}
	if got.dec.Backlog != dec.Backlog || !slices.Equal(got.dec.Station, dec.Station) {
		s.chk.record(fmt.Errorf("slot %d: consumer's decision differs from the tick reply", dec.Slot))
		return r, nil
	}
	s.chk.served(b.st, dec, b.events)
	return r, nil
}

// receipt is one decision the consumer received, and when.
type receipt struct {
	at  time.Time
	dec *serve.Decision
	err error
}

// consume long-polls /v1/decisions for each newer slot until ctx ends.
func (s *serveRun) consume(ctx context.Context) {
	defer close(s.consumerDone)
	since := 0
	for ctx.Err() == nil {
		dec, err := s.cli.decisions(ctx, since)
		if ctx.Err() != nil {
			return
		}
		r := receipt{at: time.Now(), dec: dec, err: err}
		if err == nil && dec == nil {
			continue // the long poll timed out with nothing newer
		}
		if err == nil {
			since = dec.Slot
		}
		select {
		case s.recv <- r:
		case <-ctx.Done():
			return
		}
		if err != nil {
			return
		}
	}
}

// await returns the consumer's receipt of slot; a receipt of any other
// slot means the consumer missed a decision.
func (s *serveRun) await(slot int) (receipt, error) {
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	select {
	case r := <-s.recv:
		if r.err != nil {
			return r, fmt.Errorf("consumer: %w", r.err)
		}
		if r.dec.Slot != slot {
			return r, fmt.Errorf("consumer received slot %d while waiting for slot %d", r.dec.Slot, slot)
		}
		return r, nil
	case <-s.consumerDone:
		return receipt{}, errors.New("consumer stopped")
	case <-timer.C:
		return receipt{}, fmt.Errorf("consumer did not receive slot %d within 10s", slot)
	}
}

// close stops the consumer and the daemon. It is safe to call twice.
func (s *serveRun) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.stopConsumer()
	<-s.consumerDone
	s.cli.hc.CloseIdleConnections()
	return s.d.stop()
}

// daemon is a running eotorad process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed once stderr reaches EOF

	mu   sync.Mutex
	last string // last stderr line, for error reports
}

// startDaemon starts eotorad with GOMAXPROCS=1 and waits until it
// announces its API address. The daemon dies with the benchmark.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting eotorad: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, a, ok := strings.Cut(line, "API on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			d.mu.Lock()
			d.last = line
			d.mu.Unlock()
		}
	}()
	select {
	case d.base = <-addr:
		return d, nil
	case <-d.drained:
	case <-time.After(30 * time.Second):
	}
	_ = d.stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	return nil, fmt.Errorf("eotorad did not start: %s", d.last)
}

// stop sends SIGTERM and waits for the process to exit, killing it after
// ten seconds.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		return fmt.Errorf("eotorad: %w (%s)", err, d.last)
	}
	return nil
}

// client is the benchmark's eotorad HTTP client: at most two
// connections, one for the producer and one for the consumer.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// call sends one request, with a JSON body when body is not nil, and
// decodes the JSON reply into out.
func (c *client) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	return decode(resp, out)
}

func (c *client) postEvents(body []byte) (out serve.IngestResponse, err error) {
	err = c.call(http.MethodPost, "/v1/events", body, &out)
	return out, err
}

func (c *client) tick() (*serve.Decision, error) {
	var out serve.Decision
	return &out, c.call(http.MethodPost, "/v1/tick", nil, &out)
}

func (c *client) status() (out serve.Status, err error) {
	err = c.call(http.MethodGet, "/v1/status", nil, &out)
	return out, err
}

func (c *client) metrics() (out obs.Snapshot, err error) {
	err = c.call(http.MethodGet, "/metrics", nil, &out)
	return out, err
}

// heldMB reads the daemon's runtime.MemStats from /debug/vars and returns
// the memory its Go runtime holds from the OS, Sys − HeapReleased, in MB.
func (c *client) heldMB() (float64, error) {
	var out struct {
		MemStats struct{ Sys, HeapReleased uint64 } `json:"memstats"`
	}
	err := c.call(http.MethodGet, "/debug/vars", nil, &out)
	return float64(out.MemStats.Sys-out.MemStats.HeapReleased) / (1 << 20), err
}

// decisions long-polls for a decision newer than since; it returns nil
// with no error when the poll times out.
func (c *client) decisions(ctx context.Context, since int) (*serve.Decision, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/v1/decisions?since=%d&wait=5s", c.base, since), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNoContent {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, nil
	}
	var out serve.Decision
	return &out, decode(resp, &out)
}

// decode reads a JSON reply; a non-2xx status is an error.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL.Path, resp.Status, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("%s %s: %w", resp.Request.Method, resp.Request.URL.Path, err)
	}
	return nil
}
