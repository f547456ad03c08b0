// Command loadgen replays a deterministic EOTORA state stream against a
// running eotorad daemon: it derives the same generator (optionally
// wrapped in a trace.ChurnSchedule) from the shared seed, diffs each
// consecutive state pair into the event batch that reproduces the
// transition (serve.DiffStates), and streams the batches over HTTP. It is
// the realistic load target the serve-mode perf work measures against
// (ROADMAP serve-mode item) and the driver of the CI serve smoke.
//
// Two pacing modes:
//
//   - lockstep (-tick 0): each batch is followed by POST /v1/tick and the
//     slot's decision is collected synchronously — deterministic, used by
//     the smoke gate and the kill/restore drill;
//   - timer (-tick > 0): batches are posted on the given cadence while
//     the daemon ticks on its own clock, and decisions are collected by a
//     long-poll goroutine — the realistic streaming regime.
//
// Usage:
//
//	loadgen -addr http://localhost:8080 -devices 150 -slots 200
//	loadgen -tick 100ms -slots 600 -csv > stream.csv
//	loadgen -skip 120 ...   # resume streaming after a daemon restore at slot 120
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"eotora/internal/experiments"
	"eotora/internal/serve"
	"eotora/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "http://localhost:8080", "eotorad base URL")
		devices    = fs.Int("devices", 100, "devices I (must match the daemon)")
		topoName   = fs.String("topology", "default", "topology preset (must match the daemon)")
		budgetFrac = fs.Float64("budget-frac", 0.5, "budget fraction (must match the daemon)")
		seed       = fs.Int64("seed", 1, "random seed (must match the daemon)")
		churn      = fs.Float64("churn", 0, "churn intensity (must match the daemon's -churn)")
		slots      = fs.Int("slots", 200, "slots to stream")
		tick       = fs.Duration("tick", 0, "pacing: 0 = lockstep (POST /v1/tick per batch), >0 = post batches on this cadence")
		skip       = fs.Int("skip", 0, "skip this many leading slots (resume streaming after a daemon -restore)")
		csvOut     = fs.Bool("csv", false, "emit per-slot CSV (slot,events,accepted,shed,rung,elapsed_us,backlog) to stdout")
		failDegrad = fs.Bool("fail-degraded", false, "exit non-zero if the daemon reports any slot below RungFull (CI gate)")
		failShed   = fs.Bool("fail-shed", false, "exit non-zero if the daemon shed any event (CI gate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *slots < 2 {
		return fmt.Errorf("need at least 2 slots to stream a transition, got %d", *slots)
	}

	_, src, err := experiments.PresetStream(*topoName, *devices, *budgetFrac, *seed, *churn, trace.DefaultGeneratorConfig())
	if err != nil {
		return err
	}

	cli := &client{base: *addr, hc: &http.Client{Timeout: 30 * time.Second}}

	// β_1 is the daemon's initial state — never streamed. A -skip fast-
	// forwards past slots the daemon already decided before its restore.
	prev := src.Next()
	for s := 1; s < *skip; s++ {
		prev = src.Next()
	}

	var w *csvWriter
	if *csvOut {
		w = newCSVWriter(os.Stdout)
	}

	// Decision collection: lockstep gets each decision synchronously from
	// POST /v1/tick; timer mode long-polls in the background.
	lockstep := *tick <= 0
	var collect *collector
	if !lockstep {
		collect = newCollector(cli, w)
		defer collect.stop()
	}

	if lockstep && *skip == 0 {
		// Slot 1 decides the daemon's initial state with no events.
		dec, err := cli.tick()
		if err != nil {
			return fmt.Errorf("slot 1 tick: %w", err)
		}
		w.row(1, 0, 0, 0, dec)
	}

	start := time.Now()
	sent, acceptedN, shedN := 0, 0, 0
	first := *skip
	if first < 2 {
		first = 2
	}
	for s := first; s <= *slots; s++ {
		next := src.Next()
		events := serve.DiffStates(prev, next)
		prev = next
		resp, err := cli.post(events)
		if err != nil {
			return fmt.Errorf("slot %d ingest: %w", s, err)
		}
		sent += len(events)
		acceptedN += resp.Accepted
		shedN += resp.Shed
		if lockstep {
			dec, err := cli.tick()
			if err != nil {
				return fmt.Errorf("slot %d tick: %w", s, err)
			}
			w.row(s, len(events), resp.Accepted, resp.Shed, dec)
		} else {
			time.Sleep(*tick)
		}
	}
	elapsed := time.Since(start)
	if collect != nil {
		collect.drain(2 * *tick)
	}

	status, err := cli.status()
	if err != nil {
		return fmt.Errorf("final status: %w", err)
	}
	streamed := *slots - first + 1
	fmt.Fprintf(os.Stderr, "loadgen: %d slots streamed in %v (%.0f events/slot, %.0f events/s)\n",
		streamed, elapsed.Round(time.Millisecond),
		float64(sent)/float64(streamed), float64(sent)/elapsed.Seconds())
	fmt.Fprintf(os.Stderr, "loadgen: daemon at slot %d: shed %d of %d ingested, %d degraded slots, %d escalations, backlog %.3f\n",
		status.Slot, status.EventsShed, status.EventsIngested+status.EventsShed,
		status.DegradedSlots, status.Escalations, status.Backlog)

	if *failShed && status.EventsShed > 0 {
		return fmt.Errorf("%d events shed (-fail-shed)", status.EventsShed)
	}
	if *failDegrad && status.DegradedSlots > 0 {
		return fmt.Errorf("%d slots decided below RungFull (-fail-degraded)", status.DegradedSlots)
	}
	return nil
}

// client is the minimal eotorad HTTP client.
type client struct {
	base string
	hc   *http.Client
}

// post sends one event batch to /v1/events.
func (c *client) post(events []serve.Event) (serve.IngestResponse, error) {
	body, err := json.Marshal(events)
	if err != nil {
		return serve.IngestResponse{}, err
	}
	resp, err := c.hc.Post(c.base+"/v1/events", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.IngestResponse{}, err
	}
	var out serve.IngestResponse
	err = decodeJSON(resp, &out)
	return out, err
}

// tick advances one slot via POST /v1/tick and returns its decision.
func (c *client) tick() (*serve.Decision, error) {
	resp, err := c.hc.Post(c.base+"/v1/tick", "application/json", nil)
	if err != nil {
		return nil, err
	}
	var out serve.Decision
	if err := decodeJSON(resp, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// status fetches /v1/status.
func (c *client) status() (serve.Status, error) {
	resp, err := c.hc.Get(c.base + "/v1/status")
	if err != nil {
		return serve.Status{}, err
	}
	var out serve.Status
	err = decodeJSON(resp, &out)
	return out, err
}

// decisions long-polls /v1/decisions.
func (c *client) decisions(since int, wait time.Duration) (*serve.Decision, bool, error) {
	resp, err := c.hc.Get(fmt.Sprintf("%s/v1/decisions?since=%d&wait=%s", c.base, since, wait))
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode == http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, false, nil
	}
	var out serve.Decision
	if err := decodeJSON(resp, &out); err != nil {
		return nil, false, err
	}
	return &out, true, nil
}

// decodeJSON reads a JSON response, mapping non-2xx statuses to errors.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// collector long-polls decisions in the background (timer mode).
type collector struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// newCollector starts the long-poll loop, writing rows as decisions land.
func newCollector(cli *client, w *csvWriter) *collector {
	ctx, cancel := context.WithCancel(context.Background())
	c := &collector{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(c.done)
		since := 0
		for ctx.Err() == nil {
			dec, ok, err := cli.decisions(since, 2*time.Second)
			if err != nil || !ok {
				continue
			}
			since = dec.Slot
			w.row(dec.Slot, dec.EventsApplied, dec.EventsApplied, 0, dec)
		}
	}()
	return c
}

// drain gives in-flight decisions a grace period, then stops.
func (c *collector) drain(grace time.Duration) {
	time.Sleep(grace)
	c.stop()
}

// stop cancels the long-poll loop and waits for it to exit.
func (c *collector) stop() {
	c.cancel()
	<-c.done
}

// csvWriter emits the per-slot stream CSV. A nil receiver discards rows,
// so call sites stay branch-free.
type csvWriter struct{ w io.Writer }

// newCSVWriter writes the header and returns the writer.
func newCSVWriter(w io.Writer) *csvWriter {
	fmt.Fprintln(w, "slot,events,accepted,shed,rung,elapsed_us,backlog")
	return &csvWriter{w: w}
}

// row writes one per-slot record.
func (c *csvWriter) row(slot, events, accepted, shed int, dec *serve.Decision) {
	if c == nil || dec == nil {
		return
	}
	fmt.Fprintf(c.w, "%d,%d,%d,%d,%d,%d,%g\n",
		slot, events, accepted, shed, dec.Rung, dec.ElapsedMicros, dec.Backlog)
}
