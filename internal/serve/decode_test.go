package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/iotest"

	"eotora/internal/core"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// testDaemon builds a daemon over a small default-topology system, plus
// the churned state source its initial state came from.
func testDaemon(t testing.TB, devices int, cfg Config) (*Daemon, trace.Source) {
	t.Helper()
	src := rng.New(3)
	net, err := topology.Generate(topology.DefaultSpec(devices), src.Derive("net"))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(net, core.DefaultEnergyModels(len(net.Servers), src.Derive("energy")), 3600, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	states, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(3), net, gen)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.NewBDMAController(sys, 100, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDaemon(ctrl, states.Next(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, states
}

// diffBodies returns the JSON bodies of n consecutive DiffStates batches
// from states — the bodies cmd/loadgen and the benchmark send.
func diffBodies(t testing.TB, states trace.Source, prev *trace.State, n int) [][]byte {
	t.Helper()
	var out [][]byte
	for range n {
		next := states.Next()
		body, err := json.Marshal(DiffStates(prev, next))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, body)
		prev = next
	}
	return out
}

// referenceDecode is the reflection decoder the /v1/events handler ran
// before the canonical-form parser, over a stream that yields body one
// byte at a time and then readErr (io.EOF when nil).
func referenceDecode(body []byte, readErr error) ([]Event, error) {
	var r io.Reader = bytes.NewReader(body)
	if readErr != nil {
		r = io.MultiReader(r, iotest.ErrReader(readErr))
	}
	var events []Event
	err := json.NewDecoder(iotest.OneByteReader(r)).Decode(&events)
	return events, err
}

// requireSameEvents compares two decoded batches field by field, floats
// by bits, including nil against empty.
func requireSameEvents(t *testing.T, got, want []Event) {
	t.Helper()
	if (got == nil) != (want == nil) || len(got) != len(want) {
		t.Fatalf("decoded %d events (nil %v), want %d (nil %v)", len(got), got == nil, len(want), want == nil)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Kind != w.Kind || g.Device != w.Device || g.Station != w.Station || g.Server != w.Server ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) ||
			math.Float64bits(g.Task) != math.Float64bits(w.Task) ||
			math.Float64bits(g.Data) != math.Float64bits(w.Data) {
			t.Fatalf("event %d: decoded %+v, want %+v", i, g, w)
		}
	}
}

var errTruncated = errors.New("body truncated")

// FuzzDecodeEvents is the ingest decoder's differential contract: for
// any body, whether it ends cleanly or with a read error, decodeEvents
// accepts exactly what the reflection decoder accepts, decodes the same
// events, and fails with the same error text — and the events it
// returns never alias the body.
func FuzzDecodeEvents(f *testing.F) {
	d, states := testDaemon(f, 12, Config{})
	for _, body := range diffBodies(f, states, d.st, 3) {
		f.Add(body, false)
	}
	for _, seed := range []string{
		``, `null`, ` null `, `[]`, ` [ ] `, `[{}]`, `{}`, `[null]`, `"x"`, `nul`,
		`[{"kind":"price","value":83.5}]`,
		"[\n {\"kind\": \"channel\",\t\"device\": 3, \"station\": 1, \"value\": 4.25}\r\n]",
		`[{"kind":"demand","device":2,"task":1.5e+09,"data":2.25E6}]`,
		`[{"kind":"price","value":1}]`, `[{"kind":"pr\"ice"}]`, `[{"kind":"price"}]`,
		`[{"kind":"prïce","value":1}]`, `[{"kind":"warp-drive","device":3}]`,
		`[{"Kind":"price","Value":2}]`, `[{"KIND":"price","vAlue":2}]`,
		`[{"kind":"price","value":1,"extra":3}]`, `[{"kind":"price","value":{"x":1}}]`,
		`[{"kind":null,"device":null,"value":null}]`, `[{"kind":1}]`, `[{"device":"3"}]`,
		`[{"device":1e3}]`, `[{"device":1.0}]`, `[{"station":-1}]`, `[{"server":1E0}]`,
		`[{"device":9223372036854775807}]`, `[{"device":9223372036854775808}]`,
		`[{"device":-9223372036854775808}]`, `[{"device":-9223372036854775809}]`,
		`[{"device":123456789012345678}]`, `[{"device":-0}]`, `[{"value":-0}]`, `[{"value":-0.0e0}]`,
		`[{"device":01}]`, `[{"value":00.5}]`, `[{"value":.5}]`, `[{"value":1.}]`, `[{"value":1e}]`,
		`[{"value":-}]`, `[{"value":+1}]`, `[{"value":1e400}]`, `[{"value":-1e400}]`, `[{"value":1e-400}]`,
		`[{"value":0.1000000000000000055511151231257827}]`,
		`[{"kind":"price",}]`, `[{"kind":"price"},]`, `[,]`, `[{"kind":"price"}`, `[{"kind":"price"`,
		`[{"kind":"price","kind":"demand"}]`, `[{"device":1,"device":2}]`,
		`[] x`, `[]]`, `[{"kind":"price","value":1}]{}`, `null null`, `[] `, `[]` + "\x00",
	} {
		f.Add([]byte(seed), false)
		f.Add([]byte(seed), true)
	}
	f.Fuzz(requireDecodeMatchesReflection)
}

// requireDecodeMatchesReflection checks decodeEvents against
// referenceDecode on one body, cut short by a read error when truncated.
func requireDecodeMatchesReflection(t *testing.T, body []byte, truncated bool) {
	var readErr error
	if truncated {
		readErr = errTruncated
	}
	want, wantErr := referenceDecode(body, readErr)

	// Decode a private copy into a reused buffer full of stale events,
	// then scribble over the copy: the result must still match, so
	// nothing aliases the body or survives from the buffer.
	own := bytes.Clone(body)
	stale := []Event{{Kind: "stale", Device: 7, Value: 9}, {Kind: KindPrice, Task: 1}}
	got, gotErr := decodeEvents(own, readErr, stale[:0])
	for i := range own {
		own[i] = 'x'
	}
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: error %v, reflection decoder %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("body %q: error %q, reflection decoder %q", body, gotErr, wantErr)
		}
		return
	}
	requireSameEvents(t, got, want)
}

// TestParseEventsTakesCanonicalBodies pins that the bodies the stream
// actually carries take the parser, not the fallback.
func TestParseEventsTakesCanonicalBodies(t *testing.T) {
	d, states := testDaemon(t, 40, Config{})
	for i, body := range diffBodies(t, states, d.st, 5) {
		got, ok := parseEvents(body, nil)
		if !ok {
			t.Fatalf("batch %d fell back to encoding/json", i)
		}
		want, err := referenceDecode(body, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameEvents(t, got, want)
	}
	for _, body := range []string{`null`, `[]`, `[{}]`, `[{"kind":"warp"}]`, `[{"device":-0,"value":-0}]`} {
		if _, ok := parseEvents([]byte(body), nil); !ok {
			t.Errorf("%s fell back to encoding/json", body)
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status code.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// canonicalBatch is a json.Marshal-encoded batch of n channel and demand
// events with full-precision values, the shape of a churned DiffStates
// batch.
func canonicalBatch(t testing.TB, n int) []byte {
	t.Helper()
	src := rng.New(11)
	events := make([]Event, n)
	for i := range events {
		if i%5 == 0 {
			events[i] = Event{Kind: KindDemand, Device: i % 300, Task: src.Uniform(1e8, 1e9), Data: src.Uniform(1e5, 1e6)}
		} else {
			events[i] = Event{Kind: KindChannel, Device: i % 300, Station: i % 7, Value: src.Uniform(0, 12)}
		}
	}
	body, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestHandleEventsAllocs bounds the allocations of one /v1/events
// request on a canonical 1.5k-event batch by a constant: the body, the
// decoded batch and the queue are all reused, so nothing scales with
// the event count. Under the race detector only the ingest accounting
// is checked.
func TestHandleEventsAllocs(t *testing.T) {
	d, _ := testDaemon(t, 8, Config{})
	for _, n := range []int{15, 1500} {
		body := canonicalBatch(t, n)
		rd := bytes.NewReader(body)
		req := httptest.NewRequest(http.MethodPost, "/v1/events", nil)
		req.Body = io.NopCloser(rd)
		w := &discardWriter{h: http.Header{}}
		allocs := testing.AllocsPerRun(50, func() {
			rd.Reset(body)
			d.handleEvents(w, req)
			d.tickMu.Lock()
			d.takeBatch()
			d.tickMu.Unlock()
		})
		if w.code != 0 {
			t.Fatalf("%d events: status %d", n, w.code)
		}
		if allocs > 8 && !raceEnabled {
			t.Errorf("%d events: %.0f allocations per request, want at most 8", n, allocs)
		}
		t.Logf("%d events: %.0f allocations per request", n, allocs)
	}
	if got, want := d.Status().EventsIngested, int64(51*(15+1500)); got != want {
		t.Fatalf("ingested %d events, want %d", got, want)
	}
}

// TestQueueGrowsOnDemand pins the lazily grown queue: storage follows
// the depth the stream reaches, never exceeds QueueCap, and sheds the
// same overflow as a preallocated queue would.
func TestQueueGrowsOnDemand(t *testing.T) {
	d, _ := testDaemon(t, 8, Config{QueueCap: 1000})
	if cap(d.queue) != 0 {
		t.Fatalf("fresh daemon preallocated %d queue slots", cap(d.queue))
	}
	batch := make([]Event, 300)
	for i, wantShed := range []int{0, 0, 0, 200, 300} {
		accepted, shed := d.Ingest(batch)
		if shed != wantShed || accepted != len(batch)-wantShed {
			t.Fatalf("batch %d: accepted %d, shed %d; want shed %d", i, accepted, shed, wantShed)
		}
		if cap(d.queue) > d.cfg.QueueCap {
			t.Fatalf("batch %d: queue capacity %d beyond QueueCap %d", i, cap(d.queue), d.cfg.QueueCap)
		}
	}
	if st := d.Status(); st.QueueDepth != 1000 || st.EventsShed != 500 {
		t.Fatalf("status: depth %d, shed %d", st.QueueDepth, st.EventsShed)
	}
}

// TestConcurrentIngest posts canonical batches from several producers
// at once while slots tick, so the pooled buffers and the batch buffer
// are shared the way a live daemon shares them; every event must be
// accounted for exactly once.
func TestConcurrentIngest(t *testing.T) {
	d, _ := testDaemon(t, 8, Config{QueueCap: 4096})
	h := d.Handler()
	const producers, requests = 4, 20
	bodies := [][]byte{canonicalBatch(t, 10), canonicalBatch(t, 300), []byte(`[{"Kind":"price","value":1}]`)}
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func() {
			defer wg.Done()
			for r := 0; r < requests; r++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events", bytes.NewReader(bodies[(p+r)%len(bodies)])))
				if rec.Code != http.StatusOK {
					t.Errorf("producer %d request %d: %d %s", p, r, rec.Code, rec.Body)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for ticking := true; ticking; {
		select {
		case <-done:
			ticking = false
		default:
		}
		if _, err := d.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Tick(); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	want := int64(0)
	for p := 0; p < producers; p++ {
		for r := 0; r < requests; r++ {
			want += int64([]int{10, 300, 1}[(p+r)%len(bodies)])
		}
	}
	if st.EventsIngested+st.EventsShed != want || st.EventsApplied+st.EventsInvalid != st.EventsIngested || st.QueueDepth != 0 {
		t.Fatalf("posted %d events: ingested %d, shed %d, applied %d, invalid %d, queued %d",
			want, st.EventsIngested, st.EventsShed, st.EventsApplied, st.EventsInvalid, st.QueueDepth)
	}
}
