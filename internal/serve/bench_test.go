package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"eotora/internal/core"
	"eotora/internal/experiments"
	"eotora/internal/serve"
	"eotora/internal/trace"
)

// BenchmarkServeSlot times one in-process daemon slot as the serve
// benchmark drives eotorad: POST /v1/events with a churned slot's
// DiffStates batch (300 devices on the default topology under
// DefaultChurnConfig, as `eotorad -churn 1` runs; about 1.5k events),
// then POST /v1/tick, both through Daemon.Handler() into an httptest
// recorder. The batches of 32 consecutive slots are encoded up front
// and replayed in a cycle.
func BenchmarkServeSlot(b *testing.B) {
	const devices, seed, slots = 300, 1, 32
	sc, err := experiments.NewScenario(experiments.ScenarioOptions{Devices: devices, BudgetFraction: 0.5}, seed)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := sc.Generator(trace.DefaultGeneratorConfig())
	if err != nil {
		b.Fatal(err)
	}
	states, err := trace.NewChurnSchedule(trace.DefaultChurnConfig(seed), sc.Net, gen)
	if err != nil {
		b.Fatal(err)
	}
	ctrl, err := core.NewBDMAController(sc.Sys, 100, 5, 0, seed)
	if err != nil {
		b.Fatal(err)
	}
	prev := states.Next()
	daemon, err := serve.NewDaemon(ctrl, prev, serve.Config{})
	if err != nil {
		b.Fatal(err)
	}
	bodies := make([][]byte, slots)
	events := 0
	for i := range bodies {
		next := states.Next()
		batch := serve.DiffStates(prev, next)
		events += len(batch)
		if bodies[i], err = json.Marshal(batch); err != nil {
			b.Fatal(err)
		}
		prev = next
	}
	handler := daemon.Handler()
	post := func(path string, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post("/v1/events", bodies[i%slots])
		post("/v1/tick", nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(events)/slots, "events/slot")
}
