package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// IngestResponse is the reply of POST /v1/events: how the batch fared
// against the bounded queue.
type IngestResponse struct {
	// Accepted counts events admitted to the queue.
	Accepted int `json:"accepted"`
	// Shed counts events dropped because the queue was full.
	Shed int `json:"shed"`
	// QueueDepth is the queue occupancy after the batch.
	QueueDepth int `json:"queue_depth"`
}

// maxIngestBody bounds a single /v1/events request body (16 MiB, roughly
// 258k events at the ~65 bytes per event DiffStates batches encode to)
// so a misbehaving producer cannot balloon daemon memory before the
// bounded queue even sees the batch.
const maxIngestBody = 16 << 20

// Handler returns the daemon's HTTP API:
//
//	POST /v1/events     ingest a JSON array of events (shed-and-count on overflow)
//	POST /v1/tick       advance one slot (lockstep drivers; any time, also with Run active)
//	GET  /v1/decisions  latest decision; ?since=N + ?wait=5s long-polls for a newer slot
//	GET  /v1/status     live health summary (queue depth, shed, rungs, escalations)
//	GET  /v1/snapshot   full resume snapshot (the kill/restore drill input)
//	GET  /metrics       obs registry snapshot as JSON (404 without SetObs)
//
// The handler is safe to mount alongside expvar/pprof on the same mux, as
// cmd/eotorad does.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/events", d.handleEvents)
	mux.HandleFunc("/v1/tick", d.handleTick)
	mux.HandleFunc("/v1/decisions", d.handleDecisions)
	mux.HandleFunc("/v1/status", d.handleStatus)
	mux.HandleFunc("/v1/snapshot", d.handleSnapshot)
	mux.HandleFunc("/metrics", d.handleMetrics)
	return mux
}

// handleEvents ingests a JSON event batch. The body and the decoded
// batch live in pooled buffers that are recycled once ingest has copied
// the events into the queue (see decodeEvents for the decoding contract).
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	bodyBuf := bodyPool.Get().(*[]byte)
	body, readErr := readBody(http.MaxBytesReader(w, r.Body, maxIngestBody), (*bodyBuf)[:0])
	eventBuf := eventPool.Get().(*[]Event)
	events, err := decodeEvents(body, readErr, (*eventBuf)[:0])
	if cap(body) <= maxPooledBody {
		*bodyBuf = body
		bodyPool.Put(bodyBuf)
	}
	if err != nil {
		eventPool.Put(eventBuf)
		http.Error(w, fmt.Sprintf("decoding events: %v", err), http.StatusBadRequest)
		return
	}
	accepted, shed, depth := d.ingest(events)
	if cap(events) <= maxPooledEvents {
		*eventBuf = events
		eventPool.Put(eventBuf)
	}
	writeJSON(w, IngestResponse{Accepted: accepted, Shed: shed, QueueDepth: depth})
}

// handleTick advances one slot on demand.
func (d *Daemon) handleTick(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	dec, err := d.Tick()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, dec)
}

// handleDecisions serves the latest decision, long-polling when asked.
func (d *Daemon) handleDecisions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	since := 0
	if s := r.URL.Query().Get("since"); s != "" {
		if _, err := fmt.Sscanf(s, "%d", &since); err != nil {
			http.Error(w, "since must be a slot index", http.StatusBadRequest)
			return
		}
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		wait, err := time.ParseDuration(waitStr)
		if err != nil || wait <= 0 {
			http.Error(w, "wait must be a positive duration", http.StatusBadRequest)
			return
		}
		// Derive from the request context so a dropped client releases
		// its waiter immediately.
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		dec, err := d.WaitDecision(ctx, since)
		if err != nil {
			// Timeout without a newer slot: 204 tells the poller to retry.
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, dec)
		return
	}
	dec, ok := d.Latest(since)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, dec)
}

// handleStatus serves the live health summary.
func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	writeJSON(w, d.Status())
}

// handleSnapshot serves the full resume snapshot.
func (d *Daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := d.WriteSnapshot(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetrics serves the obs registry snapshot.
func (d *Daemon) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	reg := d.Obs()
	if reg == nil {
		http.Error(w, "observability not attached (run with -metrics)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := reg.Snapshot().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
