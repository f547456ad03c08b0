package serve

import (
	"encoding/json"
	"fmt"
	"io"

	"eotora/internal/core"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// SnapshotVersion is the wire version of Snapshot. ReadSnapshot rejects
// other versions: the snapshot carries solver-visible state, so a silent
// cross-version restore could silently change decisions.
const SnapshotVersion = 1

// Snapshot is the daemon's full serializable resume state: the
// controller checkpoint (Q(t), slot counter, configuration guards, and
// the previous decision backing the RungPrevious fallback), the working
// copy of β_t including churn masks and fault overlays, the events
// queued but not yet applied, and the ingest/shed accounting. Restoring
// it into a fresh daemon with identical configuration resumes the
// decision sequence bit-identically — solver caches are rebuilt
// lazily on the first restored slot and never change a decision bit
// (DESIGN.md §11–§12).
type Snapshot struct {
	// Version is the snapshot wire version (SnapshotVersion).
	Version int `json:"version"`
	// Ticks is the number of completed slot ticks.
	Ticks int64 `json:"ticks"`
	// Controller is the decision policy's resume state. The field name
	// (and wire key) predate the policy seam; for baseline policies the
	// checkpoint's Solver field carries the policy name, and for
	// bdma-tuned its Extra map carries the tuner state.
	Controller core.Checkpoint `json:"controller"`
	// State is the working slot state at snapshot time.
	State SnapshotState `json:"state"`
	// Pending holds the ingest queue (accepted, not yet applied).
	Pending []Event `json:"pending,omitempty"`
	// Counters carries the ingest/shed accounting across the restart.
	Counters SnapshotCounters `json:"counters"`
}

// SnapshotState is the serialized working state: every field of β_t plus
// the full-length churn masks and fault overlays.
type SnapshotState struct {
	// TaskSizes holds f_{i,t} in cycles.
	TaskSizes []float64 `json:"task_sizes"`
	// DataLengths holds d_{i,t} in bits.
	DataLengths []float64 `json:"data_lengths"`
	// Channels holds h_{i,k,t} in bps/Hz as a dense devices × stations
	// matrix (0 = out of coverage).
	Channels [][]float64 `json:"channels"`
	// FronthaulSE holds h_k^F per station in bps/Hz.
	FronthaulSE []float64 `json:"fronthaul_se"`
	// Price is p_t in $/MWh.
	Price float64 `json:"price"`
	// DeviceActive is the full-length device activity mask.
	DeviceActive []bool `json:"device_active"`
	// ServerActive is the full-length server presence mask.
	ServerActive []bool `json:"server_active"`
	// ServerDown is the full-length advisory drain mask.
	ServerDown []bool `json:"server_down"`
	// CapScale is the full-length capacity-scale vector.
	CapScale []float64 `json:"cap_scale"`
}

// SnapshotCounters carries the daemon's cumulative accounting across a
// restart, so shed/ingest totals on a restored daemon keep meaning "since
// the stream began", not "since the last restart".
type SnapshotCounters struct {
	// Ingested counts events accepted into the queue.
	Ingested int64 `json:"ingested"`
	// Shed counts events dropped at a full queue.
	Shed int64 `json:"shed"`
	// Applied counts events folded into slot states.
	Applied int64 `json:"applied"`
	// Invalid counts malformed events shed at apply time.
	Invalid int64 `json:"invalid"`
	// TickErrors counts hard solve errors.
	TickErrors int64 `json:"tick_errors"`
	// Escalations counts backpressure-escalated ticks.
	Escalations int64 `json:"escalations"`
	// Degraded counts below-full-rung slots.
	Degraded int64 `json:"degraded"`
}

// Snapshot captures the daemon's resume state between ticks. It is safe
// to call concurrently with event ingest and Run: the tick lock is held, so the
// snapshot always lands on a slot boundary.
func (d *Daemon) Snapshot() Snapshot {
	d.tickMu.Lock()
	defer d.tickMu.Unlock()

	st := SnapshotState{
		TaskSizes:    make([]float64, len(d.st.TaskSizes)),
		DataLengths:  make([]float64, len(d.st.DataLengths)),
		Channels:     make([][]float64, len(d.st.Channels)),
		FronthaulSE:  make([]float64, len(d.st.FronthaulSE)),
		Price:        float64(d.st.Price),
		DeviceActive: append([]bool(nil), d.deviceActive...),
		ServerActive: append([]bool(nil), d.serverActive...),
		ServerDown:   append([]bool(nil), d.serverDown...),
		CapScale:     append([]float64(nil), d.capScale...),
	}
	for i, v := range d.st.TaskSizes {
		st.TaskSizes[i] = float64(v)
	}
	for i, v := range d.st.DataLengths {
		st.DataLengths[i] = float64(v)
	}
	for i, row := range d.st.Channels {
		st.Channels[i] = make([]float64, d.stations)
		for _, l := range row {
			st.Channels[i][l.Station] = float64(l.SE)
		}
	}
	for k, v := range d.st.FronthaulSE {
		st.FronthaulSE[k] = float64(v)
	}

	d.qmu.Lock()
	pending := append([]Event(nil), d.queue...)
	counters := SnapshotCounters{
		Ingested:    d.ingested,
		Shed:        d.shedN,
		Applied:     d.applied,
		Invalid:     d.invalid,
		TickErrors:  d.tickErrors,
		Escalations: d.escalations,
		Degraded:    d.degraded,
	}
	d.qmu.Unlock()

	d.instr.snapshots.Inc()
	return Snapshot{
		Version:    SnapshotVersion,
		Ticks:      d.ticks,
		Controller: d.pol.Checkpoint(),
		State:      st,
		Pending:    pending,
		Counters:   counters,
	}
}

// Restore rewinds the daemon to a snapshot taken from a daemon with the
// same universe and controller configuration. The controller checkpoint
// restore enforces the V/solver/seed guards; this method enforces the
// version and universe dimensions. On success the next Tick decides slot
// Ticks+1 exactly as the snapshotted daemon would have.
func (d *Daemon) Restore(s Snapshot) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	switch {
	case len(s.State.TaskSizes) != d.devices,
		len(s.State.DataLengths) != d.devices,
		len(s.State.Channels) != d.devices,
		len(s.State.DeviceActive) != d.devices:
		return fmt.Errorf("serve: snapshot universe has %d devices, daemon %d", len(s.State.TaskSizes), d.devices)
	case len(s.State.FronthaulSE) != d.stations:
		return fmt.Errorf("serve: snapshot universe has %d stations, daemon %d", len(s.State.FronthaulSE), d.stations)
	case len(s.State.ServerActive) != d.servers,
		len(s.State.ServerDown) != d.servers,
		len(s.State.CapScale) != d.servers:
		return fmt.Errorf("serve: snapshot universe has %d servers, daemon %d", len(s.State.ServerActive), d.servers)
	case s.Ticks < 0:
		return fmt.Errorf("serve: snapshot tick count %d negative", s.Ticks)
	}
	for i, row := range s.State.Channels {
		if len(row) != d.stations {
			return fmt.Errorf("serve: snapshot channel row %d has %d stations, daemon %d", i, len(row), d.stations)
		}
		for k, v := range row {
			if v < 0 {
				return fmt.Errorf("serve: snapshot channel (%d, %d) is %v", i, k, v)
			}
		}
	}

	d.tickMu.Lock()
	defer d.tickMu.Unlock()
	if err := d.pol.Restore(s.Controller); err != nil {
		return err
	}

	st := &trace.State{
		TaskSizes:   make([]units.Cycles, d.devices),
		DataLengths: make([]units.DataSize, d.devices),
		Channels:    make([][]trace.Link, d.devices),
		FronthaulSE: make([]units.SpectralEfficiency, d.stations),
		Price:       units.Price(s.State.Price),
	}
	for i, v := range s.State.TaskSizes {
		st.TaskSizes[i] = units.Cycles(v)
	}
	for i, v := range s.State.DataLengths {
		st.DataLengths[i] = units.DataSize(v)
	}
	// The dense wire rows keep their positive entries as links.
	for i, row := range s.State.Channels {
		for k, v := range row {
			if v > 0 {
				st.Channels[i] = append(st.Channels[i], trace.Link{Station: k, SE: units.SpectralEfficiency(v)})
			}
		}
	}
	for k, v := range s.State.FronthaulSE {
		st.FronthaulSE[k] = units.SpectralEfficiency(v)
	}
	d.st = st
	d.deviceActive = append([]bool(nil), s.State.DeviceActive...)
	d.serverActive = append([]bool(nil), s.State.ServerActive...)
	d.serverDown = append([]bool(nil), s.State.ServerDown...)
	d.capScale = append([]float64(nil), s.State.CapScale...)
	d.ticks = s.Ticks
	d.tickErrors = s.Counters.TickErrors
	d.escalations = s.Counters.Escalations
	d.degraded = s.Counters.Degraded
	d.applied = s.Counters.Applied
	d.invalid = s.Counters.Invalid

	d.qmu.Lock()
	// A snapshot from a larger queue configuration sheds the tail —
	// bounded memory wins over completeness, and the shed is counted.
	kept := min(len(s.Pending), d.cfg.QueueCap)
	d.queue = append(make([]Event, 0, kept), s.Pending[:kept]...)
	d.shedN = s.Counters.Shed + int64(len(s.Pending)-kept)
	d.ingested = s.Counters.Ingested
	d.qmu.Unlock()

	d.instr.restores.Inc()
	return nil
}

// WriteSnapshot serializes the daemon's snapshot as indented JSON.
func (d *Daemon) WriteSnapshot(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d.Snapshot())
}

// ReadSnapshot parses a snapshot written by WriteSnapshot, rejecting
// unknown fields and wire versions this build does not read.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("serve: decoding snapshot: %w", err)
	}
	if s.Version != SnapshotVersion {
		return Snapshot{}, fmt.Errorf("serve: snapshot version %d, this build reads %d", s.Version, SnapshotVersion)
	}
	return s, nil
}
