package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"eotora/internal/units"
)

// Checkpoint is the serializable resume state of a Controller. Because the
// controller derives its per-slot randomness from (Seed, slot), the
// checkpoint needs only the slot counter and the virtual-queue backlog to
// resume bit-identically; the configuration fields are included to detect
// mismatched restores.
type Checkpoint struct {
	// Slot is the last completed slot index.
	Slot int `json:"slot"`
	// Backlog is the virtual-queue backlog Q(Slot+1); the total across
	// rooms in per-room budget mode, where it is derived on restore.
	Backlog float64 `json:"backlog"`
	// V is the controller's penalty weight (restore guard).
	V float64 `json:"v"`
	// Solver names the P2-A solver (restore guard).
	Solver string `json:"solver"`
	// Seed is the controller's randomness seed (restore guard).
	Seed int64 `json:"seed"`
	// RoomBacklogs holds each room's backlog, keyed by room ID, in
	// per-room budget mode (exactly the system's rooms); nil otherwise.
	RoomBacklogs map[int]float64 `json:"room_backlogs,omitempty"`
	// PrevStation/PrevServer/PrevFreq carry the previous slot's decision
	// backing the RungPrevious fallback, so a controller restored under a
	// slot deadline can still re-price the pre-restart decision instead
	// of dropping straight to the greedy rung on its first deadline miss.
	// Empty on controllers that never armed a deadline (the fields are
	// only maintained when a slot budget is configured).
	PrevStation []int `json:"prev_station,omitempty"`
	// PrevServer mirrors PrevStation for the server choice.
	PrevServer []int `json:"prev_server,omitempty"`
	// PrevFreq holds the previous slot's frequency vector in Hz.
	PrevFreq []float64 `json:"prev_freq,omitempty"`
	// Extra carries policy-wrapper state (internal/policy): the online
	// auto-tuner records its adapted knobs and window accumulators here.
	// The Controller itself never writes or reads it, so plain-bdma
	// checkpoints serialize exactly as before the policy seam existed.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Checkpoint captures the controller's resume state.
func (c *Controller) Checkpoint() Checkpoint {
	cp := Checkpoint{
		Slot:   c.slot,
		V:      c.cfg.V,
		Solver: c.SolverName(),
		Seed:   c.cfg.Seed,
	}
	c.budget.Save(&cp)
	if c.havePrev {
		cp.PrevStation = append([]int(nil), c.prevSel.Station...)
		cp.PrevServer = append([]int(nil), c.prevSel.Server...)
		cp.PrevFreq = make([]float64, len(c.prevFreq))
		for n, f := range c.prevFreq {
			cp.PrevFreq[n] = float64(f)
		}
	}
	return cp
}

// Restore rewinds (or fast-forwards) the controller to a checkpoint taken
// from a controller with identical configuration. It fails when V, the
// solver, the seed or the budget groups differ — resuming under a
// different configuration would silently change the experiment — or when
// a backlog or the previous decision is malformed. Every check runs
// before any state is written: a rejected checkpoint leaves the
// controller as it was.
func (c *Controller) Restore(cp Checkpoint) error {
	switch {
	case cp.Slot < 0:
		return fmt.Errorf("core: checkpoint slot %d negative", cp.Slot)
	case cp.V != c.cfg.V:
		return fmt.Errorf("core: checkpoint V = %v, controller V = %v", cp.V, c.cfg.V)
	case cp.Solver != c.SolverName():
		return fmt.Errorf("core: checkpoint solver %q, controller %q", cp.Solver, c.SolverName())
	case cp.Seed != c.cfg.Seed:
		return fmt.Errorf("core: checkpoint seed %d, controller seed %d", cp.Seed, c.cfg.Seed)
	case len(cp.Extra) != 0:
		return errors.New("core: checkpoint carries policy-wrapper state; restore it through the owning policy")
	}
	prevFreq, err := c.checkPrevious(cp)
	if err != nil {
		return err
	}
	// The budget checks its part in full before writing; nothing after it
	// can fail.
	if err := c.budget.Restore(cp); err != nil {
		return err
	}
	c.slot = cp.Slot
	// Rehydrate the RungPrevious fallback state, reusing capacity like
	// the per-slot path does.
	c.havePrev = len(cp.PrevStation) > 0
	c.prevSel.Station = append(c.prevSel.Station[:0], cp.PrevStation...)
	c.prevSel.Server = append(c.prevSel.Server[:0], cp.PrevServer...)
	c.prevFreq = append(c.prevFreq[:0], prevFreq...)
	return nil
}

// checkPrevious validates a checkpoint's previous decision — absent, or
// one (station, server) pair per device and one in-range frequency per
// server — and returns its frequencies.
func (c *Controller) checkPrevious(cp Checkpoint) (Frequencies, error) {
	_, _, servers, devices := c.sys.Net.Counts()
	switch {
	case len(cp.PrevStation) != len(cp.PrevServer):
		return nil, fmt.Errorf("core: checkpoint previous decision has %d stations, %d servers",
			len(cp.PrevStation), len(cp.PrevServer))
	case len(cp.PrevStation) == 0 && len(cp.PrevFreq) == 0:
		return nil, nil
	case len(cp.PrevStation) != devices || len(cp.PrevFreq) != servers:
		return nil, fmt.Errorf("core: checkpoint previous decision has %d pairs and %d frequencies, want %d and %d",
			len(cp.PrevStation), len(cp.PrevFreq), devices, servers)
	}
	freq := make(Frequencies, servers)
	for n, f := range cp.PrevFreq {
		freq[n] = units.Frequency(f)
	}
	if err := c.sys.ValidateFrequencies(freq); err != nil {
		return nil, fmt.Errorf("core: checkpoint previous decision: %w", err)
	}
	return freq, nil
}

// WriteCheckpoint serializes the controller's checkpoint as JSON.
func (c *Controller) WriteCheckpoint(w io.Writer) error {
	return WriteCheckpointTo(w, c.Checkpoint())
}

// WriteCheckpointTo serializes cp as indented JSON — the format
// ReadCheckpoint parses. Drivers working through the policy seam use it
// to persist any policy's Checkpoint(), not just a Controller's.
func WriteCheckpointTo(w io.Writer, cp Checkpoint) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// ReadCheckpoint parses a checkpoint written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (Checkpoint, error) {
	var cp Checkpoint
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cp); err != nil {
		return Checkpoint{}, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	return cp, nil
}
