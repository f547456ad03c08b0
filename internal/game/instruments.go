package game

import "eotora/internal/obs"

// Instruments are the observability hooks of an Engine. Every field is
// optional; nil instruments record nothing (obs handles are nil-safe),
// so the zero Instruments value is "observability off".
//
// The Engine tallies cache hits/misses and moves in plain per-engine
// fields during a solve — the Engine is single-goroutine by contract, so
// the hot loops pay no atomic operations — and flushes the tallies to
// the shared obs instruments once per CGBA/MCBA call. Tallies from
// direct PlayerCost/BestResponse queries outside a solve are flushed by
// the next solve on the same engine.
type Instruments struct {
	// CGBASolves counts Engine.CGBA calls.
	CGBASolves *obs.Counter
	// CGBAIterations records each CGBA call's improvement-step count (the
	// Figure 5/6 complexity metric, bounded by Theorem 2).
	CGBAIterations *obs.Histogram
	// MCBAIterations records each Engine.MCBA call's walk length.
	MCBAIterations *obs.Histogram
	// CacheHits counts refreshes that found a player's cached cost and
	// best response still valid, and sharded sweep visits skipped
	// because no resource of the player changed since its last score.
	CacheHits *obs.Counter
	// CacheMisses counts refreshes and sweep scorings that required full
	// per-player recomputation.
	CacheMisses *obs.Counter
	// Moves counts strategy switches applied to the engine's profile.
	Moves *obs.Counter
}

// SetInstruments installs observability hooks on the engine. Passing the
// zero Instruments turns recording off.
func (e *Engine) SetInstruments(in Instruments) { e.instr = in }

// engineTallies are the engine-local counters flushed per solve.
type engineTallies struct {
	hits, misses, moves int64
}

// flushInstr publishes and resets the engine-local tallies.
func (e *Engine) flushInstr() {
	if e.tally.hits != 0 {
		e.instr.CacheHits.Add(e.tally.hits)
	}
	if e.tally.misses != 0 {
		e.instr.CacheMisses.Add(e.tally.misses)
	}
	if e.tally.moves != 0 {
		e.instr.Moves.Add(e.tally.moves)
	}
	e.tally = engineTallies{}
}
