package game

import "eotora/internal/obs"

// Instruments are the observability hooks of an Engine. Every field is
// optional; nil instruments record nothing (obs handles are nil-safe),
// so the zero Instruments value is "observability off".
//
// The Engine tallies scores and skips, moves and scan terms in plain
// per-engine fields during a solve — the Engine is single-goroutine by
// contract, so the hot loops pay no atomic operations — and flushes the
// tallies to the shared obs instruments once per CGBA/MCBA call.
// Tallies from queries outside a solve (IsEquilibrium) are flushed by
// the next solve on the same engine.
type Instruments struct {
	// CGBASolves counts Engine.CGBA calls.
	CGBASolves *obs.Counter
	// CGBAIterations records each CGBA call's improvement-step count (the
	// Figure 5/6 complexity metric, bounded by Theorem 2).
	CGBAIterations *obs.Histogram
	// MCBAIterations records each Engine.MCBA call's walk length.
	MCBAIterations *obs.Histogram
	// CacheHits counts sharded sweep visits skipped because no resource
	// of the player changed since its last score. Only a sweep over a
	// plan of two or more shards keeps the change stamps that allow a
	// skip, so every other solve records none.
	CacheHits *obs.Counter
	// CacheMisses counts player scores: full per-player evaluations of
	// the current cost and best response, in the exact loop, its
	// equilibrium test, and every sweep.
	CacheMisses *obs.Counter
	// Moves counts strategy switches applied to the engine's profile.
	Moves *obs.Counter
	// ScanTerms counts the use terms m_r·p_{i,r}·(p_r + p_{i,r}) the
	// best-response scans read: every use of every strategy on the
	// generic arena scan, one per distinct server plus two per station
	// on the factored scan. It is work, fixed by the game and the
	// solve's inputs, and equal at every pool size.
	ScanTerms *obs.Counter
}

// SetInstruments installs observability hooks on the engine. Passing the
// zero Instruments turns recording off.
func (e *Engine) SetInstruments(in Instruments) { e.instr = in }

// engineTallies are the engine-local counters flushed per solve.
type engineTallies struct {
	hits, misses, moves, terms int64
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
	if terms := e.tally.terms + e.scan.terms; terms != 0 {
		e.instr.ScanTerms.Add(terms)
	}
	e.tally, e.scan.terms = engineTallies{}, 0
}
