package trace

import (
	"math"
	"slices"

	"eotora/internal/obs"
	"eotora/internal/units"
)

// MetricRepairs names the counter of fields a Sanitizer repaired (see
// Sanitizer.Instrument): OPERATIONS.md's data-quality alarm.
const MetricRepairs = "trace.repairs"

// Sanitizer wraps a Source and repairs invalid fields in every state
// before it reaches the controller: NaN, infinite, or negative task sizes,
// data lengths, fronthaul efficiencies, and prices are replaced with the
// last good value seen in the same position (or a safe default before any
// good value exists); a channel link whose efficiency is not a positive
// finite number is dropped, and a device left with no link — which would
// strand it with no coverage — gets its last good row restored. Out-of-
// range CapScale entries are clamped to the nominal 1.
//
// The sanitizer is opt-in: sources not wrapped in one flow through
// untouched, and a wrapped source emitting only valid states is returned
// unmodified (bit-identical), with the last-good buffers updated as a side
// effect. Repairs happen in place on the source's state and in reused
// buffers, so the steady-state path allocates only while the buffers grow
// to the state's dimensions.
type Sanitizer struct {
	src Source

	// Last-good copies, reused across slots. Device i's last good row is
	// goodLinks[goodOff[i]:goodOff[i+1]], taken from a state with
	// goodStations stations.
	goodTasks    []units.Cycles
	goodData     []units.DataSize
	goodLinks    []Link
	goodOff      []int
	goodStations int
	goodFront    []units.SpectralEfficiency
	goodPrice    units.Price

	// repairs counts the fields Next repaired; nil records nothing.
	repairs *obs.Counter
}

// Fallbacks used before any good value has been observed for a field.
// They are deliberately bland — a small task on a modest channel — so a
// corrupted first slot degrades gracefully instead of failing validation.
const (
	fallbackTask    = 50e6 // 50 megacycles, the paper's demand floor
	fallbackData    = 3e6  // 3 megabits, the paper's data floor
	fallbackChannel = 15   // bps/Hz, the paper's channel floor
	fallbackPrice   = 25   // $/MWh, an off-peak NYISO level
)

// NewSanitizer wraps src in a repairing filter.
func NewSanitizer(src Source) *Sanitizer {
	return &Sanitizer{src: src}
}

// Period implements Source.
func (z *Sanitizer) Period() int { return z.src.Period() }

// Instrument records the number of fields every Next repairs in reg's
// MetricRepairs counter. A nil registry detaches it. Repairs do not
// depend on it, so an instrumented run emits the same states.
func (z *Sanitizer) Instrument(reg *obs.Registry) { z.repairs = reg.Counter(MetricRepairs) }

// Next implements Source: it pulls the next state from the wrapped source,
// repairs it in place, and remembers the repaired values as the new last
// good state.
func (z *Sanitizer) Next() *State {
	st := z.src.Next()
	if n := z.Apply(st); n > 0 {
		z.repairs.Add(int64(n))
	}
	return st
}

// Apply repairs st in place against the sanitizer's last-good state and
// returns the number of fields repaired. It is exported for the fuzz
// harness (FuzzSanitizeState), which feeds it adversarial states directly;
// after Apply, every numeric field of st is finite and in range, so no NaN
// can reach the controller's virtual queue. Apply also refreshes the
// last-good buffers from the repaired state.
func (z *Sanitizer) Apply(st *State) int {
	n := 0
	for i := range st.TaskSizes {
		if bad(st.TaskSizes[i].Count()) {
			st.TaskSizes[i] = goodAt(z.goodTasks, i, fallbackTask)
			n++
		}
	}
	for i := range st.DataLengths {
		if bad(st.DataLengths[i].Bits()) {
			st.DataLengths[i] = goodAt(z.goodData, i, fallbackData)
			n++
		}
	}
	stations := len(st.FronthaulSE)
	for i := range st.Channels {
		// Drop every unusable link, compacting the row in place; a clean
		// row is left untouched.
		row := slices.DeleteFunc(st.Channels[i], unusable)
		n += len(st.Channels[i]) - len(row)
		st.Channels[i] = row
		if len(row) == 0 && stations > 0 {
			// The device lost all coverage: restore its last good row, or
			// pin it to station 0 before one exists. A state without
			// stations is a shape defect CheckState rejects.
			if i+1 < len(z.goodOff) && z.goodStations == stations && z.goodOff[i] < z.goodOff[i+1] {
				st.Channels[i] = append([]Link(nil), z.goodLinks[z.goodOff[i]:z.goodOff[i+1]]...)
			} else {
				st.Channels[i] = []Link{{Station: 0, SE: fallbackChannel}}
			}
			n++
		}
	}
	for k := range st.FronthaulSE {
		if v := st.FronthaulSE[k].BpsPerHz(); bad(v) || v == 0 {
			st.FronthaulSE[k] = goodAt(z.goodFront, k, fallbackChannel)
			n++
		}
	}
	if p := float64(st.Price); bad(p) || p == 0 {
		if z.goodPrice > 0 {
			st.Price = z.goodPrice
		} else {
			st.Price = fallbackPrice
		}
		n++
	}
	for i := range st.CapScale {
		if c := st.CapScale[i]; math.IsNaN(c) || c <= 0 || c > 1 {
			st.CapScale[i] = 1
			n++
		}
	}

	// The state is now valid; it becomes the last good one.
	z.goodTasks = append(z.goodTasks[:0], st.TaskSizes...)
	z.goodData = append(z.goodData[:0], st.DataLengths...)
	z.goodFront = append(z.goodFront[:0], st.FronthaulSE...)
	z.goodLinks = z.goodLinks[:0]
	z.goodOff = append(z.goodOff[:0], 0)
	for _, row := range st.Channels {
		z.goodLinks = append(z.goodLinks, row...)
		z.goodOff = append(z.goodOff, len(z.goodLinks))
	}
	z.goodStations = stations
	z.goodPrice = st.Price
	return n
}

// unusable reports a channel link whose efficiency is not a positive
// finite number.
func unusable(l Link) bool {
	v := l.SE.BpsPerHz()
	return bad(v) || v == 0
}

// bad reports a value unusable as a non-negative finite quantity.
func bad(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0) || v < 0
}

// goodAt returns good[i] when it exists and is positive, else the
// fallback.
func goodAt[T ~float64](good []T, i int, fallback T) T {
	if i < len(good) && good[i] > 0 {
		return good[i]
	}
	return fallback
}
