package trace

import (
	"math"
	"reflect"
	"testing"

	"eotora/internal/obs"
	"eotora/internal/units"
)

// sampleState builds a small valid state by hand.
func sampleState() *State {
	return &State{
		Slot:        1,
		TaskSizes:   []units.Cycles{60e6, 80e6},
		DataLengths: []units.DataSize{4e6, 5e6},
		Channels: [][]Link{
			{{Station: 0, SE: 18}},
			{{Station: 1, SE: 20}},
		},
		FronthaulSE: []units.SpectralEfficiency{30, 28},
		Price:       40,
	}
}

// checkFinite asserts the invariant Apply guarantees: every numeric field
// finite and usable (prices, fronthaul and stored links strictly
// positive, every device covered by at least one station).
func checkFinite(t *testing.T, st *State) {
	t.Helper()
	for i, v := range st.TaskSizes {
		if f := v.Count(); math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			t.Fatalf("task %d = %v after sanitize", i, f)
		}
	}
	for i, v := range st.DataLengths {
		if f := v.Bits(); math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			t.Fatalf("data %d = %v after sanitize", i, f)
		}
	}
	for i, row := range st.Channels {
		for _, l := range row {
			if f := l.SE.BpsPerHz(); math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
				t.Fatalf("channel [%d][%d] = %v after sanitize", i, l.Station, f)
			}
		}
		if len(row) == 0 && len(st.FronthaulSE) > 0 {
			t.Fatalf("device %d left with no coverage after sanitize", i)
		}
	}
	for k, v := range st.FronthaulSE {
		if f := v.BpsPerHz(); math.IsNaN(f) || math.IsInf(f, 0) || f <= 0 {
			t.Fatalf("fronthaul %d = %v after sanitize", k, f)
		}
	}
	if p := float64(st.Price); math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
		t.Fatalf("price = %v after sanitize", p)
	}
	for n, c := range st.CapScale {
		if math.IsNaN(c) || c <= 0 || c > 1 {
			t.Fatalf("cap scale %d = %v after sanitize", n, c)
		}
	}
}

// TestSanitizerPassThrough: valid states flow through bit-identical with
// zero repairs.
func TestSanitizerPassThrough(t *testing.T) {
	st := sampleState()
	want := *st
	wantTasks := append([]units.Cycles(nil), st.TaskSizes...)
	z := NewSanitizer(nil)
	if n := z.Apply(st); n != 0 {
		t.Fatalf("valid state repaired %d times", n)
	}
	if !reflect.DeepEqual(st.TaskSizes, wantTasks) || st.Price != want.Price {
		t.Error("valid state modified")
	}
}

// TestSanitizerRepairsCorruption: each corruption class is repaired, the
// repair count is reported, and the result satisfies the invariant.
func TestSanitizerRepairsCorruption(t *testing.T) {
	z := NewSanitizer(nil)
	z.Apply(sampleState()) // seed the last-good buffers

	st := sampleState()
	st.TaskSizes[0] = units.Cycles(math.NaN())
	st.DataLengths[1] = -5
	st.Channels[0][0].SE = units.SpectralEfficiency(math.Inf(1))
	st.FronthaulSE[1] = 0
	st.Price = units.Price(math.NaN())
	st.CapScale = []float64{math.NaN(), 2}
	n := z.Apply(st)
	if n == 0 {
		t.Fatal("no repairs reported for a corrupted state")
	}
	checkFinite(t, st)
	// Repairs restore the last good values where one exists.
	if st.TaskSizes[0] != 60e6 {
		t.Errorf("task 0 repaired to %v, want last good 60e6", st.TaskSizes[0])
	}
	if st.Price != 40 {
		t.Errorf("price repaired to %v, want last good 40", st.Price)
	}
}

// TestSanitizerDarkRow: a device whose channel row lost every link, by
// emptying or by corrupting them all, gets its last good row back (or
// station 0 pinned before any good row exists).
func TestSanitizerDarkRow(t *testing.T) {
	z := NewSanitizer(nil)
	z.Apply(sampleState())
	for name, dark := range map[string][]Link{
		"empty":   nil,
		"corrupt": {{Station: 0, SE: units.SpectralEfficiency(math.NaN())}, {Station: 1, SE: 0}},
	} {
		st := sampleState()
		st.Channels[1] = dark
		if n := z.Apply(st); n == 0 {
			t.Fatalf("%s: dark row not repaired", name)
		}
		if !reflect.DeepEqual(st.Channels[1], []Link{{Station: 1, SE: 20}}) {
			t.Errorf("%s: dark row restored to %v, want last good [{1 20}]", name, st.Channels[1])
		}
	}

	// Before any good row exists, the fallback pins station 0.
	fresh := NewSanitizer(nil)
	st2 := sampleState()
	st2.Channels[0] = nil
	fresh.Apply(st2)
	if st2.Channel(0, 0) <= 0 {
		t.Errorf("first-slot dark row not pinned: %v", st2.Channels[0])
	}
}

// TestSanitizerSourceWrapping: the Source face pulls and repairs.
func TestSanitizerSourceWrapping(t *testing.T) {
	corrupt := sampleState()
	corrupt.TaskSizes[1] = units.Cycles(math.Inf(1))
	re, err := NewReplay([]*State{sampleState(), corrupt}, 2)
	if err != nil {
		t.Fatal(err)
	}
	z := NewSanitizer(re)
	if z.Period() != 2 {
		t.Errorf("Period = %d, want 2", z.Period())
	}
	first := z.Next()
	checkFinite(t, first)
	if !reflect.DeepEqual(first, sampleState()) {
		t.Error("clean slot modified")
	}
	second := z.Next()
	checkFinite(t, second)
	if second.TaskSizes[1] != 80e6 {
		t.Errorf("task repaired to %v, want 80e6", second.TaskSizes[1])
	}
}

// TestSanitizerCountsRepairs: an instrumented Sanitizer adds every
// Next's repair count to trace.repairs and emits the same states as an
// uninstrumented one.
func TestSanitizerCountsRepairs(t *testing.T) {
	corrupt := func() *State {
		st := sampleState()
		st.TaskSizes[1] = units.Cycles(math.Inf(1))
		st.Price = units.Price(math.NaN())
		return st
	}
	source := func() Source {
		re, err := NewReplay([]*State{sampleState(), corrupt(), corrupt()}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return re
	}
	reg := obs.New()
	plain, counted := NewSanitizer(source()), NewSanitizer(source())
	counted.Instrument(reg)
	repairs := reg.Counter(MetricRepairs)
	for slot, want := range []int64{0, 2, 4} {
		got, ref := counted.Next(), plain.Next()
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("slot %d: instrumented state differs", slot)
		}
		if repairs.Value() != want {
			t.Fatalf("slot %d: trace.repairs = %d, want %d", slot, repairs.Value(), want)
		}
	}
}

// FuzzSanitizeState feeds adversarial states straight into Apply and
// requires the output to satisfy the invariant that protects the
// controller's virtual queue: after sanitizing, no NaN/Inf/negative value
// survives anywhere a latency or cost term reads, so no NaN can reach
// Q(t) through θ(t).
func FuzzSanitizeState(f *testing.F) {
	f.Add(float64(60e6), float64(4e6), float64(18), float64(30), float64(40), float64(1), uint8(0))
	f.Add(math.NaN(), math.Inf(1), -1.0, 0.0, math.NaN(), -3.0, uint8(3))
	f.Add(-7.5, math.NaN(), math.Inf(-1), math.NaN(), 0.0, 9.0, uint8(7))
	f.Fuzz(func(t *testing.T, task, data, channel, front, price, capScale float64, shape uint8) {
		st := &State{
			Slot:        1,
			TaskSizes:   []units.Cycles{units.Cycles(task), 70e6},
			DataLengths: []units.DataSize{5e6, units.DataSize(data)},
			Channels: [][]Link{
				{{Station: 0, SE: units.SpectralEfficiency(channel)}},
				{{Station: 0, SE: units.SpectralEfficiency(channel)}, {Station: 1, SE: units.SpectralEfficiency(front)}},
			},
			FronthaulSE: []units.SpectralEfficiency{units.SpectralEfficiency(front), 25},
			Price:       units.Price(price),
			CapScale:    []float64{capScale, 1},
		}
		z := NewSanitizer(nil)
		if shape&1 != 0 {
			z.Apply(sampleState()) // pre-seed last-good buffers
		}
		if shape&2 != 0 {
			st.CapScale = nil
		}
		if shape&4 != 0 {
			st.Channels[0] = st.Channels[0][:0] // a device with no covering station
		}
		z.Apply(st)
		checkFinite(t, st)
		// Idempotence: a sanitized state needs no further repairs.
		if n := z.Apply(st); n != 0 {
			t.Fatalf("second Apply repaired %d fields on a sanitized state", n)
		}
	})
}
