package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFrequencyScales(t *testing.T) {
	tests := []struct {
		name string
		f    Frequency
		hz   float64
		ghz  float64
	}{
		{name: "one hertz", f: 1, hz: 1, ghz: 1e-9},
		{name: "one kilohertz", f: KHz, hz: 1e3, ghz: 1e-6},
		{name: "one megahertz", f: MHz, hz: 1e6, ghz: 1e-3},
		{name: "one gigahertz", f: GHz, hz: 1e9, ghz: 1},
		{name: "typical cpu", f: 2.4 * GHz, hz: 2.4e9, ghz: 2.4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.f.Hertz(); got != tt.hz {
				t.Errorf("Hertz() = %v, want %v", got, tt.hz)
			}
			if got := tt.f.GigaHertz(); math.Abs(got-tt.ghz) > 1e-12 {
				t.Errorf("GigaHertz() = %v, want %v", got, tt.ghz)
			}
		})
	}
}

func TestFrequencyString(t *testing.T) {
	tests := []struct {
		f    Frequency
		want string
	}{
		{2.4 * GHz, "2.4 GHz"},
		{75 * MHz, "75 MHz"},
		{12 * KHz, "12 kHz"},
		{3, "3 Hz"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", float64(tt.f), got, tt.want)
		}
	}
}

func TestDataSizeScales(t *testing.T) {
	if got := (6 * Megabit).Bits(); got != 6e6 {
		t.Errorf("Bits() = %v, want 6e6", got)
	}
	if got := (2 * Gigabit).String(); got != "2 Gb" {
		t.Errorf("String() = %q, want %q", got, "2 Gb")
	}
	if got := (512 * Kilobit).String(); got != "512 kb" {
		t.Errorf("String() = %q, want %q", got, "512 kb")
	}
}

func TestCyclesScales(t *testing.T) {
	if got := (150 * MegaCycles).Count(); got != 1.5e8 {
		t.Errorf("Count() = %v, want 1.5e8", got)
	}
	if got := (150 * MegaCycles).String(); got != "150 Mcycles" {
		t.Errorf("String() = %q, want %q", got, "150 Mcycles")
	}
	if got := (3 * GigaCycles).String(); got != "3 Gcycles" {
		t.Errorf("String() = %q, want %q", got, "3 Gcycles")
	}
}

func TestSpectralEfficiencyRate(t *testing.T) {
	tests := []struct {
		name string
		se   SpectralEfficiency
		w    Frequency
		want DataRate
	}{
		{name: "midband", se: 30, w: 75 * MHz, want: 2.25e9},
		{name: "fronthaul", se: 10, w: 1 * GHz, want: 1e10},
		{name: "zero bandwidth", se: 30, w: 0, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.se.Rate(tt.w); math.Abs(float64(got-tt.want)) > 1e-3 {
				t.Errorf("Rate() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTransmitTime(t *testing.T) {
	tests := []struct {
		name string
		d    DataSize
		r    DataRate
		want float64
	}{
		{name: "one second", d: 1e9, r: 1e9, want: 1},
		{name: "six megabit over gigabit", d: 6 * Megabit, r: 1e9, want: 6e-3},
		{name: "zero rate is infinite", d: Megabit, r: 0, want: math.Inf(1)},
		{name: "negative rate is infinite", d: Megabit, r: -5, want: math.Inf(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := TransmitTime(tt.d, tt.r).Value()
			if math.IsInf(tt.want, 1) {
				if !math.IsInf(got, 1) {
					t.Errorf("TransmitTime() = %v, want +Inf", got)
				}
				return
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("TransmitTime() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestProcessTime(t *testing.T) {
	if got := ProcessTime(3*GigaCycles, 2*GHz).Value(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("ProcessTime() = %v, want 1.5", got)
	}
	if got := ProcessTime(GigaCycles, 0).Value(); !math.IsInf(got, 1) {
		t.Errorf("ProcessTime() with zero frequency = %v, want +Inf", got)
	}
}

func TestEnergyConversions(t *testing.T) {
	// 1 MWh = 3.6e9 J.
	if got := Energy(3.6e9).MegawattHours(); math.Abs(got-1) > 1e-12 {
		t.Errorf("MegawattHours() = %v, want 1", got)
	}
	// 2 kW over one hour = 2 kWh = 7.2e6 J.
	e := Over(2*Kilowatt, 3600)
	if math.Abs(float64(e)-7.2e6) > 1e-6 {
		t.Errorf("Over() = %v J, want 7.2e6", float64(e))
	}
}

func TestPriceCost(t *testing.T) {
	// $50/MWh on 1 MWh of energy costs $50.
	cost := Price(50).Cost(Energy(3.6e9))
	if math.Abs(cost.Dollars()-50) > 1e-9 {
		t.Errorf("Cost() = %v, want $50", cost)
	}
	// Zero energy costs nothing regardless of price.
	if got := Price(120).Cost(0).Dollars(); got != 0 {
		t.Errorf("Cost(0) = %v, want 0", got)
	}
}

func TestSecondsString(t *testing.T) {
	tests := []struct {
		s    Seconds
		want string
	}{
		{2.5, "2.5 s"},
		{0.25, "250 ms"},
		{2.5e-4, "250 µs"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("%v.String() = %q, want %q", float64(tt.s), got, tt.want)
		}
	}
}

// Property: transmit time scales linearly in data size and inversely in rate.
func TestTransmitTimeScaling(t *testing.T) {
	prop := func(d, r float64) bool {
		// quick draws magnitudes up to 1.8e308; fold them into a finite
		// range so every draw is checked.
		ds := DataSize(math.Mod(math.Abs(d), 1e12) + 1)
		rate := DataRate(math.Mod(math.Abs(r), 1e12) + 1)
		t1 := TransmitTime(ds, rate).Value()
		t2 := TransmitTime(2*ds, rate).Value()
		t3 := TransmitTime(ds, 2*rate).Value()
		return math.Abs(t2-2*t1) <= 1e-9*t1 && math.Abs(t3-t1/2) <= 1e-9*t1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: cost is bilinear in price and energy.
func TestPriceCostBilinear(t *testing.T) {
	prop := func(p, e float64) bool {
		// quick draws magnitudes up to 1.8e308; fold them into a finite
		// range so every draw is checked.
		price := Price(math.Mod(math.Abs(p), 1e6))
		energy := Energy(math.Mod(math.Abs(e), 1e12))
		c1 := price.Cost(energy).Dollars()
		c2 := (2 * price).Cost(energy).Dollars()
		c3 := price.Cost(2 * energy).Dollars()
		return math.Abs(c2-2*c1) <= 1e-9*(c1+1e-300) && math.Abs(c3-2*c1) <= 1e-9*(c1+1e-300)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStringMethods(t *testing.T) {
	tests := []struct {
		name string
		got  string
		want string
	}{
		{"rate gbps", DataRate(2.5e9).String(), "2.5 Gbps"},
		{"rate mbps", DataRate(30e6).String(), "30 Mbps"},
		{"rate kbps", DataRate(12e3).String(), "12 kbps"},
		{"rate bps", DataRate(5).String(), "5 bps"},
		{"spectral efficiency", SpectralEfficiency(30).String(), "30 bps/Hz"},
		{"power megawatt", Power(2e6).String(), "2 MW"},
		{"power kilowatt", Power(3.2e3).String(), "3.2 kW"},
		{"power watt", Power(45).String(), "45 W"},
		{"price", Price(52.5).String(), "$52.50/MWh"},
		{"money", Money(1.23456).String(), "$1.2346"},
		{"datasize bits", DataSize(12).String(), "12 b"},
		{"cycles plain", Cycles(500).String(), "500 cycles"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.got != tt.want {
				t.Errorf("String() = %q, want %q", tt.got, tt.want)
			}
		})
	}
}

func TestScalarAccessors(t *testing.T) {
	if got := SpectralEfficiency(7).BpsPerHz(); got != 7 {
		t.Errorf("BpsPerHz = %v", got)
	}
	if got := Power(9).Watts(); got != 9 {
		t.Errorf("Watts = %v", got)
	}
	if got := Price(13).PerMWh(); got != 13 {
		t.Errorf("PerMWh = %v", got)
	}
	if got := Money(15).Dollars(); got != 15 {
		t.Errorf("Dollars = %v", got)
	}
	if got := Seconds(17).Value(); got != 17 {
		t.Errorf("Value = %v", got)
	}
	if got := Cycles(19).Count(); got != 19 {
		t.Errorf("Count = %v", got)
	}
}
