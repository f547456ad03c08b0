// Package units defines the typed physical quantities used throughout the
// EOTORA simulator: frequencies, data rates, data sizes, CPU work, power,
// energy, and money. Each quantity is a defined float64 type so that unit
// errors (e.g. passing bits where cycles are expected) are compile errors,
// while arithmetic stays allocation-free.
//
// Conventions follow the paper's notation:
//
//   - data lengths d are measured in bits,
//   - task sizes f are measured in CPU cycles,
//   - clock frequencies ω are cycles per second (Hz),
//   - bandwidths W are Hz, spectral efficiencies h are bps/Hz,
//   - electricity prices p are dollars per megawatt-hour,
//   - latencies are seconds.
package units

import (
	"fmt"
	"math"
)

// Frequency is a clock frequency or radio bandwidth in hertz.
type Frequency float64

// Common frequency scales.
const (
	KHz Frequency = 1e3
	MHz Frequency = 1e6
	GHz Frequency = 1e9
)

// Hertz returns the frequency as a bare float64 in Hz.
func (f Frequency) Hertz() float64 { return float64(f) }

// GigaHertz returns the frequency expressed in GHz.
func (f Frequency) GigaHertz() float64 { return float64(f) / 1e9 }

func (f Frequency) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.3g GHz", float64(f)/1e9)
	case f >= MHz:
		return fmt.Sprintf("%.3g MHz", float64(f)/1e6)
	case f >= KHz:
		return fmt.Sprintf("%.3g kHz", float64(f)/1e3)
	default:
		return fmt.Sprintf("%.3g Hz", float64(f))
	}
}

// DataSize is an amount of data in bits.
type DataSize float64

// Common data-size scales (decimal, matching networking convention).
const (
	Kilobit DataSize = 1e3
	Megabit DataSize = 1e6
	Gigabit DataSize = 1e9
)

// Bits returns the size as a bare float64 number of bits.
func (d DataSize) Bits() float64 { return float64(d) }

func (d DataSize) String() string {
	switch {
	case d >= Gigabit:
		return fmt.Sprintf("%.3g Gb", float64(d)/1e9)
	case d >= Megabit:
		return fmt.Sprintf("%.3g Mb", float64(d)/1e6)
	case d >= Kilobit:
		return fmt.Sprintf("%.3g kb", float64(d)/1e3)
	default:
		return fmt.Sprintf("%.3g b", float64(d))
	}
}

// Cycles is an amount of CPU work in clock cycles.
type Cycles float64

// Common cycle scales.
const (
	MegaCycles Cycles = 1e6
	GigaCycles Cycles = 1e9
)

// Count returns the work as a bare float64 number of cycles.
func (c Cycles) Count() float64 { return float64(c) }

func (c Cycles) String() string {
	switch {
	case c >= GigaCycles:
		return fmt.Sprintf("%.3g Gcycles", float64(c)/1e9)
	case c >= MegaCycles:
		return fmt.Sprintf("%.3g Mcycles", float64(c)/1e6)
	default:
		return fmt.Sprintf("%.3g cycles", float64(c))
	}
}

// DataRate is a throughput in bits per second.
type DataRate float64

func (r DataRate) String() string {
	switch {
	case r >= 1e9:
		return fmt.Sprintf("%.3g Gbps", float64(r)/1e9)
	case r >= 1e6:
		return fmt.Sprintf("%.3g Mbps", float64(r)/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.3g kbps", float64(r)/1e3)
	default:
		return fmt.Sprintf("%.3g bps", float64(r))
	}
}

// SpectralEfficiency is a modulation efficiency in bps/Hz; multiplying by an
// allocated bandwidth yields a DataRate.
type SpectralEfficiency float64

// BpsPerHz returns the efficiency as a bare float64 in bps/Hz.
func (s SpectralEfficiency) BpsPerHz() float64 { return float64(s) }

// Rate returns the data rate achieved over bandwidth w.
func (s SpectralEfficiency) Rate(w Frequency) DataRate {
	return DataRate(float64(s) * float64(w))
}

func (s SpectralEfficiency) String() string {
	return fmt.Sprintf("%.3g bps/Hz", float64(s))
}

// Power is an instantaneous power draw in watts.
type Power float64

// Common power scales.
const (
	Kilowatt Power = 1e3
	Megawatt Power = 1e6
)

// Watts returns the power as a bare float64 in watts.
func (p Power) Watts() float64 { return float64(p) }

func (p Power) String() string {
	switch {
	case p >= Megawatt:
		return fmt.Sprintf("%.3g MW", float64(p)/1e6)
	case p >= Kilowatt:
		return fmt.Sprintf("%.3g kW", float64(p)/1e3)
	default:
		return fmt.Sprintf("%.3g W", float64(p))
	}
}

// Energy is an amount of energy in joules.
type Energy float64

// MegawattHours converts the energy to MWh (1 MWh = 3.6e9 J).
func (e Energy) MegawattHours() float64 { return float64(e) / 3.6e9 }

// Over returns the energy consumed by drawing power p for d seconds.
func Over(p Power, d Seconds) Energy { return Energy(float64(p) * float64(d)) }

// Price is an electricity price in dollars per megawatt-hour, the unit used
// by the NYISO day-ahead/real-time markets the paper draws prices from.
type Price float64

// PerMWh returns the price as a bare float64 in $/MWh.
func (p Price) PerMWh() float64 { return float64(p) }

// Cost returns the dollar cost of energy e at this price.
func (p Price) Cost(e Energy) Money {
	return Money(float64(p) * e.MegawattHours())
}

func (p Price) String() string { return fmt.Sprintf("$%.2f/MWh", float64(p)) }

// Money is a dollar amount.
type Money float64

// Dollars returns the amount as a bare float64 in dollars.
func (m Money) Dollars() float64 { return float64(m) }

func (m Money) String() string { return fmt.Sprintf("$%.4f", float64(m)) }

// Seconds is a duration in seconds, used for latencies and slot lengths.
// (The simulator's time axis is slot-indexed; time.Duration's nanosecond
// integer resolution is a poor fit for the continuous latencies produced by
// the closed-form expressions, so latencies stay in float seconds.)
type Seconds float64

// Value returns the duration as a bare float64 in seconds.
func (s Seconds) Value() float64 { return float64(s) }

func (s Seconds) String() string {
	switch {
	case s >= 1:
		return fmt.Sprintf("%.3g s", float64(s))
	case s >= 1e-3:
		return fmt.Sprintf("%.3g ms", float64(s)*1e3)
	default:
		return fmt.Sprintf("%.3g µs", float64(s)*1e6)
	}
}

// TransmitTime returns the time to move d bits at rate r. Moving nothing
// takes no time even over a dead link; a positive payload over a zero
// rate returns +Inf so callers can treat unreachable links uniformly.
func TransmitTime(d DataSize, r DataRate) Seconds {
	if d <= 0 {
		return 0
	}
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(d) / float64(r))
}

// ProcessTime returns the time to execute f cycles at frequency w. Zero
// work completes instantly; positive work at zero frequency returns +Inf.
func ProcessTime(f Cycles, w Frequency) Seconds {
	if f <= 0 {
		return 0
	}
	if w <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(f) / float64(w))
}
