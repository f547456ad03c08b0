package core

import (
	"math"
	"sync"

	"eotora/internal/trace"
	"eotora/internal/units"
)

// OptimalAllocation computes the closed-form optimal resource shares of
// Lemma 1 (equations (15)–(17)): square-root-proportional fair shares of
// each station's access and fronthaul bandwidth and each server's
// computing capability among the devices that selected them.
//
// The selection must already be valid; the shares of devices sharing a
// resource sum to exactly 1, which saturates constraints (4)–(6) as the
// KKT conditions require.
func (s *System) OptimalAllocation(sel Selection, st *trace.State) Allocation {
	devices := len(sel.Station)
	a := Allocation{
		AccessShare:    make([]float64, devices),
		FronthaulShare: make([]float64, devices),
		ComputeShare:   make([]float64, devices),
	}
	sc := borrowSums(len(s.Net.Servers) + 2*len(s.Net.BaseStations))
	defer sc.release()
	computeDen, accessDen, fronthaulDen := s.splitSums(s.lemma1Sums(sc.sums, sel, st))
	for i := 0; i < devices; i++ {
		k, n := sel.Station[i], sel.Server[i]
		if k < 0 {
			// Inactive device: zero shares.
			continue
		}
		if accessDen[k] > 0 {
			a.AccessShare[i] = math.Sqrt(st.DataLengths[i].Bits()/st.Channel(i, k).BpsPerHz()) / accessDen[k]
		}
		if fronthaulDen[k] > 0 {
			a.FronthaulShare[i] = math.Sqrt(st.DataLengths[i].Bits()/st.FronthaulSE[k].BpsPerHz()) / fronthaulDen[k]
		}
		if computeDen[n] > 0 {
			a.ComputeShare[i] = math.Sqrt(st.TaskSizes[i].Count()/s.Net.Suitability[i][n]) / computeDen[n]
		}
	}
	return a
}

// lemma1Sums accumulates the Lemma-1 denominators of a selection into
// sums, zeroed and sized N+2K, and returns it. The order is the P2-A
// game's resource order (see fillResourceWeights): Σ_{i→n} √(f_i/σ_{i,n})
// per server, then Σ_{i→k} √(d_i/h_{i,k}) and Σ_{i→k} √(d_i/h^F_k) per
// station. They are the game's loads p_r(z) under the selection's
// profile, and each sum adds its devices in ascending order, as the
// game's player order does.
func (s *System) lemma1Sums(sums []float64, sel Selection, st *trace.State) []float64 {
	compute, access, fronthaul := s.splitSums(sums)
	for i := range sel.Station {
		k, n := sel.Station[i], sel.Server[i]
		if k < 0 || n < 0 {
			// Inactive device: no resource demand.
			continue
		}
		access[k] += math.Sqrt(st.DataLengths[i].Bits() / st.Channel(i, k).BpsPerHz())
		fronthaul[k] += math.Sqrt(st.DataLengths[i].Bits() / st.FronthaulSE[k].BpsPerHz())
		compute[n] += math.Sqrt(st.TaskSizes[i].Count() / s.Net.Suitability[i][n])
	}
	return sums
}

// sumsScratch is a pooled buffer for the sums of the state-priced entry
// points (ReducedLatency, OptimalAllocation, SolveP2B), which the
// baselines call every slot; pooling keeps those calls allocation-free.
type sumsScratch struct{ sums []float64 }

var sumsPool = sync.Pool{New: func() any { return new(sumsScratch) }}

// borrowSums returns pooled scratch holding n zeroed sums. Callers must
// release it when done and must not retain the slice afterwards.
func borrowSums(n int) *sumsScratch {
	sc := sumsPool.Get().(*sumsScratch)
	if cap(sc.sums) < n {
		sc.sums = make([]float64, n)
	}
	sc.sums = sc.sums[:n]
	clear(sc.sums)
	return sc
}

func (sc *sumsScratch) release() { sumsPool.Put(sc) }

// splitSums views resource-ordered Lemma-1 sums (or P2-A game loads) as
// their per-server compute, per-station access, and per-station
// fronthaul parts.
func (s *System) splitSums(sums []float64) (compute, access, fronthaul []float64) {
	servers, stations := len(s.Net.Servers), len(s.Net.BaseStations)
	return sums[:servers], sums[servers : servers+stations], sums[servers+stations:]
}

// LatencyBreakdown itemizes one device's slot latency.
type LatencyBreakdown struct {
	// Access is L^{C,A}_i: upload time over the cellular access link.
	Access units.Seconds
	// Fronthaul is L^{C,F}_i: forwarding time over the fronthaul link.
	Fronthaul units.Seconds
	// Processing is L^P_i: execution time on the selected server.
	Processing units.Seconds
}

// Total returns the device's full latency.
func (l LatencyBreakdown) Total() units.Seconds {
	return l.Access + l.Fronthaul + l.Processing
}

// LatencyOf evaluates the overall latency L_t(α_t, β_t) of equations
// (7)–(11) under an arbitrary (not necessarily optimal) allocation. A zero
// share yields an infinite component, matching the formulation's implicit
// requirement that selected devices receive positive shares.
func (s *System) LatencyOf(d Decision, st *trace.State) (total units.Seconds, perDevice []LatencyBreakdown) {
	devices := len(d.Station)
	perDevice = make([]LatencyBreakdown, devices)
	for i := 0; i < devices; i++ {
		k, n := d.Station[i], d.Server[i]
		if k < 0 {
			// Inactive device: contributes zero latency.
			continue
		}
		bs := &s.Net.BaseStations[k]
		srv := &s.Net.Servers[n]

		accessRate := st.Channel(i, k).Rate(units.Frequency(float64(bs.AccessBandwidth) * d.AccessShare[i]))
		fronthaulRate := st.FronthaulSE[k].Rate(units.Frequency(float64(bs.FronthaulBandwidth) * d.FronthaulShare[i]))
		capacity := srv.Capacity(d.Freq[n])
		effective := units.Frequency(float64(capacity) * st.Cap(n) * s.Net.Suitability[i][n] * d.ComputeShare[i])

		perDevice[i] = LatencyBreakdown{
			Access:     units.TransmitTime(st.DataLengths[i], accessRate),
			Fronthaul:  units.TransmitTime(st.DataLengths[i], fronthaulRate),
			Processing: units.ProcessTime(st.TaskSizes[i], effective),
		}
		total += perDevice[i].Total()
	}
	return total, perDevice
}

// ReducedLatency evaluates T_t(x, y, Ω, β) of equation (20): the overall
// latency under the Lemma-1 optimal allocation, computed directly from the
// closed forms (18) and (19) without materializing the shares:
//
//	T^P = Σ_n (Σ_{i→n} √(f_i/σ_{i,n}))² / ω_n
//	T^C = Σ_k (Σ_{i→k} √(d_i/h_{i,k}))² / W^A_k
//	    + Σ_k (Σ_{i→k} √(d_i/h^F_k))² / W^F_k
//
// where ω_n is the server's aggregate capacity at its per-core frequency.
func (s *System) ReducedLatency(sel Selection, freq Frequencies, st *trace.State) units.Seconds {
	sc := borrowSums(len(s.Net.Servers) + 2*len(s.Net.BaseStations))
	defer sc.release()
	return units.Seconds(s.lemma1Latency(s.lemma1Sums(sc.sums, sel, st), freq, st))
}

// lemma1Latency reduces resource-ordered Lemma-1 sums to T_t of equation
// (20): Σ sum²/bandwidth over the stations, then over the servers, in
// resource order. BDMA rounds call it on the P2-A game's loads,
// ReducedLatency on sums recomputed from the state; equal sums give
// equal bits.
func (s *System) lemma1Latency(sums []float64, freq Frequencies, st *trace.State) float64 {
	compute, access, fronthaul := s.splitSums(sums)
	total := 0.0
	for k, bs := range s.Net.BaseStations {
		total += access[k] * access[k] / bs.AccessBandwidth.Hertz()
		total += fronthaul[k] * fronthaul[k] / bs.FronthaulBandwidth.Hertz()
	}
	for n := range s.Net.Servers {
		if compute[n] == 0 {
			continue
		}
		total += compute[n] * compute[n] / (s.Net.Servers[n].Capacity(freq[n]).Hertz() * st.Cap(n))
	}
	return total
}

// EnergyCost evaluates C_t(Ω_t, p_t) of equation (13): the slot's total
// energy cost across servers at the given per-core frequencies and price.
func (s *System) EnergyCost(freq Frequencies, price units.Price) units.Money {
	return s.EnergyCostActive(freq, price, nil)
}

// EnergyCostActive is EnergyCost restricted to the servers present in the
// population mask; structurally removed servers draw no power. A nil mask
// means the full population.
func (s *System) EnergyCostActive(freq Frequencies, price units.Price, active []bool) units.Money {
	total := units.Money(0)
	for n := range s.Net.Servers {
		if active != nil && !active[n] {
			continue
		}
		total += s.serverCost(n, freq[n], price)
	}
	return total
}

// serverCost is server n's slot energy cost at per-core frequency w: all
// its cores at g_n(w) for one slot, at the given price.
func (s *System) serverCost(n int, w units.Frequency, price units.Price) units.Money {
	e := units.Over(
		units.Power(s.Energy[n].Power(w).Watts()*float64(s.Net.Servers[n].Cores)),
		units.Seconds(s.SlotSeconds),
	)
	return price.Cost(e)
}

// ThetaActive evaluates θ(t) = C_t − C̄, the slot's budget violation,
// over the servers in the population mask (nil = all).
func (s *System) ThetaActive(freq Frequencies, price units.Price, active []bool) float64 {
	return float64(s.EnergyCostActive(freq, price, active) - s.Budget)
}
