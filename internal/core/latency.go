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

// selectionPricing is a controller's scratch for the one-pass pricing of
// a selection that is not a profile of the slot's P2-A game: a rule's, or
// a fallback rung's (priceSelection). se keeps each device's chosen link
// h_{i,k}, and sums the resource-ordered Lemma-1 sums (see lemma1Sums).
// roots holds each device's Lemma-1 roots √(d_i/h_{i,k}), √(d_i/h^F_k)
// and √(f_i/σ_{i,n}) in the slices the slot's allocation will use, and
// shares divides them in place. Entries of inactive devices are stale in
// se and zero in roots.
type selectionPricing struct {
	roots Allocation
	se    []units.SpectralEfficiency
	sums  []float64
}

// priceSelection validates sel against st and prices it in one pass over
// the devices. Each device's pick runs Validate's checks, in its order
// and with its error text, which find the chosen link once; the pass
// then takes the pick's three square roots once, keeps them and the
// link's h_{i,k} in pr, and adds the roots to pr.sums in device order.
// The sums are lemma1Sums', the shares OptimalAllocation's and a latency
// evaluated on pr.se LatencyOf's on st, bit for bit.
func (s *System) priceSelection(pr *selectionPricing, sel Selection, st *trace.State) error {
	if err := s.checkSelectionSize(sel); err != nil {
		return err
	}
	devices := len(sel.Station)
	pr.roots = Allocation{
		AccessShare:    make([]float64, devices),
		FronthaulShare: make([]float64, devices),
		ComputeShare:   make([]float64, devices),
	}
	pr.se = resized(pr.se, devices)
	pr.sums = resized(pr.sums, len(s.Net.Servers)+2*len(s.Net.BaseStations))
	clear(pr.sums)
	compute, access, fronthaul := s.splitSums(pr.sums)
	for i := 0; i < devices; i++ {
		k, n := sel.Station[i], sel.Server[i]
		se, err := s.checkPick(i, k, n, st)
		if err != nil {
			return err
		}
		if k < 0 {
			// Inactive device: no resource demand.
			continue
		}
		bits := st.DataLengths[i].Bits()
		a := math.Sqrt(bits / se.BpsPerHz())
		f := math.Sqrt(bits / st.FronthaulSE[k].BpsPerHz())
		c := math.Sqrt(st.TaskSizes[i].Count() / s.Net.Suitability[i][n])
		pr.roots.AccessShare[i], pr.roots.FronthaulShare[i], pr.roots.ComputeShare[i] = a, f, c
		pr.se[i] = se
		access[k] += a
		fronthaul[k] += f
		compute[n] += c
	}
	return nil
}

// shares turns the roots priceSelection kept for sel into the Lemma-1
// shares (15)–(17), each root over its resource's sum as
// OptimalAllocation divides them, and hands the allocation over: pr
// keeps no reference to it.
func (s *System) shares(pr *selectionPricing, sel Selection) Allocation {
	a := pr.roots
	pr.roots = Allocation{}
	computeDen, accessDen, fronthaulDen := s.splitSums(pr.sums)
	for i, k := range sel.Station {
		if k < 0 {
			continue
		}
		n := sel.Server[i]
		a.AccessShare[i] = lemma1Share(a.AccessShare[i], accessDen[k])
		a.FronthaulShare[i] = lemma1Share(a.FronthaulShare[i], fronthaulDen[k])
		a.ComputeShare[i] = lemma1Share(a.ComputeShare[i], computeDen[n])
	}
	return a
}

// lemma1Share is a Lemma-1 share: root/den, or 0 when the resource
// carries no load.
func lemma1Share(root, den float64) float64 {
	if den > 0 {
		return root / den
	}
	return 0
}

// resized returns s with length n, reusing its capacity when it suffices.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sumsScratch is a pooled buffer for the sums of the state-priced entry
// points (ReducedLatency, OptimalAllocation, SolveP2B), which the
// benchmark's layer probes call every slot; pooling keeps those calls
// allocation-free.
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
	return s.latencyOf(d, st, nil)
}

// latencyOf is LatencyOf with each selected link's h_{i,k} read from se
// when it is non-nil (priceSelection's kept values for st), and looked up
// in the device's channel row otherwise.
func (s *System) latencyOf(d Decision, st *trace.State, se []units.SpectralEfficiency) (total units.Seconds, perDevice []LatencyBreakdown) {
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

		var h units.SpectralEfficiency
		if se != nil {
			h = se[i]
		} else {
			h = st.Channel(i, k)
		}
		accessRate := h.Rate(units.Frequency(float64(bs.AccessBandwidth) * d.AccessShare[i]))
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
