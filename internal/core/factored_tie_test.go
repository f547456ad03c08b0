package core

import (
	"fmt"
	"math"
	"testing"

	"eotora/internal/game"
	"eotora/internal/obs"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// nearTieSystem is a DefaultSpec system whose servers in one room differ
// only by ulps: each takes the cores and frequency range of its room's
// first server, and device i's suitability for the k-th server of a room
// is k ulps above its suitability for the first. A later server's
// compute term C = m·p·(load + p) is then a few ulps smaller than an
// earlier one's at equal load, and (C + A) + F often rounds the
// difference away: pairs of one station with distinct C terms and
// equal costs.
func nearTieSystem(t testing.TB, devices int, seed int64) (*System, *trace.Generator) {
	t.Helper()
	sys, gen := buildSpecSystem(t, topology.DefaultSpec(devices), seed)
	net := sys.Net
	first := map[int]int{} // room → its first server
	rank := make([]int, len(net.Servers))
	for n := range net.Servers {
		s := &net.Servers[n]
		f, ok := first[s.Room]
		if !ok {
			first[s.Room] = n
			continue
		}
		if net.Servers[n-1].Room != s.Room {
			t.Fatalf("room %d's servers are not contiguous", s.Room)
		}
		s.Cores, s.MinFreq, s.MaxFreq = net.Servers[f].Cores, net.Servers[f].MinFreq, net.Servers[f].MaxFreq
		rank[n] = rank[n-1] + 1
	}
	for _, row := range net.Suitability {
		for n := range row {
			if rank[n] == 0 {
				row[n] = min(row[n], 0.999) // room for the ulps above, within (0, 1]
				continue
			}
			row[n] = math.Nextafter(row[n-1], 1)
		}
	}
	return sys, gen
}

// streamGeneric streams the P2-A game of st at freq through game.New:
// the weights BuildP2A fills and p's game's uses in its order, every
// strategy through NextStrategy and AddUse, so no player gets a factor
// description and every best response takes the arena scan.
func streamGeneric(t *testing.T, sys *System, p *P2A, st *trace.State, freq Frequencies) *game.Game {
	t.Helper()
	g := p.Game()
	weights := make([]float64, g.Resources())
	sys.fillResourceWeights(weights, freq, st.CapScale)
	strategies := make([][][]game.Use, g.Players())
	for i := range strategies {
		for s := 0; s < g.StrategyCount(i); s++ {
			strategies[i] = append(strategies[i], g.StrategyUses(i, s))
		}
	}
	ref, err := game.New(weights, strategies)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// misleadingTies counts, at empty loads, the strategy pairs s < s' of one
// player on one station where s' has the smaller compute term but both
// cost the same: there the arena scan keeps s, and a factored scan that
// took the station's least-C server without its tie re-scan would pick
// s'. Every strategy is (server, access, fronthaul), BuildP2A's pair
// order.
func misleadingTies(g *game.Game, weights []float64) int {
	term := func(u game.Use) float64 { return float64(weights[u.Resource]*u.Weight) * u.Weight }
	ties := 0
	for i := 0; i < g.Players(); i++ {
		for s := 0; s < g.StrategyCount(i); s++ {
			a := g.StrategyUses(i, s)
			if len(a) != 3 {
				continue
			}
			costA := (term(a[0]) + term(a[1])) + term(a[2])
			for s2 := s + 1; s2 < g.StrategyCount(i); s2++ {
				b := g.StrategyUses(i, s2)
				if len(b) != 3 || b[1].Resource != a[1].Resource {
					break
				}
				if term(b[0]) < term(a[0]) && (term(b[0])+term(b[1]))+term(b[2]) == costA {
					ties++
				}
			}
		}
	}
	return ties
}

// TestFactoredScanNearTies: on P2-A games full of near-ties — same-room
// servers ulps apart, so distinct compute terms round to equal pair
// costs — the default CGBA solve and the greedy rule's profile equal
// those of the same game streamed without factor descriptions, bit for
// bit, at both frequency points and λ = 0 and 0.05. The factored game
// must read fewer scan terms (its players are factored) and the games
// must hold ties the factored scan's re-scan has to break.
func TestFactoredScanNearTies(t *testing.T) {
	sys, gen := nearTieSystem(t, 300, 29)
	p := new(P2A)
	ties := 0
	for slot := 0; slot < 3; slot++ {
		st := gen.Next()
		for _, freq := range []Frequencies{sys.LowestFrequencies(), sys.HighestFrequencies()} {
			if err := sys.BuildP2A(p, st, freq); err != nil {
				t.Fatal(err)
			}
			ref := streamGeneric(t, sys, p, st, freq)
			weights := make([]float64, ref.Resources())
			sys.fillResourceWeights(weights, freq, st.CapScale)
			ties += misleadingTies(ref, weights)

			label := fmt.Sprintf("slot %d Ω=%v", slot, freq[0])
			requireSameGameResult(t, label+" greedy", game.GreedyProfile(p.Game()), game.GreedyProfile(ref))
			for _, lambda := range []float64{0, 0.05} {
				reg := obs.New()
				p.SetInstruments(game.Instruments{ScanTerms: reg.Counter("factored")})
				got, err := CGBASolver{Lambda: lambda}.Solve(p, rng.New(int64(slot)))
				if err != nil {
					t.Fatal(err)
				}
				e := game.NewEngine(ref)
				e.SetInstruments(game.Instruments{ScanTerms: reg.Counter("generic")})
				want, err := e.CGBA(game.CGBAConfig{Lambda: lambda}, rng.New(int64(slot)))
				if err != nil {
					t.Fatal(err)
				}
				requireSameGameResult(t, fmt.Sprintf("%s λ=%v CGBA", label, lambda), got, want)
				if f, g := reg.Counter("factored").Value(), reg.Counter("generic").Value(); f >= g {
					t.Fatalf("%s λ=%v: factored game read %d scan terms, generic %d: no player is factored", label, lambda, f, g)
				}
			}
		}
	}
	p.SetInstruments(game.Instruments{})
	if ties == 0 {
		t.Fatal("no misleading near-tie in any game: the system does not exercise the tie re-scan")
	}
	t.Logf("%d misleading near-ties at empty loads", ties)
}

// requireSameGameResult fails unless two solves agree on the profile,
// the objective's bits and the iteration count.
func requireSameGameResult(t *testing.T, label string, got, want game.Result) {
	t.Helper()
	if fmt.Sprint(got.Profile) != fmt.Sprint(want.Profile) {
		t.Fatalf("%s: profiles differ:\n got %v\nwant %v", label, got.Profile, want.Profile)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || got.Iterations != want.Iterations {
		t.Fatalf("%s: objective %v after %d iterations, want %v after %d",
			label, got.Objective, got.Iterations, want.Objective, want.Iterations)
	}
}
