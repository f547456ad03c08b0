package game

import (
	"fmt"
	"testing"

	"eotora/internal/rng"
	"eotora/internal/solver"
)

func benchGame(b *testing.B, players int) *Game {
	b.Helper()
	return randomGame(b, rng.New(1), players, 24, players/4+6)
}

func BenchmarkCGBA(b *testing.B) {
	for _, players := range []int{25, 50, 100} {
		b.Run(fmt.Sprintf("players=%d", players), func(b *testing.B) {
			g := benchGame(b, players)
			src := rng.New(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CGBA(g, CGBAConfig{}, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineCGBA measures the BDMA-round reuse pattern: one Engine
// solving the same game repeatedly, so per-call allocations amortize to
// just the Result profile clone.
func BenchmarkEngineCGBA(b *testing.B) {
	for _, players := range []int{25, 50, 100, 300} {
		b.Run(fmt.Sprintf("players=%d", players), func(b *testing.B) {
			g := benchGame(b, players)
			e := NewEngine(g)
			src := rng.New(2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.CGBA(CGBAConfig{}, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCGBAPivotRules(b *testing.B) {
	g := benchGame(b, 50)
	for _, pivot := range []PivotRule{PivotMaxImprovement, PivotRoundRobin, PivotRandom} {
		b.Run(pivot.String(), func(b *testing.B) {
			src := rng.New(3)
			for i := 0; i < b.N; i++ {
				if _, err := CGBA(g, CGBAConfig{Pivot: pivot}, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMCBA(b *testing.B) {
	g := benchGame(b, 50)
	src := rng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MCBA(g, MCBAConfig{}, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomProfile(b *testing.B) {
	g := benchGame(b, 100)
	src := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RandomProfile(g, src)
	}
}

func BenchmarkSocialCost(b *testing.B) {
	g := benchGame(b, 100)
	p := RandomProfile(g, rng.New(6)).Profile
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SocialCost(p)
	}
}

func BenchmarkOptimalSmall(b *testing.B) {
	// Exact branch-and-bound on an instance it can finish.
	g := randomGame(b, rng.New(7), 8, 4, 6)
	src := rng.New(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Optimal(g, solver.BnBConfig{}, src); err != nil {
			b.Fatal(err)
		}
	}
}
