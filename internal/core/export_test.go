package core

import (
	"fmt"

	"eotora/internal/rng"
	"eotora/internal/trace"
)

// BDMA runs Algorithm 2 (bdmaScratch) once, without scratch, instruments,
// pool or deadline, under the paper's single global budget with backlog q.
func (s *System) BDMA(st *trace.State, v, q float64, cfg BDMAConfig, src *rng.Source) (BDMAResult, error) {
	return s.bdmaScratch(st, v, s.globalBudget(q), cfg, src, nil, solveInstr{}, nil, nil)
}

// ApproxRatio returns the R of Theorem 3 for this system and λ:
// R = 2.62·R_F/(1−8λ), with R_F the largest frequency-range ratio.
func (s *System) ApproxRatio(lambda float64) (float64, error) {
	if lambda < 0 || lambda >= 0.125 {
		return 0, fmt.Errorf("core: λ = %v outside [0, 0.125)", lambda)
	}
	rf := 0.0
	for n := range s.Net.Servers {
		r := float64(s.Net.Servers[n].MaxFreq) / float64(s.Net.Servers[n].MinFreq)
		if r > rf {
			rf = r
		}
	}
	return 2.62 * rf / (1 - 8*lambda), nil
}

// arenaWeights returns the resource weights m_r of p's game, read from
// the builder that owns its arena.
func (p *P2A) arenaWeights() []float64 { return p.builder.Weights() }
