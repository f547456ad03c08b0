package experiments

import (
	"fmt"
	"time"

	"eotora/internal/game"
	"eotora/internal/rng"
	"eotora/internal/solver"
)

// P2ASweepConfig parameterizes the Figure 4/5 single-slot P2-A comparison.
type P2ASweepConfig struct {
	// DeviceCounts is the I sweep (paper: 80, 90, ..., 120).
	DeviceCounts []int
	// Seed controls scenario generation and solver randomness.
	Seed int64
	// ROPTDraws averages the random baseline over several draws (its
	// variance is high); 0 selects 5.
	ROPTDraws int
	// MCBAIterations caps the MCMC baseline (0 = its default).
	MCBAIterations int
	// BnBMaxNodes and BnBTimeLimit budget the exact baseline per
	// instance; zero values mean unlimited (may be very slow at I ≥ 80).
	BnBMaxNodes  int
	BnBTimeLimit time.Duration
}

// DefaultP2ASweepConfig reproduces the paper's sweep with a bounded
// branch-and-bound budget standing in for Gurobi.
func DefaultP2ASweepConfig() P2ASweepConfig {
	return P2ASweepConfig{
		DeviceCounts: []int{80, 90, 100, 110, 120},
		Seed:         1,
		ROPTDraws:    5,
		BnBMaxNodes:  2_000_000,
		BnBTimeLimit: 30 * time.Second,
	}
}

// QuickP2ASweepConfig is a reduced sweep for tests and benches.
func QuickP2ASweepConfig() P2ASweepConfig {
	return P2ASweepConfig{
		DeviceCounts: []int{10, 14, 18},
		Seed:         1,
		ROPTDraws:    3,
		BnBMaxNodes:  50_000,
		BnBTimeLimit: 2 * time.Second,
	}
}

// P2APoint is the measurement at one device count.
type P2APoint struct {
	Devices int
	// Objective maps algorithm name → P2-A objective (reduced latency).
	Objective map[string]float64
	// Elapsed maps algorithm name → solve wall time.
	Elapsed map[string]time.Duration
	// OptProven is true when branch-and-bound exhausted the space.
	OptProven bool
	// OptGap is the relative bound gap of the exact baseline.
	OptGap float64
	// CGBAIterations counts CGBA's best-response steps.
	CGBAIterations int
}

// P2ASweep runs the Figure 4/5 measurement: one slot's P2-A instance per
// device count, solved by CGBA(0), MCBA, ROPT, and branch-and-bound, all
// at Ω = Ω^L as in the P2-A formulation.
func P2ASweep(cfg P2ASweepConfig) ([]P2APoint, error) {
	if len(cfg.DeviceCounts) == 0 {
		return nil, fmt.Errorf("experiments: empty device sweep")
	}
	draws := cfg.ROPTDraws
	if draws <= 0 {
		draws = 5
	}
	points := make([]P2APoint, 0, len(cfg.DeviceCounts))
	for _, devices := range cfg.DeviceCounts {
		sc, err := NewScenario(ScenarioOptions{Devices: devices}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		gen, err := sc.DefaultGenerator()
		if err != nil {
			return nil, err
		}
		st := gen.Next()
		p2a, err := sc.Sys.NewP2A(st, sc.Sys.LowestFrequencies())
		if err != nil {
			return nil, err
		}

		point := P2APoint{
			Devices:   devices,
			Objective: make(map[string]float64, 4),
			Elapsed:   make(map[string]time.Duration, 4),
		}
		src := rng.New(cfg.Seed).Derive(fmt.Sprintf("p2a-%d", devices))

		// CGBA(0). The figures characterize Algorithm 3 itself (objective
		// and step count against the baselines), so they pin the
		// paper-faithful exact loop rather than the default sweep loop.
		start := time.Now()
		cgbaRes, err := game.CGBA(p2a.Game(), game.CGBAConfig{Exact: true}, src.Derive("cgba"))
		if err != nil {
			return nil, fmt.Errorf("experiments: CGBA at I=%d: %w", devices, err)
		}
		point.Elapsed["CGBA"] = time.Since(start)
		point.Objective["CGBA"] = cgbaRes.Objective
		point.CGBAIterations = cgbaRes.Iterations

		// MCBA.
		start = time.Now()
		mcbaRes, err := game.MCBA(p2a.Game(), game.MCBAConfig{Iterations: cfg.MCBAIterations}, src.Derive("mcba"))
		if err != nil {
			return nil, fmt.Errorf("experiments: MCBA at I=%d: %w", devices, err)
		}
		point.Elapsed["MCBA"] = time.Since(start)
		point.Objective["MCBA"] = mcbaRes.Objective

		// ROPT, averaged over draws.
		start = time.Now()
		roptSum := 0.0
		roptSrc := src.Derive("ropt")
		for d := 0; d < draws; d++ {
			roptSum += game.RandomProfile(p2a.Game(), roptSrc).Objective
		}
		point.Elapsed["ROPT"] = time.Since(start) / time.Duration(draws)
		point.Objective["ROPT"] = roptSum / float64(draws)

		// Exact baseline (Gurobi stand-in): branch-and-bound warm-started
		// with this sweep's CGBA incumbent, so OPT ≤ CGBA even when the
		// node budget truncates the search.
		start = time.Now()
		optRes, bnb, err := game.Optimal(p2a.Game(), solver.BnBConfig{
			MaxNodes:      cfg.BnBMaxNodes,
			TimeLimit:     cfg.BnBTimeLimit,
			Incumbent:     solver.Assignment(cgbaRes.Profile),
			IncumbentCost: cgbaRes.Objective,
		}, src.Derive("opt"))
		if err != nil {
			return nil, fmt.Errorf("experiments: OPT at I=%d: %w", devices, err)
		}
		point.Elapsed["OPT"] = time.Since(start)
		point.Objective["OPT"] = optRes.Objective
		point.OptProven = bnb.Optimal
		// The true optimum is lower-bounded both by the B&B bound and by
		// Theorem 2 (CGBA ≤ 2.62·OPT ⇒ OPT ≥ CGBA/2.62); report the gap
		// against the tighter of the two.
		lb := bnb.Bound
		if thm2 := cgbaRes.Objective / 2.62; thm2 > lb {
			lb = thm2
		}
		if lb > 0 && !bnb.Optimal {
			point.OptGap = (optRes.Objective - lb) / lb
		}

		points = append(points, point)
	}
	return points, nil
}

var p2aAlgorithms = []string{"CGBA", "MCBA", "ROPT", "OPT"}

// Fig4 regenerates Figure 4: the P2-A objective value per algorithm as the
// device count grows.
func Fig4(cfg P2ASweepConfig) (*Figure, error) {
	points, err := P2ASweep(cfg)
	if err != nil {
		return nil, err
	}
	return Fig4FromSweep(points), nil
}

// Fig4FromSweep draws Figure 4 from a P2ASweep's points, so Figures 4 and
// 5 can share one sweep (Fig5FromSweep).
func Fig4FromSweep(points []P2APoint) *Figure {
	fig := &Figure{
		ID:     "fig4",
		Title:  "P2-A objective: CGBA(0) vs MCBA vs ROPT vs branch-and-bound optimum",
		XLabel: "devices I",
		YLabel: "P2-A objective (total latency at Ω^L) [s]",
	}
	for _, alg := range p2aAlgorithms {
		xs := make([]float64, len(points))
		ys := make([]float64, len(points))
		for i, p := range points {
			xs[i] = float64(p.Devices)
			ys[i] = p.Objective[alg]
		}
		fig.AddSeries(alg, xs, ys)
	}
	for _, p := range points {
		ratio := p.Objective["CGBA"] / p.Objective["OPT"]
		status := "proven optimal"
		if !p.OptProven {
			status = fmt.Sprintf("best known under B&B budget; certified gap ≤ %.0f%% via Theorem 2", 100*p.OptGap)
		}
		fig.AddNote("I=%d: CGBA/OPT = %.4f (%s)", p.Devices, ratio, status)
	}
	return fig
}

// Fig5 regenerates Figure 5: per-algorithm wall-clock solve time over the
// same sweep.
func Fig5(cfg P2ASweepConfig) (*Figure, error) {
	points, err := P2ASweep(cfg)
	if err != nil {
		return nil, err
	}
	return Fig5FromSweep(points), nil
}

// Fig5FromSweep draws Figure 5 from a non-empty P2ASweep's points.
func Fig5FromSweep(points []P2APoint) *Figure {
	fig := &Figure{
		ID:     "fig5",
		Title:  "P2-A solve time: CGBA vs MCBA vs ROPT vs branch-and-bound",
		XLabel: "devices I",
		YLabel: "wall time [ms]",
	}
	for _, alg := range p2aAlgorithms {
		xs := make([]float64, len(points))
		ys := make([]float64, len(points))
		for i, p := range points {
			xs[i] = float64(p.Devices)
			ys[i] = float64(p.Elapsed[alg].Microseconds()) / 1e3
		}
		fig.AddSeries(alg, xs, ys)
	}
	last := points[len(points)-1]
	if cgba := last.Elapsed["CGBA"]; cgba > 0 {
		fig.AddNote("at I=%d: OPT/CGBA time ratio = %.0f×", last.Devices,
			float64(last.Elapsed["OPT"])/float64(cgba))
	}
	return fig
}

// Fig6Config parameterizes the CGBA(λ) tradeoff figure.
type Fig6Config struct {
	// Devices is I (paper: 100).
	Devices int
	// Lambdas is the λ sweep (paper: 0, 0.02, ..., 0.12).
	Lambdas []float64
	// Seed controls the scenario and the shared initial profile.
	Seed int64
}

// DefaultFig6Config mirrors the paper's sweep.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Devices: 100,
		Lambdas: []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12},
		Seed:    1,
	}
}

// QuickFig6Config is a reduced sweep for tests and benches.
func QuickFig6Config() Fig6Config {
	return Fig6Config{Devices: 20, Lambdas: []float64{0, 0.04, 0.08, 0.12}, Seed: 1}
}

// Fig6 regenerates Figure 6: CGBA(λ)'s objective and iteration count as λ
// grows, from a shared random initial profile.
func Fig6(cfg Fig6Config) (*Figure, error) {
	if cfg.Devices <= 0 || len(cfg.Lambdas) == 0 {
		return nil, fmt.Errorf("experiments: fig6 needs devices and lambdas")
	}
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := sc.DefaultGenerator()
	if err != nil {
		return nil, err
	}
	st := gen.Next()
	p2a, err := sc.Sys.NewP2A(st, sc.Sys.LowestFrequencies())
	if err != nil {
		return nil, err
	}
	g := p2a.Game()
	initSrc := rng.New(cfg.Seed).Derive("fig6-init")
	initial := make(game.Profile, g.Players())
	for i := range initial {
		initial[i] = initSrc.Intn(g.StrategyCount(i))
	}

	xs := make([]float64, len(cfg.Lambdas))
	objective := make([]float64, len(cfg.Lambdas))
	iterations := make([]float64, len(cfg.Lambdas))
	for li, lambda := range cfg.Lambdas {
		// The figure characterizes Algorithm 3's λ tradeoff (its iteration
		// count in particular), so it pins the paper-faithful exact path —
		// the sweep loop has different step dynamics from the one it plots.
		res, err := game.CGBA(g, game.CGBAConfig{Lambda: lambda, Initial: initial, Exact: true}, rng.New(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("experiments: CGBA(λ=%v): %w", lambda, err)
		}
		xs[li] = lambda
		objective[li] = res.Objective
		iterations[li] = float64(res.Iterations)
	}

	fig := &Figure{
		ID:     "fig6",
		Title:  "CGBA(λ): objective and convergence iterations vs λ",
		XLabel: "λ",
		YLabel: "objective [s] / iterations",
	}
	fig.AddSeries("objective", xs, objective)
	fig.AddSeries("iterations", xs, iterations)
	fig.AddNote("Theorem 2 bound: approximation factor 2.62/(1−8λ), iterations O((1/λ)·log(Φ₀/Φ_min))")
	return fig, nil
}
