package experiments

import (
	"fmt"
	"time"

	"eotora/internal/core"
	"eotora/internal/game"
	"eotora/internal/rng"
	"eotora/internal/sim"
	"eotora/internal/solver"
	"eotora/internal/trace"
	"eotora/internal/units"
)

// AblationConfig parameterizes the design-choice studies of DESIGN.md §5.
type AblationConfig struct {
	Devices       int
	Slots, Warmup int
	V             float64
	Seed          int64
}

// DefaultAblationConfig mirrors the paper's scale.
func DefaultAblationConfig() AblationConfig {
	return AblationConfig{Devices: 100, Slots: 240, Warmup: 48, V: 100, Seed: 1}
}

// QuickAblationConfig is a reduced setting for tests and benches.
func QuickAblationConfig() AblationConfig {
	return AblationConfig{Devices: 12, Slots: 72, Warmup: 24, V: 100, Seed: 1}
}

// AblationBDMAZ sweeps BDMA's alternation count z (the paper fixes z = 5):
// average latency and decision time per z.
func AblationBDMAZ(cfg AblationConfig, zs []int) (*Figure, error) {
	if len(zs) == 0 {
		zs = []int{1, 2, 5, 10}
	}
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(zs))
	latency := make([]float64, len(zs))
	decisionMS := make([]float64, len(zs))
	for i, z := range zs {
		gen, err := sc.DefaultGenerator()
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewBDMAController(sc.Sys, cfg.V, z, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m, err := sim.Run(ctrl, gen, sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup})
		if err != nil {
			return nil, err
		}
		xs[i] = float64(z)
		latency[i] = m.AvgLatency()
		decisionMS[i] = float64(m.AvgDecisionTime().Microseconds()) / 1e3
	}
	fig := &Figure{
		ID:     "ablation-bdma-z",
		Title:  "BDMA alternation count z: latency vs decision time",
		XLabel: "z",
		YLabel: "latency [s] / decision time [ms]",
	}
	fig.AddSeries("avg latency", xs, latency)
	fig.AddSeries("decision time", xs, decisionMS)
	fig.AddNote("paper fixes z = 5 for Figures 7–9; diminishing returns expected past small z")
	return fig, nil
}

// AblationP2BSolver compares the separable per-server golden-section
// P2-B solver against a joint coordinate-descent solve on the same
// instances: objective difference and wall time.
func AblationP2BSolver(cfg AblationConfig) (*Figure, error) {
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := sc.DefaultGenerator()
	if err != nil {
		return nil, err
	}
	sys := sc.Sys
	const q = 50.0
	instances := 8
	xs := make([]float64, instances)
	sepObj := make([]float64, instances)
	jointObj := make([]float64, instances)
	var sepTime, jointTime time.Duration
	for inst := 0; inst < instances; inst++ {
		st := gen.Next()
		p2a, err := sys.NewP2A(st, sys.LowestFrequencies())
		if err != nil {
			return nil, err
		}
		res, err := (core.CGBASolver{}).Solve(p2a, rng.New(cfg.Seed).Derive(fmt.Sprintf("p2b-ablation-%d", inst)))
		if err != nil {
			return nil, err
		}
		sel := p2a.Selection(res.Profile)

		start := time.Now()
		freq, err := sys.SolveP2B(sel, st, cfg.V, q)
		if err != nil {
			return nil, err
		}
		sepTime += time.Since(start)
		sepObj[inst] = sys.P2Objective(sel, freq, st, cfg.V, q)

		// Joint coordinate descent over the full frequency box.
		start = time.Now()
		lo := make([]float64, len(sys.Net.Servers))
		hi := make([]float64, len(sys.Net.Servers))
		for n := range lo {
			lo[n] = sys.Net.Servers[n].MinFreq.Hertz()
			hi[n] = sys.Net.Servers[n].MaxFreq.Hertz()
		}
		obj := func(w []float64) float64 {
			f := make(core.Frequencies, len(w))
			for n := range w {
				f[n] = units.Frequency(w[n])
			}
			return sys.P2Objective(sel, f, st, cfg.V, q)
		}
		_, jObj, err := solver.CoordinateDescent(obj, lo, hi, 8, 1e-10)
		if err != nil {
			return nil, err
		}
		jointTime += time.Since(start)
		jointObj[inst] = jObj
		xs[inst] = float64(inst + 1)
	}
	fig := &Figure{
		ID:     "ablation-p2b",
		Title:  "P2-B: separable golden-section vs joint coordinate descent",
		XLabel: "instance",
		YLabel: "P2 objective",
	}
	fig.AddSeries("separable", xs, sepObj)
	fig.AddSeries("joint CD", xs, jointObj)
	fig.AddNote("wall time: separable %v total, joint %v total over %d instances",
		sepTime.Round(time.Microsecond), jointTime.Round(time.Microsecond), instances)
	fig.AddNote("P2-B is separable, so both must agree; the separable solve should be much faster")
	return fig, nil
}

// AblationIID compares the controller under the paper's non-iid periodic
// states against iid states (period D = 1): backlog dynamics and average
// latency. Theorem 4's bound carries a B·D/V term, so iid states (D = 1)
// admit tighter convergence.
func AblationIID(cfg AblationConfig) (*Figure, error) {
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-iid",
		Title:  "Non-iid (periodic) vs iid system states under BDMA-based DPP",
		XLabel: "slot t",
		YLabel: "backlog Q(t)",
	}
	xs := make([]float64, cfg.Slots)
	for t := range xs {
		xs[t] = float64(t + 1)
	}
	for _, mode := range []struct {
		name string
		iid  bool
	}{{"non-iid", false}, {"iid", true}} {
		genCfg := trace.DefaultGeneratorConfig()
		genCfg.IID = mode.iid
		gen, err := sc.Generator(genCfg)
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewBDMAController(sc.Sys, cfg.V, 2, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m, err := sim.Run(ctrl, gen, sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup})
		if err != nil {
			return nil, err
		}
		fig.AddSeries("Q(t) "+mode.name, xs, m.Backlog)
		fig.AddNote("%s: avg latency %.4f s, avg cost $%.4f (budget $%.4f)",
			mode.name, m.AvgLatency(), m.AvgCost(), m.Budget)
	}
	return fig, nil
}

// AblationFronthaulJitter exercises the paper's Section III-A claim that
// the algorithm handles time-varying fronthaul spectral efficiency.
func AblationFronthaulJitter(cfg AblationConfig) (*Figure, error) {
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-fronthaul",
		Title:  "Static vs time-varying fronthaul spectral efficiency",
		XLabel: "jitter σ",
		YLabel: "avg latency [s]",
	}
	sigmas := []float64{0, 0.1, 0.2, 0.4}
	xs := make([]float64, len(sigmas))
	latency := make([]float64, len(sigmas))
	cost := make([]float64, len(sigmas))
	for i, sigma := range sigmas {
		genCfg := trace.DefaultGeneratorConfig()
		genCfg.FronthaulJitterSigma = sigma
		gen, err := sc.Generator(genCfg)
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewBDMAController(sc.Sys, cfg.V, 2, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m, err := sim.Run(ctrl, gen, sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup})
		if err != nil {
			return nil, err
		}
		xs[i] = sigma
		latency[i] = m.AvgLatency()
		cost[i] = m.AvgCost()
	}
	fig.AddSeries("avg latency", xs, latency)
	fig.AddSeries("avg cost", xs, cost)
	fig.AddNote("the controller observes h^F per slot, so jitter degrades latency gracefully rather than breaking feasibility")
	return fig, nil
}

// AblationPivot compares CGBA's pivot rules (the paper uses
// max-improvement) on a batch of P2-A instances: objective and iteration
// count per rule.
func AblationPivot(cfg AblationConfig) (*Figure, error) {
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gen, err := sc.DefaultGenerator()
	if err != nil {
		return nil, err
	}
	rules := []game.PivotRule{game.PivotMaxImprovement, game.PivotRoundRobin, game.PivotRandom}
	const instances = 6
	sumObj := make([]float64, len(rules))
	sumIter := make([]float64, len(rules))
	for inst := 0; inst < instances; inst++ {
		st := gen.Next()
		p2a, err := sc.Sys.NewP2A(st, sc.Sys.LowestFrequencies())
		if err != nil {
			return nil, err
		}
		g := p2a.Game()
		initSrc := rng.New(cfg.Seed).Derive(fmt.Sprintf("pivot-init-%d", inst))
		initial := make(game.Profile, g.Players())
		for i := range initial {
			initial[i] = initSrc.Intn(g.StrategyCount(i))
		}
		for ri, rule := range rules {
			// Exact: the default sweep loop would replace the
			// max-improvement rule this ablation compares.
			res, err := game.CGBA(g, game.CGBAConfig{Initial: initial, Pivot: rule, Exact: true}, rng.New(cfg.Seed))
			if err != nil {
				return nil, fmt.Errorf("experiments: pivot %v: %w", rule, err)
			}
			sumObj[ri] += res.Objective
			sumIter[ri] += float64(res.Iterations)
		}
	}
	fig := &Figure{
		ID:     "ablation-pivot",
		Title:  "CGBA pivot rule: objective and iterations (averages)",
		XLabel: "rule index",
		YLabel: "objective [s] / iterations",
	}
	xs := make([]float64, len(rules))
	obj := make([]float64, len(rules))
	iters := make([]float64, len(rules))
	for ri, rule := range rules {
		xs[ri] = float64(ri)
		obj[ri] = sumObj[ri] / instances
		iters[ri] = sumIter[ri] / instances
		fig.AddNote("rule %d = %v: avg objective %.4f, avg iterations %.1f",
			ri, rule, obj[ri], iters[ri])
	}
	fig.AddSeries("avg objective", xs, obj)
	fig.AddSeries("avg iterations", xs, iters)
	fig.AddNote("all rules reach an equilibrium; they differ in step count, not in the 2.62 guarantee")
	return fig, nil
}

// AblationComputeBound reruns the Figure 8 V-sweep under a compute-heavy
// workload (tasks 10× the paper's size). Under the paper's parameters,
// processing is ~10% of total latency, so frequency scaling moves the
// total weakly; with compute-bound tasks the V tradeoff is much more
// visible — quantifying how parameter choices shape Figure 8's slope.
func AblationComputeBound(cfg AblationConfig, vs []float64) (*Figure, error) {
	if len(vs) == 0 {
		vs = []float64{10, 100, 500}
	}
	fig := &Figure{
		ID:     "ablation-compute-bound",
		Title:  "V sweep under paper vs compute-bound workloads",
		XLabel: "V",
		YLabel: "avg latency [s] (per workload)",
	}
	for _, mode := range []struct {
		name  string
		scale float64
	}{{"paper workload", 1}, {"compute-bound (10×)", 10}} {
		sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
		if err != nil {
			return nil, err
		}
		latency := make([]float64, len(vs))
		for i, v := range vs {
			genCfg := trace.DefaultGeneratorConfig()
			genCfg.Demand.TaskMin = units.Cycles(float64(genCfg.Demand.TaskMin) * mode.scale)
			genCfg.Demand.TaskMax = units.Cycles(float64(genCfg.Demand.TaskMax) * mode.scale)
			gen, err := sc.Generator(genCfg)
			if err != nil {
				return nil, err
			}
			ctrl, err := core.NewBDMAController(sc.Sys, v, 2, 0, cfg.Seed)
			if err != nil {
				return nil, err
			}
			m, err := sim.Run(ctrl, gen, sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup})
			if err != nil {
				return nil, err
			}
			latency[i] = m.AvgLatency()
		}
		xs := append([]float64(nil), vs...)
		fig.AddSeries(mode.name, xs, latency)
		drop := (latency[0] - latency[len(latency)-1]) / latency[0]
		fig.AddNote("%s: latency falls %.2f%% from V=%g to V=%g", mode.name, 100*drop, vs[0], vs[len(vs)-1])
	}
	return fig, nil
}

// AblationSeeds quantifies seed sensitivity: the headline metrics of the
// default controller across independent scenario draws, as mean and
// relative spread. A tight spread certifies that the figures are not
// artifacts of one lucky topology.
func AblationSeeds(cfg AblationConfig, seeds []int64) (*Figure, error) {
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	build := func(seed int64) (sim.Job, error) {
		return sim.Job{
			Controller: func() (*core.Controller, error) {
				sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, seed)
				if err != nil {
					return nil, err
				}
				return core.NewBDMAController(sc.Sys, cfg.V, 2, 0, seed)
			},
			Source: func() (trace.Source, error) {
				sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, seed)
				if err != nil {
					return nil, err
				}
				return sc.DefaultGenerator()
			},
			Config: sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup},
		}, nil
	}
	res, err := sim.Replicate(seeds, build)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-seeds",
		Title:  "Seed sensitivity of the headline metrics",
		XLabel: "seed index",
		YLabel: "metric value",
	}
	xs := make([]float64, len(seeds))
	for i := range xs {
		xs[i] = float64(i)
	}
	fig.AddSeries("avg latency", xs, res.Latency.Values)
	fig.AddSeries("avg cost", xs, res.Cost.Values)
	fig.AddNote("latency: mean %.4f s, spread σ/μ = %.1f%%", res.Latency.Mean, 100*res.Latency.RelativeSpread())
	fig.AddNote("cost:    mean $%.4f, spread σ/μ = %.1f%%", res.Cost.Mean, 100*res.Cost.RelativeSpread())
	fig.AddNote("backlog: mean %.3f, spread σ/μ = %.1f%%", res.Backlog.Mean, 100*res.Backlog.RelativeSpread())
	return fig, nil
}

// AblationFlashCrowd measures the controller under Markov-switching demand
// surges — states outside the paper's periodic-plus-iid class. The DPP
// decision rule only reads the current β_t, so it keeps working; what
// degrades is the achievable latency during surges.
func AblationFlashCrowd(cfg AblationConfig) (*Figure, error) {
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-flashcrowd",
		Title:  "Markov-switching demand surges (flash crowds)",
		XLabel: "slot t",
		YLabel: "latency [s]",
	}
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"baseline", false}, {"flash crowds", true}} {
		genCfg := trace.DefaultGeneratorConfig()
		if mode.enabled {
			genCfg.FlashCrowd = trace.DefaultFlashCrowdConfig()
		}
		gen, err := sc.Generator(genCfg)
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewBDMAController(sc.Sys, cfg.V, 2, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		m, err := sim.Run(ctrl, gen, sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup})
		if err != nil {
			return nil, err
		}
		xs := make([]float64, m.Slots())
		for t := range xs {
			xs[t] = float64(t + 1)
		}
		fig.AddSeries("latency "+mode.name, xs, m.Latency)
		fig.AddNote("%s: avg latency %.4f s, avg cost $%.4f (budget $%.4f, satisfied: %v)",
			mode.name, m.AvgLatency(), m.AvgCost(), m.Budget, m.BudgetSatisfied(0.05))
	}
	return fig, nil
}

// AblationPerRoomBudgets runs the multi-queue extension: asymmetric
// per-room budgets (tight room 0, loose room 1) versus the paper's single
// global budget of the same total. Each room's realized cost must converge
// under its own cap, at some latency premium over the global policy.
func AblationPerRoomBudgets(cfg AblationConfig) (*Figure, error) {
	fig := &Figure{
		ID:     "ablation-per-room",
		Title:  "Global budget vs per-room budgets (multi-queue extension)",
		XLabel: "slot t",
		YLabel: "backlog",
	}
	ref := units.Price(50)

	// Global-budget run.
	scGlobal, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	genG, err := scGlobal.DefaultGenerator()
	if err != nil {
		return nil, err
	}
	ctrlG, err := core.NewBDMAController(scGlobal.Sys, cfg.V, 2, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mG, err := sim.Run(ctrlG, genG, sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup})
	if err != nil {
		return nil, err
	}

	// Per-room run with the same total budget split 30/70 against the
	// rooms' proportional shares.
	scRoom, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	lows := scRoom.Sys.RoomEnergyCosts(scRoom.Sys.LowestFrequencies(), ref)
	highs := scRoom.Sys.RoomEnergyCosts(scRoom.Sys.HighestFrequencies(), ref)
	budgets := make(map[int]units.Money, len(lows))
	fracs := []float64{0.25, 0.75}
	for _, room := range scRoom.Net.Rooms {
		frac := fracs[room.ID%len(fracs)]
		budgets[room.ID] = lows[room.ID] + units.Money(frac*float64(highs[room.ID]-lows[room.ID]))
	}
	scRoom.Sys.RoomBudgets = budgets
	genR, err := scRoom.DefaultGenerator()
	if err != nil {
		return nil, err
	}
	ctrlR, err := core.NewBDMAController(scRoom.Sys, cfg.V, 2, 0, cfg.Seed)
	if err != nil {
		return nil, err
	}
	roomCosts := make(map[int]float64)
	var latencySum float64
	backlogs := make([]float64, 0, cfg.Slots)
	for s := 0; s < cfg.Slots; s++ {
		st := genR.Next()
		res, err := ctrlR.Step(st)
		if err != nil {
			return nil, err
		}
		for room, c := range scRoom.Sys.RoomEnergyCosts(res.Decision.Freq, st.Price) {
			roomCosts[room] += c.Dollars()
		}
		latencySum += res.Latency.Value()
		backlogs = append(backlogs, res.Backlog)
	}

	xs := make([]float64, cfg.Slots)
	for t := range xs {
		xs[t] = float64(t + 1)
	}
	fig.AddSeries("Q(t) global", xs, mG.Backlog)
	fig.AddSeries("ΣQ_m(t) per-room", xs, backlogs)
	fig.AddNote("global: avg latency %.4f s, avg cost $%.4f (budget $%.4f)",
		mG.AvgLatency(), mG.AvgCost(), mG.Budget)
	fig.AddNote("per-room: avg latency %.4f s", latencySum/float64(cfg.Slots))
	for _, room := range scRoom.Net.Rooms {
		fig.AddNote("room %d: avg cost $%.4f vs budget $%.4f",
			room.ID, roomCosts[room.ID]/float64(cfg.Slots), budgets[room.ID].Dollars())
	}
	return fig, nil
}

// AblationStaleObservation quantifies the value of observing β_t before
// deciding (the paper's Section III assumption): the controller decides on
// a persistence forecast (last slot's state) and experiences the true
// state. Failed handovers — devices whose observed coverage vanished — are
// re-decided on the fresh state and counted.
func AblationStaleObservation(cfg AblationConfig) (*Figure, error) {
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	run := func(stale bool) (avgLatency float64, handoverFailures int, err error) {
		gen, err := sc.DefaultGenerator()
		if err != nil {
			return 0, 0, err
		}
		ctrl, err := core.NewBDMAController(sc.Sys, cfg.V, 2, 0, cfg.Seed)
		if err != nil {
			return 0, 0, err
		}
		prev := gen.Next()
		var total float64
		for s := 0; s < cfg.Slots; s++ {
			cur := gen.Next()
			var res *core.SlotResult
			if stale {
				res, err = ctrl.StepWithObservation(prev, cur)
				if err != nil {
					handoverFailures++
					res, err = ctrl.Step(cur)
				}
			} else {
				res, err = ctrl.Step(cur)
			}
			if err != nil {
				return 0, 0, err
			}
			if s >= cfg.Warmup {
				total += res.Latency.Value()
			}
			prev = cur
		}
		return total / float64(cfg.Slots-cfg.Warmup), handoverFailures, nil
	}

	oracleLat, _, err := run(false)
	if err != nil {
		return nil, err
	}
	staleLat, failures, err := run(true)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ablation-stale",
		Title:  "Observed vs persistence-forecast system states",
		XLabel: "mode (0 = observed, 1 = stale)",
		YLabel: "avg latency [s]",
	}
	fig.AddSeries("avg latency", []float64{0, 1}, []float64{oracleLat, staleLat})
	fig.AddNote("observing β_t: %.4f s; deciding on last slot's β: %.4f s (%.1f%% worse)",
		oracleLat, staleLat, 100*(staleLat-oracleLat)/oracleLat)
	fig.AddNote("failed handovers re-decided on the fresh state: %d/%d slots", failures, cfg.Slots)
	return fig, nil
}

// AblationConvergence records CGBA's objective after every best-response
// step on one P2-A instance for several λ values — the convergence-curve
// view of Figure 6's endpoints. Only the weighted *potential* is monotone
// under best-response moves; the social objective typically descends but
// may tick upward on individual selfish moves. Larger λ stops earlier at
// a (weakly) higher objective.
func AblationConvergence(cfg AblationConfig, lambdas []float64) (*Figure, error) {
	if len(lambdas) == 0 {
		lambdas = []float64{0, 0.06, 0.12}
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
	initSrc := rng.New(cfg.Seed).Derive("convergence-init")
	initial := make(game.Profile, g.Players())
	for i := range initial {
		initial[i] = initSrc.Intn(g.StrategyCount(i))
	}

	fig := &Figure{
		ID:     "ablation-convergence",
		Title:  "CGBA(λ) convergence: objective per best-response step",
		XLabel: "iteration",
		YLabel: "P2-A objective [s]",
	}
	for _, lambda := range lambdas {
		// Exact: the trajectory plotted is Algorithm 3's, not the
		// default sweep loop's.
		res, err := game.CGBA(g, game.CGBAConfig{
			Lambda:         lambda,
			Initial:        initial,
			TrackObjective: true,
			Exact:          true,
		}, rng.New(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("experiments: convergence λ=%v: %w", lambda, err)
		}
		xs := make([]float64, len(res.ObjectiveTrace))
		for i := range xs {
			xs[i] = float64(i)
		}
		fig.AddSeries(fmt.Sprintf("λ=%g", lambda), xs, res.ObjectiveTrace)
		fig.AddNote("λ=%g: %d iterations, %.4f → %.4f", lambda, res.Iterations,
			res.ObjectiveTrace[0], res.Objective)
	}
	return fig, nil
}
