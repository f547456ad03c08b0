package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"eotora/internal/policy"
	"eotora/internal/sim"
	"eotora/internal/stats"
	"eotora/internal/trace"
)

func TestFigureRenderAndCSV(t *testing.T) {
	fig := &Figure{ID: "figX", Title: "demo", XLabel: "x", YLabel: "y"}
	fig.AddSeries("a", []float64{1, 2}, []float64{10, 20})
	fig.AddSeries("b", []float64{2, 3}, []float64{200, 300})
	fig.AddNote("hello %d", 42)

	var sb strings.Builder
	if err := fig.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"figX", "demo", "a", "b", "hello 42", "10", "300", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := fig.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + x ∈ {1,2,3}
		t.Fatalf("CSV lines = %d, want 4:\n%s", len(lines), sb.String())
	}
	if lines[0] != "x,a,b" {
		t.Errorf("CSV header = %q", lines[0])
	}
	// x=1 has no b value → empty field.
	if !strings.HasSuffix(lines[1], ",") {
		t.Errorf("missing point should be empty field: %q", lines[1])
	}
}

func TestFigureRenderEmpty(t *testing.T) {
	fig := &Figure{ID: "fig0", Title: "empty"}
	var sb strings.Builder
	if err := fig.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty figure should say so")
	}
}

func TestCSVEscape(t *testing.T) {
	if got := csvEscape(`plain`); got != "plain" {
		t.Errorf("csvEscape plain = %q", got)
	}
	if got := csvEscape(`a,b`); got != `"a,b"` {
		t.Errorf("csvEscape comma = %q", got)
	}
	if got := csvEscape(`say "hi"`); got != `"say ""hi"""` {
		t.Errorf("csvEscape quote = %q", got)
	}
}

func TestNewScenarioDefaults(t *testing.T) {
	sc, err := NewScenario(ScenarioOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	k, m, n, i := sc.Net.Counts()
	if k != 6 || m != 2 || n != 16 || i != 100 {
		t.Errorf("counts = (%d,%d,%d,%d), want paper's (6,2,16,100)", k, m, n, i)
	}
	low := sc.Sys.EnergyCost(sc.Sys.LowestFrequencies(), 50)
	high := sc.Sys.EnergyCost(sc.Sys.HighestFrequencies(), 50)
	if !(low < sc.Sys.Budget && sc.Sys.Budget < high) {
		t.Errorf("budget $%v outside feasible range ($%v, $%v)", sc.Sys.Budget, low, high)
	}
}

func TestScenarioGeneratorReplays(t *testing.T) {
	sc, err := NewScenario(ScenarioOptions{Devices: 10}, 3)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := sc.DefaultGenerator()
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sc.DefaultGenerator()
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 5; s++ {
		a, b := g1.Next(), g2.Next()
		if a.Price != b.Price {
			t.Fatalf("generators diverged at slot %d", s)
		}
	}
}

// TestPresetStreamStates: the command-line stream on the default preset
// yields, bit for bit, the bare generator's states at churn 0 and
// NewChurnSchedule(DefaultChurnConfig(seed))'s states at churn 1, both
// built on NewScenario's default topology. The second is the β_1 (and
// the stream after it) that eotorad -churn 1 and a load source building
// the default regime by hand must share.
func TestPresetStreamStates(t *testing.T) {
	const devices, seed = 30, 4
	for _, churn := range []float64{0, 1} {
		got, src, err := PresetStream("default", devices, 0.5, seed, churn, trace.DefaultGeneratorConfig())
		if err != nil {
			t.Fatal(err)
		}
		sc, err := NewScenario(ScenarioOptions{Devices: devices, BudgetFraction: 0.5}, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sys.Budget != sc.Sys.Budget || !reflect.DeepEqual(got.Net, sc.Net) {
			t.Fatalf("churn %g: the preset scenario differs from NewScenario's", churn)
		}
		var want trace.Source
		if want, err = sc.DefaultGenerator(); err != nil {
			t.Fatal(err)
		}
		if churn > 0 {
			if want, err = trace.NewChurnSchedule(trace.DefaultChurnConfig(seed), sc.Net, want); err != nil {
				t.Fatal(err)
			}
		}
		for slot := 1; slot <= 8; slot++ {
			if a, b := src.Next(), want.Next(); !reflect.DeepEqual(a, b) {
				t.Fatalf("churn %g: state %d differs", churn, slot)
			}
		}
	}
}

func TestFig2Shapes(t *testing.T) {
	fig, err := Fig2(Fig2Config{Days: 7, Devices: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want price + workload", len(fig.Series))
	}
	for _, s := range fig.Series {
		if len(s.X) != 7*24 {
			t.Errorf("series %q has %d points, want %d", s.Name, len(s.X), 7*24)
		}
	}
	// Both inputs must be visibly diurnal (ratio > 1.1).
	price, work := fig.Series[0].Y, fig.Series[1].Y
	if r := hourRatio(price); r < 1.1 {
		t.Errorf("price hourly ratio %v — no periodic trend", r)
	}
	if r := hourRatio(work); r < 1.1 {
		t.Errorf("workload hourly ratio %v — no periodic trend", r)
	}
}

func TestFig2Validation(t *testing.T) {
	if _, err := Fig2(Fig2Config{Days: 0, Devices: 5}); err == nil {
		t.Error("zero days accepted")
	}
}

func TestFig3FitQuality(t *testing.T) {
	fig, err := Fig3(DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 { // measured + fit + 2 perturbed
		t.Fatalf("series = %d, want 4", len(fig.Series))
	}
	measured, fitted := fig.Series[0], fig.Series[1]
	if len(measured.X) != len(fitted.X) {
		t.Fatal("length mismatch")
	}
	for i := range measured.Y {
		diff := measured.Y[i] - fitted.Y[i]
		if diff < -1 || diff > 1 {
			t.Errorf("fit misses measurement at %v GHz by %v W", measured.X[i], diff)
		}
	}
	// All curves increasing in frequency.
	for _, s := range fig.Series {
		for i := 1; i < len(s.X); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Errorf("series %q not increasing at index %d", s.Name, i)
			}
		}
	}
}

func TestFig3NoPerturbedCurves(t *testing.T) {
	fig, err := Fig3(Fig3Config{PerturbedCurves: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Errorf("series = %d, want 2", len(fig.Series))
	}
	if _, err := Fig3(Fig3Config{PerturbedCurves: -1}); err == nil {
		t.Error("negative curve count accepted")
	}
}

func TestP2ASweepShapes(t *testing.T) {
	// The Figure 4/5 claims, at reduced scale:
	// CGBA ≤ MCBA and CGBA ≤ ROPT; OPT ≤ CGBA; objectives grow with I.
	points, err := P2ASweep(QuickP2ASweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		cgba, mcba := p.Objective["CGBA"], p.Objective["MCBA"]
		ropt, opt := p.Objective["ROPT"], p.Objective["OPT"]
		// At this reduced scale MCMC occasionally edges out the Nash
		// equilibrium; the paper-scale ordering (CGBA < MCBA) is recorded
		// in EXPERIMENTS.md. Here only a loose bound is asserted.
		if cgba > mcba*1.10 {
			t.Errorf("I=%d: CGBA %v far above MCBA %v", p.Devices, cgba, mcba)
		}
		if cgba > ropt {
			t.Errorf("I=%d: CGBA %v above ROPT %v", p.Devices, cgba, ropt)
		}
		if opt > cgba+1e-9 {
			t.Errorf("I=%d: OPT %v above CGBA %v", p.Devices, opt, cgba)
		}
		if cgba > 2.62*opt+1e-9 {
			t.Errorf("I=%d: CGBA breaks the 2.62 bound (%v vs %v)", p.Devices, cgba, opt)
		}
		if p.CGBAIterations <= 0 {
			t.Errorf("I=%d: no CGBA iterations", p.Devices)
		}
	}
	// Objectives grow with I for every algorithm (more devices, more load).
	for _, alg := range p2aAlgorithms {
		if points[len(points)-1].Objective[alg] <= points[0].Objective[alg] {
			t.Errorf("%s objective not increasing in I", alg)
		}
	}
}

func TestFig4AndFig5Render(t *testing.T) {
	cfg := QuickP2ASweepConfig()
	fig4, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig4.Series) != 4 {
		t.Errorf("fig4 series = %d", len(fig4.Series))
	}
	fig5, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig5.Series) != 4 {
		t.Errorf("fig5 series = %d", len(fig5.Series))
	}
	var sb strings.Builder
	if err := fig4.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if err := fig5.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "CGBA/OPT") {
		t.Error("fig4 missing ratio note")
	}
}

func TestFig6Shapes(t *testing.T) {
	fig, err := Fig6(QuickFig6Config())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	objective, iters := fig.Series[0].Y, fig.Series[1].Y
	// Iterations non-increasing in λ (same instance, same start).
	for i := 1; i < len(iters); i++ {
		if iters[i] > iters[i-1] {
			t.Errorf("iterations increased at λ=%v: %v → %v", fig.Series[1].X[i], iters[i-1], iters[i])
		}
	}
	// Objective at the largest λ is no better than at λ = 0 (Theorem 2's
	// factor grows in λ).
	if objective[len(objective)-1] < objective[0]*(1-1e-9) {
		t.Errorf("objective improved with larger λ: %v → %v", objective[0], objective[len(objective)-1])
	}
}

func TestFig6Validation(t *testing.T) {
	if _, err := Fig6(Fig6Config{Devices: 0}); err == nil {
		t.Error("zero devices accepted")
	}
}

func TestFig7Shapes(t *testing.T) {
	cfg := QuickFig7Config()
	fig, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Series: one backlog per V + price.
	if len(fig.Series) != len(cfg.Vs)+1 {
		t.Fatalf("series = %d, want %d", len(fig.Series), len(cfg.Vs)+1)
	}
	for _, s := range fig.Series {
		if len(s.X) != cfg.Slots {
			t.Fatalf("series %q length %d, want %d", s.Name, len(s.X), cfg.Slots)
		}
	}
	// Backlogs non-negative; early average below late average (ramp-up).
	for vi := range cfg.Vs {
		q := fig.Series[vi].Y
		for t2, v := range q {
			if v < 0 {
				t.Fatalf("negative backlog at slot %d", t2)
			}
		}
		early := stats.Mean(q[:len(q)/4])
		late := stats.Mean(q[len(q)/2:])
		if late < early {
			t.Errorf("V=%v: backlog did not ramp (early %v, late %v)", cfg.Vs[vi], early, late)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	fig, err := Fig8(QuickFig8Config())
	if err != nil {
		t.Fatal(err)
	}
	backlog, latency := fig.Series[0].Y, fig.Series[1].Y
	// Backlog increasing in V; latency non-increasing (weakly, 5% slack
	// for the reduced-scale noise).
	for i := 1; i < len(backlog); i++ {
		if backlog[i] < backlog[i-1] {
			t.Errorf("backlog decreased between V points %d→%d: %v → %v", i-1, i, backlog[i-1], backlog[i])
		}
		if latency[i] > latency[i-1]*1.05 {
			t.Errorf("latency increased between V points %d→%d: %v → %v", i-1, i, latency[i-1], latency[i])
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	fig, err := Fig9(QuickFig9Config())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	var budgets []float64
	for _, s := range fig.Series {
		series[s.Name] = s.Y
		budgets = s.X
	}
	bdma := series["BDMA-DPP latency"]
	mcba := series["MCBA-DPP latency"]
	ropt := series["ROPT-DPP latency"]
	realized := series["BDMA-DPP realized cost"]
	if bdma == nil || mcba == nil || ropt == nil || realized == nil {
		t.Fatalf("missing series: %v", fig.Series)
	}
	for i := range bdma {
		// BDMA no worse than the baselines (2% slack).
		if bdma[i] > mcba[i]*1.02 {
			t.Errorf("point %d: BDMA %v above MCBA %v", i, bdma[i], mcba[i])
		}
		if bdma[i] > ropt[i]*1.02 {
			t.Errorf("point %d: BDMA %v above ROPT %v", i, bdma[i], ropt[i])
		}
		// Realized cost within the budget (asymptotic bound; 10% slack at
		// reduced horizon).
		if realized[i] > budgets[i]*1.10 {
			t.Errorf("point %d: realized cost $%v above budget $%v", i, realized[i], budgets[i])
		}
	}
	// Latency non-increasing as budgets loosen (5% slack).
	for i := 1; i < len(bdma); i++ {
		if bdma[i] > bdma[i-1]*1.05 {
			t.Errorf("BDMA latency rose with looser budget: %v → %v", bdma[i-1], bdma[i])
		}
	}
}

func TestAblationBDMAZ(t *testing.T) {
	fig, err := AblationBDMAZ(QuickAblationConfig(), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	// Work grows with z, counted in BDMA rounds rather than wall time: z=1
	// runs exactly one round per slot, and z=3 at least two before the
	// fixed-point exit can fire.
	rounds := fig.Series[2].Y
	if rounds[0] != 1 || rounds[1] < 2 {
		t.Errorf("bdma rounds per slot %v at z=1,3; want 1 and >= 2", rounds)
	}
}

func TestAblationP2BSolverAgrees(t *testing.T) {
	fig, err := AblationP2BSolver(QuickAblationConfig())
	if err != nil {
		t.Fatal(err)
	}
	sep, joint := fig.Series[0].Y, fig.Series[1].Y
	for i := range sep {
		rel := (sep[i] - joint[i]) / joint[i]
		if rel > 1e-3 || rel < -1e-3 {
			t.Errorf("instance %d: separable %v vs joint %v (rel %v)", i, sep[i], joint[i], rel)
		}
	}
}

func TestAblationIID(t *testing.T) {
	fig, err := AblationIID(QuickAblationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	if len(fig.Notes) < 2 {
		t.Error("missing summary notes")
	}
}

func TestAblationFronthaulJitter(t *testing.T) {
	fig, err := AblationFronthaulJitter(QuickAblationConfig())
	if err != nil {
		t.Fatal(err)
	}
	lat := fig.Series[0].Y
	// Jitter must not break the controller; latency stays finite and
	// positive at every σ.
	for i, v := range lat {
		if v <= 0 {
			t.Errorf("σ index %d: latency %v", i, v)
		}
	}
}

func TestAblationPivot(t *testing.T) {
	fig, err := AblationPivot(QuickAblationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	obj := fig.Series[0].Y
	if len(obj) != 3 {
		t.Fatalf("rules = %d, want 3", len(obj))
	}
	// All rules reach an equilibrium, so averaged objectives stay within a
	// modest band of each other.
	for i := 1; i < len(obj); i++ {
		ratio := obj[i] / obj[0]
		if ratio > 1.25 || ratio < 0.8 {
			t.Errorf("pivot rule %d objective ratio %v vs max-improvement", i, ratio)
		}
	}
}

func TestFigureWriteMarkdown(t *testing.T) {
	fig := &Figure{ID: "figY", Title: "md demo", XLabel: "x|axis", YLabel: "y"}
	fig.AddSeries("a", []float64{1, 2}, []float64{10, 20})
	fig.AddSeries("b", []float64{2}, []float64{200})
	fig.AddNote("a note")
	var sb strings.Builder
	if err := fig.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"## figY — md demo", "| x\\|axis | a | b |", "| 1 | 10 | — |", "- a note", "*(values: y)*"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q in:\n%s", want, out)
		}
	}
	// Empty figure: header only, no table.
	var sb2 strings.Builder
	if err := (&Figure{ID: "e", Title: "t"}).WriteMarkdown(&sb2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb2.String(), "|") {
		t.Error("empty figure rendered a table")
	}
}

func TestRunSpecRoundtrip(t *testing.T) {
	spec := RunSpec{Devices: 12, Seed: 7, V: 50, Z: 2, Solver: "ropt", Slots: 24, Layout: "hex"}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := LoadRunSpec(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got != spec {
		t.Errorf("roundtrip changed spec: %+v vs %+v", got, spec)
	}
	if _, err := LoadRunSpec(strings.NewReader(`{"bogus": true}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := LoadRunSpec(strings.NewReader(`{nope`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestRunSpecBuildAndRun(t *testing.T) {
	spec := RunSpec{Devices: 8, Seed: 3, V: 50, Z: 1, Slots: 12, Warmup: 2, Layout: "hex", WeekendDiscount: 0.2}
	sc, gen, ctrl, cfg, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sc == nil || gen == nil || ctrl == nil {
		t.Fatal("nil build outputs")
	}
	if cfg.Slots != 12 || cfg.Warmup != 2 {
		t.Errorf("sim config = %+v", cfg)
	}
	if gen.Period() != 168 {
		t.Errorf("weekend discount should extend period to 168, got %d", gen.Period())
	}
	m, err := sim.Run(ctrl, gen, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slots() != 12 {
		t.Errorf("ran %d slots", m.Slots())
	}
}

func TestRunSpecDefaults(t *testing.T) {
	spec := RunSpec{}
	spec.applyDefaults()
	if spec.Devices != 100 || spec.V != 100 || spec.Z != 5 || spec.Solver != "cgba" || spec.Slots != 240 {
		t.Errorf("defaults = %+v", spec)
	}
	if spec.Warmup != 48 {
		t.Errorf("default warmup = %d, want slots/5", spec.Warmup)
	}
}

func TestRunSpecBuildErrors(t *testing.T) {
	if _, _, _, _, err := (RunSpec{Devices: 5, Layout: "triangle"}).Build(); err == nil {
		t.Error("unknown layout accepted")
	}
	if _, _, _, _, err := (RunSpec{Devices: 5, Solver: "magic"}).Build(); err == nil {
		t.Error("unknown solver accepted")
	}
	for _, solver := range []string{"mcba", "ropt"} {
		if _, _, _, _, err := (RunSpec{Devices: 5, Slots: 6, Solver: solver}).Build(); err != nil {
			t.Errorf("solver %q rejected: %v", solver, err)
		}
	}
}

func TestAblationComputeBound(t *testing.T) {
	cfg := QuickAblationConfig()
	cfg.Slots = 48
	cfg.Warmup = 12
	fig, err := AblationComputeBound(cfg, []float64{10, 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	paper, heavy := fig.Series[0].Y, fig.Series[1].Y
	// The compute-bound workload has higher absolute latency.
	for i := range paper {
		if heavy[i] <= paper[i] {
			t.Errorf("point %d: compute-bound latency %v not above paper %v", i, heavy[i], paper[i])
		}
	}
	// The V effect (relative drop) must be at least as large compute-bound.
	dropPaper := (paper[0] - paper[len(paper)-1]) / paper[0]
	dropHeavy := (heavy[0] - heavy[len(heavy)-1]) / heavy[0]
	if dropHeavy < dropPaper-1e-9 {
		t.Errorf("compute-bound V-effect %.4f not larger than paper %.4f", dropHeavy, dropPaper)
	}
}

func TestAblationSeeds(t *testing.T) {
	cfg := QuickAblationConfig()
	cfg.Slots = 36
	cfg.Warmup = 8
	fig, err := AblationSeeds(cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].X) != 3 {
		t.Fatalf("series shape wrong: %v", fig.Series)
	}
	if len(fig.Notes) != 3 {
		t.Errorf("notes = %d", len(fig.Notes))
	}
	for _, v := range fig.Series[0].Y {
		if v <= 0 {
			t.Errorf("non-positive latency %v", v)
		}
	}
}

// TestTheorem4LatencyScaling fits the measured average latency against 1/V:
// Theorem 4 predicts latency ≤ R·ρ* + B·D/V, so the latency should decay
// roughly affinely in 1/V with a non-negative 1/V coefficient.
func TestTheorem4LatencyScaling(t *testing.T) {
	cfg := QuickFig8Config()
	cfg.Vs = []float64{10, 25, 50, 100, 250, 500}
	fig, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := fig.Series[1].X
	latency := fig.Series[1].Y
	invV := make([]float64, len(vs))
	for i, v := range vs {
		invV[i] = 1 / v
	}
	fit, err := stats.FitLine(invV, latency)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Slope < 0 {
		t.Errorf("latency-vs-1/V slope %v negative — contradicts Theorem 4's B·D/V term", fit.Slope)
	}
	// The intercept approximates the V→∞ latency and must stay positive.
	if fit.Intercept <= 0 {
		t.Errorf("intercept %v non-positive", fit.Intercept)
	}
}

func TestAblationFlashCrowd(t *testing.T) {
	cfg := QuickAblationConfig()
	cfg.Slots = 48
	cfg.Warmup = 8
	fig, err := AblationFlashCrowd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Notes) != 2 {
		t.Fatalf("series/notes = %d/%d", len(fig.Series), len(fig.Notes))
	}
	// All latencies finite and positive under surges.
	for _, s := range fig.Series {
		for i, v := range s.Y {
			if v <= 0 {
				t.Fatalf("series %q slot %d latency %v", s.Name, i, v)
			}
		}
	}
}

func TestAblationPerRoomBudgets(t *testing.T) {
	cfg := QuickAblationConfig()
	cfg.Slots = 72
	cfg.Warmup = 12
	fig, err := AblationPerRoomBudgets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	if len(fig.Notes) < 4 {
		t.Fatalf("notes = %d, want per-room cost lines", len(fig.Notes))
	}
}

func TestAblationStaleObservation(t *testing.T) {
	cfg := QuickAblationConfig()
	cfg.Slots = 60
	cfg.Warmup = 10
	fig, err := AblationStaleObservation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lat := fig.Series[0].Y
	if len(lat) != 2 {
		t.Fatalf("points = %d", len(lat))
	}
	// Stale decisions are not better than observed ones (small slack for
	// noise at reduced scale).
	if lat[1] < lat[0]*0.98 {
		t.Errorf("stale latency %v beats observed %v", lat[1], lat[0])
	}
}

func TestAblationConvergence(t *testing.T) {
	cfg := QuickAblationConfig()
	fig, err := AblationConvergence(cfg, []float64{0, 0.12})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	for _, s := range fig.Series {
		// Individual selfish moves may raise the social objective (only
		// the potential is monotone); the end of each trajectory must
		// still improve on its start.
		if s.Y[len(s.X)-1] > s.Y[0] {
			t.Errorf("series %q ended above its start: %v → %v", s.Name, s.Y[0], s.Y[len(s.X)-1])
		}
	}
	// λ=0 runs at least as long and ends at least as low as λ=0.12.
	l0, l12 := fig.Series[0], fig.Series[1]
	if len(l0.X) < len(l12.X) {
		t.Errorf("λ=0 trace (%d) shorter than λ=0.12 (%d)", len(l0.X), len(l12.X))
	}
	if l0.Y[len(l0.X)-1] > l12.Y[len(l12.X)-1]*1.0001 {
		t.Errorf("λ=0 final %v above λ=0.12 final %v", l0.Y[len(l0.X)-1], l12.Y[len(l12.X)-1])
	}
}

// TestComparePolicies gates the policy-roster claims of the EXPERIMENTS.md
// appendix at quick scale: one series + summary note per policy, BDMA the
// lowest-latency policy within budget (the harness emits a WARNING note
// whenever a baseline beats it), and the Ω^L/Ω^U cost split.
func TestComparePolicies(t *testing.T) {
	fig, err := ComparePolicies(QuickCompareConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 6 {
		t.Fatalf("series = %d, want the 6-policy roster", len(fig.Series))
	}
	for _, note := range fig.Notes {
		if strings.Contains(note, "WARNING") {
			t.Errorf("a baseline beat BDMA within budget: %s", note)
		}
	}
	cost := map[string]float64{}
	for _, s := range fig.Series {
		if len(s.X) != 1 {
			t.Fatalf("series %q has %d points, want 1", s.Name, len(s.X))
		}
		cost[s.Name] = s.X[0]
	}
	// The Ω^L baselines share the all-lowest-frequency cost; the Ω^U pair
	// shares the all-highest one; BDMA prices itself strictly between.
	if cost["greedy-energy"] != cost["random"] || cost["greedy-energy"] != cost["local-only"] {
		t.Errorf("Ω^L baseline costs diverge: %v", cost)
	}
	if cost["greedy-deadline"] != cost["edge-only"] {
		t.Errorf("Ω^U baseline costs diverge: %v", cost)
	}
	if !(cost["greedy-energy"] < cost["bdma"] && cost["bdma"] < cost["greedy-deadline"]) {
		t.Errorf("BDMA cost %v not between Ω^L %v and Ω^U %v",
			cost["bdma"], cost["greedy-energy"], cost["greedy-deadline"])
	}
}

// TestTunerDemo gates the auto-tuner claims: the coarse-to-fine λ
// schedule saves CGBA iterations (the harness notes a WARNING when it
// does not) at near-parity decision quality.
func TestTunerDemo(t *testing.T) {
	cfg := QuickCompareConfig()
	fig, err := TunerDemo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want backlog + iteration pairs", len(fig.Series))
	}
	for _, note := range fig.Notes {
		if strings.Contains(note, "WARNING") {
			t.Errorf("tuner saved no solver work: %s", note)
		}
	}
	states, period, _, err := compareTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := comparePolicyRun(policy.BDMA, cfg, states, period)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := comparePolicyRun(policy.BDMATuned, cfg, states, period)
	if err != nil {
		t.Fatal(err)
	}
	fixedIters, tunedIters := sumInts(fixed.SolverIterations), sumInts(tuned.SolverIterations)
	if tunedIters >= fixedIters {
		t.Errorf("tuned iterations %d not below fixed %d", tunedIters, fixedIters)
	}
	// Decision quality stays at parity: the refined tail matches the fixed
	// λ, so the averaged latency may differ only in the transient (2%).
	if ratio := tuned.AvgLatency() / fixed.AvgLatency(); ratio > 1.02 || ratio < 0.98 {
		t.Errorf("latency parity broken: tuned %v vs fixed %v", tuned.AvgLatency(), fixed.AvgLatency())
	}
}

// TestFigDegradeCountsRepairs: the fault soak's note reports the fields
// its sanitizer repaired, and the default fault profile's corruption
// makes that count positive.
func TestFigDegradeCountsRepairs(t *testing.T) {
	cfg := QuickAblationConfig()
	cfg.Slots = 48
	cfg.Warmup = 8
	fig, err := FigDegrade(cfg, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range fig.Notes {
		at := strings.Index(note, "sanitizer repairs=")
		if at < 0 {
			continue
		}
		var repairs int
		if _, err := fmt.Sscanf(note[at:], "sanitizer repairs=%d", &repairs); err != nil {
			t.Fatalf("note %q: %v", note, err)
		}
		if repairs <= 0 {
			t.Fatalf("fault soak repaired %d fields, want > 0: %q", repairs, note)
		}
		t.Logf("%s", note)
		return
	}
	t.Fatalf("no note reports sanitizer repairs: %q", fig.Notes)
}
