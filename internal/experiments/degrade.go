package experiments

import (
	"fmt"

	"eotora/internal/core"
	"eotora/internal/faults"
	"eotora/internal/obs"
	"eotora/internal/sim"
	"eotora/internal/trace"
)

// FigDegrade runs the graceful-degradation study of EXPERIMENTS.md's
// robustness appendix. It sweeps the per-slot solver checkpoint budget
// (counted deadlines — deterministic and machine-independent, unlike
// wall-clock ones) and reports how average latency and fallback-ladder
// occupancy respond as the solver is squeezed, with an unlimited-budget
// reference and a fault-injected soak leg (faults.DefaultConfig behind a
// trace.Sanitizer) that exercises the full ladder and reports the fields
// the sanitizer repaired (trace.repairs).
func FigDegrade(cfg AblationConfig, checks []int) (*Figure, error) {
	if len(checks) == 0 {
		checks = []int{2, 3, 4, 6, 10, 16}
	}
	sc, err := NewScenario(ScenarioOptions{Devices: cfg.Devices}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// reg holds the soak leg's sanitizer repair count.
	reg := obs.New()
	run := func(checkBudget int, fcfg *faults.Config) (*sim.Metrics, error) {
		gen, err := sc.DefaultGenerator()
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewBDMAController(sc.Sys, cfg.V, 5, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var src trace.Source = gen
		if fcfg != nil {
			if src, _, err = faults.NewSanitized(*fcfg, len(sc.Sys.Net.Servers), gen, ctrl, reg); err != nil {
				return nil, err
			}
		}
		if checkBudget > 0 {
			ctrl.SetSlotDeadline(0, checkBudget)
		}
		return sim.Run(ctrl, src, sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup})
	}

	base, err := run(0, nil)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(checks))
	latency := make([]float64, len(checks))
	degraded := make([]float64, len(checks))
	for i, c := range checks {
		m, err := run(c, nil)
		if err != nil {
			return nil, err
		}
		xs[i] = float64(c)
		latency[i] = m.AvgLatency()
		degraded[i] = float64(m.DegradedSlots()) / float64(len(m.Rung))
	}
	fig := &Figure{
		ID:     "degrade",
		Title:  "Graceful degradation: latency and ladder occupancy vs slot budget",
		XLabel: "per-slot checkpoint budget",
		YLabel: "latency [s] / degraded fraction",
	}
	fig.AddSeries("avg latency", xs, latency)
	fig.AddSeries("degraded fraction", xs, degraded)
	fig.AddNote(fmt.Sprintf("unlimited budget: avg latency %.4f s, 0 degraded slots", base.AvgLatency()))

	// Soak leg: default fault profile plus a tight counted budget, so
	// stalls, outages, and corruption push slots down every ladder rung.
	fcfg := faults.DefaultConfig(cfg.Seed)
	fm, err := run(4, &fcfg)
	if err != nil {
		return nil, err
	}
	var rungs [core.RungGreedy + 1]int
	for _, r := range fm.Rung {
		if r >= 0 && r < len(rungs) {
			rungs[r]++
		}
	}
	fig.AddNote(fmt.Sprintf(
		"fault soak (default profile, sanitized, budget 4): avg latency %.4f s; rung occupancy full=%d anytime=%d previous=%d greedy=%d; sanitizer repairs=%d",
		fm.AvgLatency(), rungs[core.RungFull], rungs[core.RungAnytime], rungs[core.RungPrevious], rungs[core.RungGreedy],
		reg.Counter(trace.MetricRepairs).Value()))
	fig.AddNote("every slot still produced a feasible decision; see OPERATIONS.md for the ladder semantics")
	return fig, nil
}
