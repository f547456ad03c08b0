package experiments

import (
	"fmt"

	"eotora/internal/core"
	"eotora/internal/sim"
	"eotora/internal/trace"
)

// FigChurn runs the dynamic-population study: it sweeps the churn
// intensity (a multiplier on the default join/leave/handover/server-event
// probabilities) and reports how average latency, energy cost, and the
// realized population respond.
func FigChurn(cfg AblationConfig, intensities []float64) (*Figure, error) {
	if len(intensities) == 0 {
		intensities = []float64{0, 0.5, 1, 2, 4}
	}
	run := func(intensity float64) (*sim.Metrics, error) {
		sc, src, err := PresetStream("default", cfg.Devices, 0, cfg.Seed, intensity, trace.DefaultGeneratorConfig())
		if err != nil {
			return nil, err
		}
		ctrl, err := core.NewBDMAController(sc.Sys, cfg.V, 5, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		return sim.Run(ctrl, src, sim.Config{Slots: cfg.Slots, Warmup: cfg.Warmup})
	}

	xs := make([]float64, len(intensities))
	latency := make([]float64, len(intensities))
	cost := make([]float64, len(intensities))
	population := make([]float64, len(intensities))
	for i, intensity := range intensities {
		m, err := run(intensity)
		if err != nil {
			return nil, fmt.Errorf("experiments: churn intensity %g: %w", intensity, err)
		}
		xs[i] = intensity
		latency[i] = m.AvgLatency()
		cost[i] = m.AvgCost()
		devs := 0
		for _, d := range m.ActiveDevices {
			devs += d
		}
		population[i] = float64(devs) / float64(len(m.ActiveDevices))
	}
	fig := &Figure{
		ID:     "churn",
		Title:  "Dynamic population: latency, cost, and population vs churn intensity",
		XLabel: "churn intensity (× default event probabilities)",
		YLabel: "latency [s] / cost [$] / devices",
	}
	fig.AddSeries("avg latency", xs, latency)
	fig.AddSeries("avg energy cost", xs, cost)
	fig.AddSeries("avg active devices", xs, population)

	fig.AddNote("zero intensity is a bit-exact passthrough: identical decisions to the fixed-population build")
	return fig, nil
}
