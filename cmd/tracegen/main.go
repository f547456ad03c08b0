// Command tracegen emits the synthetic system-state traces the simulator
// feeds the controller: hourly electricity prices, per-slot aggregate
// workload, and (optionally) the full per-device channel matrix.
//
// Usage:
//
//	tracegen -days 14 > traces.csv
//	tracegen -what channels -devices 20 -days 1
package main

import (
	"flag"
	"fmt"
	"os"

	"eotora/internal/experiments"
	"eotora/internal/plot"
	"eotora/internal/rng"
	"eotora/internal/stats"
	"eotora/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		days    = fs.Int("days", 14, "days of hourly slots to emit")
		devices = fs.Int("devices", 100, "number of devices")
		seed    = fs.Int64("seed", 1, "random seed")
		what    = fs.String("what", "inputs", "trace to emit: inputs (price+workload), channels, or summary")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *days <= 0 || *devices <= 0 {
		return fmt.Errorf("days and devices must be positive, got %d/%d", *days, *devices)
	}

	switch *what {
	case "inputs":
		return emitInputs(*days, *devices, *seed)
	case "channels":
		return emitChannels(*days, *devices, *seed)
	case "summary":
		return emitSummary(*days, *devices, *seed)
	default:
		return fmt.Errorf("unknown trace %q (want inputs, channels, or summary)", *what)
	}
}

// emitSummary prints descriptive statistics plus sparklines of the first
// week of each generated series.
func emitSummary(days, devices int, seed int64) error {
	_, gen, err := experiments.PresetStream("default", devices, 0, seed, 0, trace.DefaultGeneratorConfig())
	if err != nil {
		return err
	}
	slots := days * 24
	prices := make([]float64, 0, slots)
	tasks := make([]float64, 0, slots)
	coverage := make([]float64, 0, slots)
	for t := 0; t < slots; t++ {
		st := gen.Next()
		prices = append(prices, st.Price.PerMWh())
		var totalF float64
		for _, f := range st.TaskSizes {
			totalF += f.Count()
		}
		tasks = append(tasks, totalF/1e6)
		covered := 0
		for _, row := range st.Channels {
			covered += len(row)
		}
		coverage = append(coverage, float64(covered)/float64(devices))
	}
	week := slots
	if week > 168 {
		week = 168
	}
	report := func(name string, series []float64, unit string) {
		fmt.Printf("%-22s mean %10.2f  min %10.2f  max %10.2f  σ %8.2f  %s\n",
			name, stats.Mean(series), stats.Min(series), stats.Max(series), stats.StdDev(series), unit)
		fmt.Printf("%-22s %s\n", "", plot.Sparkline(series[:week]))
	}
	fmt.Printf("trace summary: %d devices, %d days hourly (seed %d)\n\n", devices, days, seed)
	report("price", prices, "$/MWh")
	report("total task size", tasks, "Mcycles/slot")
	report("avg stations/device", coverage, "stations")
	return nil
}

func emitInputs(days, devices int, seed int64) error {
	root := rng.New(seed)
	price := trace.NewPriceProcess(trace.DefaultPriceConfig(), root.Derive("price"))
	demand := trace.NewDemandProcess(trace.DefaultDemandConfig(), devices, root.Derive("demand"))
	fmt.Println("slot,price_usd_mwh,total_task_mcycles,total_data_mbits")
	for t := 1; t <= days*24; t++ {
		p := price.Next()
		tasks, data := demand.Next()
		var totalF, totalD float64
		for i := range tasks {
			totalF += tasks[i].Count()
			totalD += data[i].Bits()
		}
		fmt.Printf("%d,%.4f,%.3f,%.3f\n", t, p.PerMWh(), totalF/1e6, totalD/1e6)
	}
	return nil
}

func emitChannels(days, devices int, seed int64) error {
	_, gen, err := experiments.PresetStream("default", devices, 0, seed, 0, trace.DefaultGeneratorConfig())
	if err != nil {
		return err
	}
	fmt.Println("slot,device,station,spectral_efficiency_bps_hz")
	for t := 1; t <= days*24; t++ {
		st := gen.Next()
		for i, row := range st.Channels {
			for _, l := range row {
				fmt.Printf("%d,%d,%d,%.3f\n", t, i, l.Station, l.SE.BpsPerHz())
			}
		}
	}
	return nil
}
