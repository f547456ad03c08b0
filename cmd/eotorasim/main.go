// Command eotorasim runs a full online EOTORA simulation: it generates the
// paper's Section VI-A scenario, drives a decision policy slot by slot,
// and prints either a summary or the per-slot metric series as CSV.
//
// Usage:
//
//	eotorasim -devices 100 -slots 240 -v 100 -z 5
//	eotorasim -solver ropt -budget-frac 0.3 -csv > run.csv
//	eotorasim -policy greedy-energy -slots 240
//	eotorasim -policy bdma-tuned -v 100 -lambda 0.05
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"eotora/internal/core"
	"eotora/internal/experiments"
	"eotora/internal/faults"
	"eotora/internal/obs"
	"eotora/internal/policy"
	"eotora/internal/sim"
	"eotora/internal/trace"
	"eotora/internal/units"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eotorasim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eotorasim", flag.ContinueOnError)
	var (
		devices    = fs.Int("devices", 100, "number of mobile devices I")
		slots      = fs.Int("slots", 240, "slots to simulate")
		warmup     = fs.Int("warmup", 48, "warmup slots excluded from averages")
		v          = fs.Float64("v", 100, "drift-plus-penalty weight V")
		z          = fs.Int("z", 5, "BDMA alternation rounds")
		lambda     = fs.Float64("lambda", 0, "CGBA λ in [0, 0.125)")
		solverName = fs.String("solver", "cgba", "P2-A solver for -policy bdma: cgba, mcba, or ropt")
		polName    = fs.String("policy", policy.BDMA, "decision policy: "+strings.Join(policy.Names(), ", "))
		budgetFrac = fs.Float64("budget-frac", 0.5, "budget position in [all-F^L, all-F^U] cost range")
		seed       = fs.Int64("seed", 1, "random seed")
		csv        = fs.Bool("csv", false, "emit per-slot CSV instead of a summary")
		priceCSV   = fs.String("price-csv", "", "CSV file with real electricity prices (replaces the synthetic process)")
		priceCol   = fs.String("price-column", "LBMP ($/MWHr)", "price column name in -price-csv")
		resumeFrom = fs.String("resume", "", "checkpoint file to resume from (see -checkpoint)")
		configFile = fs.String("config", "", "JSON run-spec file; it sets the scenario, controller and horizon, so -devices -topology -budget-frac -seed -price-csv -churn -policy -solver -v -z -lambda -shards -shard-audit -slots -warmup are ignored, and every other flag applies")
		saveTo     = fs.String("checkpoint", "", "write a checkpoint file after the run")
		metrics    = fs.String("metrics", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address during the run, e.g. :6060")
		obsOut     = fs.String("obs-out", "", "write the observability snapshot here after the run (.csv → CSV, else JSON)")
		slotWork   = fs.Int("slot-workers", 0, "intra-slot solver workers for the sharded solve's interior sweeps (0 = all cores, 1 = serial); matters only with -shards -1, and results are bit-identical at any setting")
		slotDL     = fs.Duration("slot-deadline", 0, "per-slot wall-clock budget for the solver (0 = none); expired slots fall down the degradation ladder (see OPERATIONS.md)")
		slotChecks = fs.Int("slot-checks", 0, "per-slot solver checkpoint budget (0 = none); deterministic alternative to -slot-deadline")
		faultsOn   = fs.Bool("faults", false, "inject seeded faults (trace corruption, outages, capacity loss, solver stalls) with the soak profile; repairs via trace.Sanitizer stay on")
		churn      = fs.Float64("churn", 0, "population churn intensity: scales the default join/leave/handover/server-event probabilities (0 = fixed population, 1 = default regime)")
		failDegrad = fs.Bool("fail-degraded", false, "exit non-zero if any slot was decided below RungFull (degradation ladder engaged); the scale-smoke CI gate")
		topoName   = fs.String("topology", "default", "topology preset: default, urban, rural, campus, or metro")
		shards     = fs.Int("shards", 0, "shard the slot solve into per-cluster games (0 or 1 = off, -1 = one shard per topology cluster; see OPERATIONS.md)")
		shardAudit = fs.Int("shard-audit", 0, "audit the sharded solve's optimality gap every N full-rung slots (0 = off; requires -shards)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var r simRun
	if *configFile != "" {
		var err error
		if r, err = configRun(*configFile); err != nil {
			return err
		}
	} else {
		genCfg := trace.DefaultGeneratorConfig()
		if *priceCSV != "" {
			prices, err := loadPrices(*priceCSV, *priceCol)
			if err != nil {
				return err
			}
			genCfg.PriceSeries = prices
		}
		sc, src, err := experiments.PresetStream(*topoName, *devices, *budgetFrac, *seed, *churn, genCfg)
		if err != nil {
			return err
		}
		pol, err := experiments.NewPolicy(sc.Sys, *polName, *solverName, *v, *z, *lambda, *seed, *shards, *shardAudit)
		if err != nil {
			return err
		}
		r = simRun{sc: sc, src: src, pol: pol, cfg: sim.Config{Slots: *slots, Warmup: *warmup}, churn: *churn}
		r.header = scenarioLine(*topoName+" topology", sc)
		if sn, ok := pol.(policy.SolverNamer); ok {
			r.header += fmt.Sprintf("policy:   %s (%s-based DPP), V=%g, z=%d, λ=%g\n", pol.Name(), sn.SolverName(), *v, *z, *lambda)
		} else {
			r.header += fmt.Sprintf("policy:   %s, V=%g\n", pol.Name(), *v)
		}
		if *shards == core.ShardsAuto {
			r.header += "sharding: one shard per topology cluster (-shards -1)\n"
		}
	}
	pol, cfg := r.pol, r.cfg

	reg, err := attachObs(pol, *metrics, *obsOut)
	if err != nil {
		return err
	}
	defer policy.AttachPool(pol, *slotWork)()
	src, inj, err := applyRobustness(pol, r.src, *slotDL, *slotChecks, *faultsOn, r.sc.Seed, reg)
	if err != nil {
		return err
	}

	if *resumeFrom != "" {
		f, err := os.Open(*resumeFrom)
		if err != nil {
			return err
		}
		cp, err := core.ReadCheckpoint(f)
		closeErr := f.Close()
		if err != nil {
			return fmt.Errorf("reading checkpoint %s: %w", *resumeFrom, err)
		}
		if closeErr != nil {
			return closeErr
		}
		if err := pol.Restore(cp); err != nil {
			return err
		}
		// Fast-forward the composed source (generator, churn, faults,
		// sanitizer) past the slots already simulated: every layer is
		// deterministic, so skipping cp.Slot states resumes the exact trace.
		for s := 0; s < cp.Slot; s++ {
			src.Next()
		}
	}

	res, err := sim.Run(pol, src, cfg)
	if err != nil {
		return err
	}

	if *obsOut != "" {
		if err := writeObsSnapshot(*obsOut, reg); err != nil {
			return err
		}
	}

	if *saveTo != "" {
		f, err := os.Create(*saveTo)
		if err != nil {
			return err
		}
		if err := core.WriteCheckpointTo(f, pol.Checkpoint()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}

	// The degradation gate runs after outputs are written so a failing
	// CI run still ships its diagnostics.
	degradedGate := func() error {
		if !*failDegrad {
			return nil
		}
		if d := res.DegradedSlots(); d > 0 {
			return fmt.Errorf("%d of %d slots decided below RungFull (-fail-degraded)", d, cfg.Slots)
		}
		return nil
	}

	if *csv {
		if err := res.WriteCSV(os.Stdout); err != nil {
			return err
		}
		return degradedGate()
	}

	fmt.Print(r.header)
	fmt.Printf("budget:   $%.4f per slot\n", r.sc.Sys.Budget.Dollars())
	fmt.Printf("slots:    %d (%d warmup)\n\n", cfg.Slots, cfg.Warmup)
	fmt.Printf("avg latency:       %.4f s (sum over devices per slot)\n", res.AvgLatency())
	fmt.Printf("avg energy cost:   $%.4f per slot\n", res.AvgCost())
	fmt.Printf("budget satisfied:  %v (realized/budget = %.3f)\n",
		res.BudgetSatisfied(0.02), res.AvgCost()/res.Budget)
	fmt.Printf("avg queue backlog: %.3f\n", res.AvgBacklog())
	fmt.Printf("avg decision time: %v per slot\n", res.AvgDecisionTime())
	if a := res.AuditedSlots(); a > 0 {
		fmt.Printf("avg shard gap:     %+.4f%% over %d audited slots\n", res.AvgShardGap()*100, a)
	}
	if d := res.DegradedSlots(); d > 0 {
		fmt.Printf("degraded slots:    %d of %d (fallback ladder; see OPERATIONS.md)\n", d, cfg.Slots)
	}
	if inj != nil {
		fmt.Printf("faults injected:   %d\n", inj.Injections())
	}
	if r.churn > 0 {
		events := 0
		for _, c := range res.ChurnEvents {
			events += c
		}
		fmt.Printf("churn events:      %d across %d slots (final population %d devices, %d servers)\n",
			events, cfg.Slots, res.ActiveDevices[len(res.ActiveDevices)-1], res.ActiveServers[len(res.ActiveServers)-1])
	}
	return degradedGate()
}

// simRun is one assembled run: the scenario, its state stream before
// fault injection, the policy, and the horizon, built from -config or
// from the scenario and controller flags. Everything after the build
// (observability, worker pool, faults, resume, outputs) is shared.
type simRun struct {
	sc     *experiments.Scenario
	src    trace.Source
	pol    policy.Policy
	cfg    sim.Config
	churn  float64 // churn intensity, for the summary
	header string  // the summary's scenario and policy lines
}

// configRun builds the run a JSON run spec describes (experiments.RunSpec).
func configRun(path string) (simRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return simRun{}, err
	}
	spec, err := experiments.LoadRunSpec(f)
	closeErr := f.Close()
	if err != nil {
		return simRun{}, fmt.Errorf("loading %s: %w", path, err)
	}
	if closeErr != nil {
		return simRun{}, closeErr
	}
	sc, gen, ctrl, cfg, err := spec.Build()
	if err != nil {
		return simRun{}, err
	}
	header := scenarioLine("config "+path, sc) +
		fmt.Sprintf("policy:   %s (%s-based DPP), V=%g, z=%d, λ=%g\n", ctrl.Name(), ctrl.SolverName(), ctrl.V(), ctrl.Z(), ctrl.Lambda())
	return simRun{sc: sc, src: gen, pol: ctrl, cfg: cfg, header: header}, nil
}

// scenarioLine is the summary's first line: where the scenario came from
// and its size.
func scenarioLine(origin string, sc *experiments.Scenario) string {
	k, m, n, i := sc.Net.Counts()
	return fmt.Sprintf("scenario: %s, %d base stations, %d rooms, %d servers, %d devices (seed %d)\n", origin, k, m, n, i, sc.Seed)
}

// loadPrices reads the price series of -price-csv.
func loadPrices(path, column string) ([]units.Price, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	prices, err := trace.LoadPriceCSV(f, column)
	closeErr := f.Close()
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return prices, closeErr
}

// applyRobustness arms the policy's per-slot deadline (when either budget
// is set; an error when the policy has no deadline capability) and, when
// injectFaults is on, wraps src in the standard fault stack
// (faults.NewSanitized), whose repairs reg (nil = none) counts under
// trace.repairs. The returned source is what the simulation should
// consume; the injector is returned for post-run reporting (nil when
// fault injection is off). Policies without a timed solve skip the stall
// leg but still see the corrupted traces.
func applyRobustness(pol policy.Policy, src trace.Source, deadline time.Duration, checks int, injectFaults bool, seed int64, reg *obs.Registry) (trace.Source, *faults.Injector, error) {
	if deadline > 0 || checks > 0 {
		ds, ok := pol.(policy.DeadlineSetter)
		if !ok {
			return nil, nil, fmt.Errorf("-slot-deadline/-slot-checks apply only to the bdma family (policy %s has no degradation ladder)", pol.Name())
		}
		ds.SetSlotDeadline(deadline, checks)
	}
	if !injectFaults {
		return src, nil, nil
	}
	st, _ := pol.(faults.Staller)
	san, inj, err := faults.NewSanitized(faults.DefaultConfig(seed), len(pol.System().Net.Servers), src, st, reg)
	if err != nil {
		return nil, nil, err
	}
	return san, inj, nil
}
