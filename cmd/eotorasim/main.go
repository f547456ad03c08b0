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
	"eotora/internal/par"
	"eotora/internal/policy"
	"eotora/internal/sim"
	"eotora/internal/topology"
	"eotora/internal/trace"
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
		configFile = fs.String("config", "", "JSON run-spec file; flags for scenario/controller are ignored when set")
		saveTo     = fs.String("checkpoint", "", "write a checkpoint file after the run")
		metrics    = fs.String("metrics", "", "serve expvar (/debug/vars) and pprof (/debug/pprof) on this address during the run, e.g. :6060")
		obsOut     = fs.String("obs-out", "", "write the observability snapshot here after the run (.csv → CSV, else JSON)")
		slotWork   = fs.Int("slot-workers", 0, "intra-slot solver workers (0 = all cores, 1 = serial); results are bit-identical at any setting")
		slotDL     = fs.Duration("slot-deadline", 0, "per-slot wall-clock budget for the solver (0 = none); expired slots fall down the degradation ladder (see OPERATIONS.md)")
		slotChecks = fs.Int("slot-checks", 0, "per-slot solver checkpoint budget (0 = none); deterministic alternative to -slot-deadline")
		faultsOn   = fs.Bool("faults", false, "inject seeded faults (trace corruption, outages, capacity loss, solver stalls) with the soak profile; repairs via trace.Sanitizer stay on")
		churn      = fs.Float64("churn", 0, "population churn intensity: scales the default join/leave/handover/server-event probabilities (0 = fixed population, 1 = default regime)")
		failDegrad = fs.Bool("fail-degraded", false, "exit non-zero if any slot was decided below RungFull (degradation ladder engaged); the scale-smoke CI gate")
		topoName   = fs.String("topology", "default", "topology preset: default, urban, rural, campus, or metro")
		shards     = fs.Int("shards", 0, "shard the slot solve into per-cluster games (0 or 1 = off, -1 = one shard per topology cluster, ≥2 = at most that many; see OPERATIONS.md)")
		shardAudit = fs.Int("shard-audit", 0, "audit the sharded solve's optimality gap every N full-rung slots (0 = off; requires -shards)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *configFile != "" {
		return runFromConfig(*configFile, *csv, *saveTo, *resumeFrom, *metrics, *obsOut, *slotWork)
	}

	spec, err := topology.SpecByName(*topoName, *devices)
	if err != nil {
		return err
	}
	sc, err := experiments.NewScenario(experiments.ScenarioOptions{
		Devices:        *devices,
		Spec:           &spec,
		BudgetFraction: *budgetFrac,
	}, *seed)
	if err != nil {
		return err
	}
	genCfg := trace.DefaultGeneratorConfig()
	if *priceCSV != "" {
		f, err := os.Open(*priceCSV)
		if err != nil {
			return err
		}
		prices, err := trace.LoadPriceCSV(f, *priceCol)
		closeErr := f.Close()
		if err != nil {
			return fmt.Errorf("loading %s: %w", *priceCSV, err)
		}
		if closeErr != nil {
			return closeErr
		}
		genCfg.PriceSeries = prices
	}
	gen, err := sc.Generator(genCfg)
	if err != nil {
		return err
	}

	var pol policy.Policy
	if *polName == policy.BDMA {
		var ctrl *core.Controller
		switch *solverName {
		case "cgba":
			ctrl, err = core.NewBDMAController(sc.Sys, *v, *z, *lambda, *seed)
		case "mcba":
			ctrl, err = core.NewMCBAController(sc.Sys, *v, *z, *seed)
		case "ropt":
			ctrl, err = core.NewROPTController(sc.Sys, *v, *z, *seed)
		default:
			return fmt.Errorf("unknown solver %q (want cgba, mcba, or ropt)", *solverName)
		}
		if err != nil {
			return err
		}
		if *shards != 0 {
			if err := ctrl.SetShards(*shards); err != nil {
				return err
			}
		}
		if *shardAudit > 0 {
			if *shards == 0 {
				return fmt.Errorf("-shard-audit requires -shards")
			}
			ctrl.SetShardAudit(*shardAudit)
		}
		pol = ctrl
	} else {
		// The controller-only knobs stay with -policy bdma: the tuner owns
		// its own λ schedule, and the baselines run no solver.
		if *solverName != "cgba" {
			return fmt.Errorf("-solver applies only to -policy bdma (got -policy %s)", *polName)
		}
		if *shards != 0 || *shardAudit > 0 {
			return fmt.Errorf("-shards/-shard-audit apply only to -policy bdma (got -policy %s)", *polName)
		}
		pol, err = policy.New(*polName, sc.Sys, policy.Config{
			V: *v, Rounds: *z, Lambda: *lambda, Seed: *seed,
		})
		if err != nil {
			return err
		}
	}

	reg, err := attachObs(pol, *metrics, *obsOut)
	if err != nil {
		return err
	}
	defer attachPool(pol, *slotWork)()

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
		// Fast-forward the state source past the slots already simulated:
		// the generator is deterministic, so skipping cp.Slot states
		// resumes the exact trace.
		for s := 0; s < cp.Slot; s++ {
			gen.Next()
		}
	}

	var base trace.Source = gen
	if *churn > 0 {
		base, err = trace.NewChurnSchedule(scaledChurn(*churn, *seed), sc.Net, gen)
		if err != nil {
			return err
		}
	}
	src, inj, err := applyRobustness(pol, base, *slotDL, *slotChecks, *faultsOn, *seed, reg)
	if err != nil {
		return err
	}

	res, err := sim.Run(pol, src, sim.Config{Slots: *slots, Warmup: *warmup})
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
			return fmt.Errorf("%d of %d slots decided below RungFull (-fail-degraded)", d, *slots)
		}
		return nil
	}

	if *csv {
		if err := res.WriteCSV(os.Stdout); err != nil {
			return err
		}
		return degradedGate()
	}

	k, m, n, i := sc.Net.Counts()
	fmt.Printf("scenario: %s topology, %d base stations, %d rooms, %d servers, %d devices (seed %d)\n", *topoName, k, m, n, i, *seed)
	if sn, ok := pol.(policy.SolverNamer); ok {
		fmt.Printf("policy:   %s (%s-based DPP), V=%g, z=%d, λ=%g\n", pol.Name(), sn.SolverName(), *v, *z, *lambda)
	} else {
		fmt.Printf("policy:   %s, V=%g\n", pol.Name(), *v)
	}
	if *shards != 0 {
		if *shards == core.ShardsAuto {
			fmt.Printf("sharding: one shard per topology cluster (-shards -1)\n")
		} else {
			fmt.Printf("sharding: up to %d shards\n", *shards)
		}
	}
	fmt.Printf("budget:   $%.4f per slot\n", sc.Sys.Budget.Dollars())
	fmt.Printf("slots:    %d (%d warmup)\n\n", *slots, *warmup)
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
		fmt.Printf("degraded slots:    %d of %d (fallback ladder; see OPERATIONS.md)\n", d, *slots)
	}
	if inj != nil {
		fmt.Printf("faults injected:   %d\n", inj.Injections())
	}
	if *churn > 0 {
		events := 0
		for _, c := range res.ChurnEvents {
			events += c
		}
		fmt.Printf("churn events:      %d across %d slots (final population %d devices, %d servers)\n",
			events, *slots, res.ActiveDevices[len(res.ActiveDevices)-1], res.ActiveServers[len(res.ActiveServers)-1])
	}
	return degradedGate()
}

// scaledChurn returns the default churn regime with every event
// probability multiplied by intensity (clamped to 1).
func scaledChurn(intensity float64, seed int64) trace.ChurnConfig {
	cfg := trace.DefaultChurnConfig(seed)
	clamp := func(p float64) float64 {
		p *= intensity
		if p > 1 {
			return 1
		}
		return p
	}
	cfg.DeviceJoinProb = clamp(cfg.DeviceJoinProb)
	cfg.DeviceLeaveProb = clamp(cfg.DeviceLeaveProb)
	cfg.HandoverProb = clamp(cfg.HandoverProb)
	cfg.ServerRemoveProb = clamp(cfg.ServerRemoveProb)
	cfg.ServerAddProb = clamp(cfg.ServerAddProb)
	return cfg
}

// applyRobustness arms the policy's per-slot deadline (when either budget
// is set; an error when the policy has no deadline capability) and, when
// injectFaults is on, wraps src in a seeded fault injector with a
// repairing trace.Sanitizer on top, whose repairs reg (nil = none) counts
// under trace.repairs. The returned source is what the simulation should
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
	inj, err := faults.NewInjector(faults.DefaultConfig(seed), len(pol.System().Net.Servers), src)
	if err != nil {
		return nil, nil, err
	}
	if st, ok := pol.(faults.Staller); ok {
		inj.Attach(st)
	}
	san := trace.NewSanitizer(inj)
	san.Instrument(reg)
	return san, inj, nil
}

// attachPool gives the policy an intra-slot worker pool of the requested
// size (0 = GOMAXPROCS, ≤1 = stay serial) and returns the cleanup that
// releases the workers. Parallel slot solves are bit-identical to serial,
// so the flag only changes wall-clock time; policies without the
// capability simply stay serial.
func attachPool(pol policy.Policy, workers int) func() {
	ps, ok := pol.(policy.PoolSetter)
	if !ok || workers == 1 {
		return func() {}
	}
	pool := par.New(workers)
	ps.SetPool(pool)
	return pool.Close
}

// runFromConfig executes a JSON run spec.
func runFromConfig(path string, csv bool, saveTo, resumeFrom, metricsAddr, obsOut string, slotWork int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	spec, err := experiments.LoadRunSpec(f)
	closeErr := f.Close()
	if err != nil {
		return fmt.Errorf("loading %s: %w", path, err)
	}
	if closeErr != nil {
		return closeErr
	}
	sc, gen, ctrl, cfg, err := spec.Build()
	if err != nil {
		return err
	}
	reg, err := attachObs(ctrl, metricsAddr, obsOut)
	if err != nil {
		return err
	}
	defer attachPool(ctrl, slotWork)()
	if resumeFrom != "" {
		cf, err := os.Open(resumeFrom)
		if err != nil {
			return err
		}
		cp, err := core.ReadCheckpoint(cf)
		closeErr := cf.Close()
		if err != nil {
			return fmt.Errorf("reading checkpoint %s: %w", resumeFrom, err)
		}
		if closeErr != nil {
			return closeErr
		}
		if err := ctrl.Restore(cp); err != nil {
			return err
		}
		for s := 0; s < cp.Slot; s++ {
			gen.Next()
		}
	}
	metrics, err := sim.Run(ctrl, gen, cfg)
	if err != nil {
		return err
	}
	if obsOut != "" {
		if err := writeObsSnapshot(obsOut, reg); err != nil {
			return err
		}
	}
	if saveTo != "" {
		cf, err := os.Create(saveTo)
		if err != nil {
			return err
		}
		if err := ctrl.WriteCheckpoint(cf); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
	}
	if csv {
		return metrics.WriteCSV(os.Stdout)
	}
	k, m, n, i := sc.Net.Counts()
	fmt.Printf("config:   %s\n", path)
	fmt.Printf("scenario: %d base stations, %d rooms, %d servers, %d devices\n", k, m, n, i)
	fmt.Printf("controller: %s-based DPP, V=%g\n", ctrl.SolverName(), ctrl.V())
	fmt.Printf("budget:   $%.4f per slot\n\n", sc.Sys.Budget.Dollars())
	fmt.Printf("avg latency:       %.4f s\n", metrics.AvgLatency())
	fmt.Printf("avg energy cost:   $%.4f per slot (within budget: %v)\n", metrics.AvgCost(), metrics.BudgetSatisfied(0.02))
	fmt.Printf("avg queue backlog: %.3f\n", metrics.AvgBacklog())
	fmt.Printf("avg decision time: %v per slot\n", metrics.AvgDecisionTime())
	return nil
}
