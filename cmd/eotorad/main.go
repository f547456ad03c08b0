// Command eotorad is the EOTORA streaming controller daemon: the online
// serve mode of the paper's per-slot Lyapunov controller. It ingests
// state-update events over HTTP (device churn, channel reports, demand
// moves, price ticks, server lifecycle), batches them into slot ticks on
// a configurable cadence, drives the slot solve — per-slot P2-A
// rebuild, sweep loop, sharding, and the degradation ladder all apply —
// and publishes per-slot decisions to poll/long-poll consumers.
// See OPERATIONS.md §11 for the runbook and DESIGN.md §14 for the
// architecture.
//
// Usage:
//
//	eotorad -listen :8080 -devices 150 -tick 100ms
//	eotorad -restore snap.json -snapshot snap.json -snapshot-every 30s
//	eotorad -tick 0            # manual mode: slots advance via POST /v1/tick
//	eotorad -policy greedy-energy -tick 100ms   # serve a comparison baseline
//
// Drive it with cmd/loadgen, or directly:
//
//	curl -s -X POST localhost:8080/v1/events -d '[{"kind":"price","value":83.5}]'
//	curl -s 'localhost:8080/v1/decisions?since=12&wait=5s'
//	curl -s localhost:8080/v1/status
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eotora/internal/experiments"
	"eotora/internal/obs"
	"eotora/internal/policy"
	"eotora/internal/serve"
	"eotora/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eotorad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("eotorad", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", ":8080", "HTTP listen address for the API, /debug/vars, and /debug/pprof")
		devices    = fs.Int("devices", 100, "number of mobile devices I in the fixed universe")
		topoName   = fs.String("topology", "default", "topology preset: default, urban, rural, campus, or metro")
		budgetFrac = fs.Float64("budget-frac", 0.5, "budget position in [all-F^L, all-F^U] cost range")
		v          = fs.Float64("v", 100, "drift-plus-penalty weight V")
		z          = fs.Int("z", 5, "BDMA alternation rounds")
		lambda     = fs.Float64("lambda", 0, "CGBA λ in [0, 0.125)")
		seed       = fs.Int64("seed", 1, "random seed shared with the load source")
		polName    = fs.String("policy", policy.BDMA, "decision policy: "+strings.Join(policy.Names(), ", "))
		churn      = fs.Float64("churn", 0, "churn intensity of the expected stream (must match the load source so the initial population agrees)")
		tick       = fs.Duration("tick", 100*time.Millisecond, "slot cadence (0 = manual: slots advance only via POST /v1/tick)")
		queueCap   = fs.Int("queue-cap", 65536, "ingest queue bound in events; overflow is shed and counted")
		maxBatch   = fs.Int("max-batch", 0, "max events applied per tick, rest carried (0 = whole queue)")
		degradeAt  = fs.Float64("degrade-at", 0.75, "queue-occupancy fraction that escalates to the tighter slot budget (0 = never)")
		escDL      = fs.Duration("escalate-deadline", 0, "wall-clock slot budget while escalated (0 = tick/2 when escalation is armed)")
		escChecks  = fs.Int("escalate-checks", 0, "counted slot budget while escalated (deterministic alternative)")
		slotDL     = fs.Duration("slot-deadline", 0, "steady-state wall-clock slot budget (0 = none; see OPERATIONS.md)")
		slotChecks = fs.Int("slot-checks", 0, "steady-state counted slot budget (0 = none)")
		slotWork   = fs.Int("slot-workers", 0, "intra-slot solver workers for the sharded solve (0 = all cores, 1 = serial); matters only with -shards -1")
		shards     = fs.Int("shards", 0, "shard the slot solve (0/1 = off, -1 = one shard per topology cluster)")
		snapshotTo = fs.String("snapshot", "", "snapshot file written every -snapshot-every and on shutdown")
		snapEvery  = fs.Duration("snapshot-every", 30*time.Second, "periodic snapshot cadence (with -snapshot)")
		restore    = fs.String("restore", "", "snapshot file to restore before serving (resume without warmup)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The initial state β_1 is derived from the shared seed through the
	// same stream the load source builds, churn included, so the initial
	// population agrees too.
	sc, src, err := experiments.PresetStream(*topoName, *devices, *budgetFrac, *seed, *churn, trace.DefaultGeneratorConfig())
	if err != nil {
		return err
	}
	initial := src.Next()

	pol, err := experiments.NewPolicy(sc.Sys, *polName, "cgba", *v, *z, *lambda, *seed, *shards, 0)
	if err != nil {
		return err
	}
	defer policy.AttachPool(pol, *slotWork)()

	_, canDeadline := pol.(policy.DeadlineSetter)
	if *degradeAt > 0 && *escDL == 0 && *escChecks == 0 && *tick > 0 && canDeadline {
		// Escalation armed with no explicit budget: give an escalated
		// slot half the tick so the queue drains within a cadence or two.
		*escDL = *tick / 2
	}
	if *degradeAt > 0 && !canDeadline {
		// Policies without a degradation ladder cannot solve under a
		// tighter budget; backpressure still sheds at the queue bound.
		*degradeAt = 0
	}
	daemon, err := serve.NewDaemon(pol, initial, serve.Config{
		Tick:             *tick,
		QueueCap:         *queueCap,
		MaxBatch:         *maxBatch,
		DegradeAt:        *degradeAt,
		EscalateDeadline: *escDL,
		EscalateChecks:   *escChecks,
		SlotDeadline:     *slotDL,
		SlotChecks:       *slotChecks,
	})
	if err != nil {
		return err
	}
	reg := obs.New()
	daemon.SetObs(reg)
	if err := reg.PublishExpvar("eotora"); err != nil {
		return err
	}

	if *restore != "" {
		f, err := os.Open(*restore)
		if err != nil {
			return err
		}
		snap, err := serve.ReadSnapshot(f)
		closeErr := f.Close()
		if err != nil {
			return fmt.Errorf("reading snapshot %s: %w", *restore, err)
		}
		if closeErr != nil {
			return closeErr
		}
		if err := daemon.Restore(snap); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "eotorad: restored %s at slot %d (backlog %.3f)\n",
			*restore, daemon.Status().Slot, daemon.Status().Backlog)
	}

	mux := http.NewServeMux()
	mux.Handle("/", daemon.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	k, m, n, i := sc.Net.Counts()
	polDesc := "policy " + pol.Name()
	if sn, ok := pol.(policy.SolverNamer); ok {
		polDesc = fmt.Sprintf("policy %s (%s-based DPP)", pol.Name(), sn.SolverName())
	}
	fmt.Fprintf(os.Stderr, "eotorad: %s topology (%d stations, %d rooms, %d servers, %d devices), %s V=%g, seed %d\n",
		*topoName, k, m, n, i, polDesc, *v, *seed)
	if *tick > 0 {
		fmt.Fprintf(os.Stderr, "eotorad: ticking every %v; API on http://%s\n", *tick, ln.Addr())
		go func() {
			_ = daemon.Run(ctx, func(err error) {
				fmt.Fprintln(os.Stderr, "eotorad:", err)
			})
		}()
	} else {
		fmt.Fprintf(os.Stderr, "eotorad: manual mode (POST /v1/tick); API on http://%s\n", ln.Addr())
	}

	if *snapshotTo != "" && *snapEvery > 0 {
		go func() {
			tk := time.NewTicker(*snapEvery)
			defer tk.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tk.C:
					if err := writeSnapshotFile(daemon, *snapshotTo); err != nil {
						fmt.Fprintln(os.Stderr, "eotorad: snapshot:", err)
					}
				}
			}
		}()
	}

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	if *snapshotTo != "" {
		if err := writeSnapshotFile(daemon, *snapshotTo); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "eotorad: snapshot written to %s at slot %d\n", *snapshotTo, daemon.Status().Slot)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}

// writeSnapshotFile writes the snapshot atomically: to a temp file in the
// target directory, then rename, so a crash mid-write never corrupts the
// restore point.
func writeSnapshotFile(d *serve.Daemon, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := d.WriteSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
