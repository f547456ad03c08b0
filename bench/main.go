// Command eotora-bench is the repository benchmark. It drives the system
// the way its users do and judges each slot on speed and on decision
// quality together: the batch workloads call policy.Policy.Decide
// in-process, as sim.Run does, and the serve workload streams events to a
// real eotorad subprocess over HTTP. Every call is timed from outside and
// every output is checked; README.md lists the workloads, metrics and
// bounds.
//
// Usage (bench/run.sh builds both binaries first):
//
//	eotora-bench -eotorad bin/eotorad -workload paper-1k -seed 1 -seconds 20 -trace 0
//	eotora-bench -eotorad bin/eotorad -repeat 5        # every workload, 5 fresh processes each
//	eotora-bench -eotorad bin/eotorad -workload metro-churn-20k -trace 1 -spans spans.jsonl
//
// A single run prints one `<workload> <metric> <value> <unit>` line per
// metric, the decision digest, and, as its last line, a JSON object with
// the keys correct, attempted, failed and metrics. Any failed check makes
// the command exit non-zero.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("eotora-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run this workload only (default: every workload, each in its own process)")
		seed     = fs.Int64("seed", 1, "seed every workload input is generated from")
		seconds  = fs.Float64("seconds", 20, "nominal measured seconds per run; a run times seconds × the workload's nominal slot rate")
		traced   = fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics and spans")
		spansOut = fs.String("spans", "", "write the traced run's spans to this file as JSON lines (needs -workload)")
		repeat   = fs.Int("repeat", 1, "run each workload this many times in fresh processes and report median and quartiles")
		eotorad  = fs.String("eotorad", "", "eotorad binary the serve workload starts")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "eotora-bench: -trace must be 0 or 1")
		return 2
	}
	if *seconds < 0 || *repeat < 1 {
		fmt.Fprintln(stderr, "eotora-bench: -seconds must be ≥ 0 and -repeat ≥ 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *traced == 1, pool: 2, eotorad: *eotorad}

	if *name == "" || *repeat > 1 {
		if *spansOut != "" {
			fmt.Fprintln(stderr, "eotora-bench: -spans needs -workload and -repeat 1")
			return 2
		}
		return orchestrate(*name, *repeat, cfg, stdout, stderr)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "eotora-bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "eotora-bench: %s: %v\n", w.name, err)
		return 1
	}
	if *spansOut != "" {
		if err := res.spans.writeFile(*spansOut); err != nil {
			fmt.Fprintf(stderr, "eotora-bench: writing spans: %v\n", err)
			return 1
		}
	}
	if err := res.print(stdout, cfg.traced); err != nil {
		fmt.Fprintf(stderr, "eotora-bench: %v\n", err)
		return 1
	}
	if res.failed > 0 {
		fmt.Fprintf(stderr, "eotora-bench: %s: %d of %d checks failed; first: %v\n", w.name, res.failed, res.attempted, res.firstErr)
		return 1
	}
	return 0
}

// jsonMetric and jsonResult are the wire form of a run's last line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes one line per metric and per note, the digest and the
// failure count, then the JSON result line. A traced run reports the per-layer metrics
// and its span summary instead of the end-to-end metrics.
func (r *result) print(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := jsonResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	var b strings.Builder
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.workload, d.name)
		}
		fmt.Fprintf(&b, "%s %s %s %s\n", r.workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(&b, "%s %s %s %s\n", r.workload, n.name, strconv.FormatFloat(n.value, 'g', -1, 64), n.unit)
	}
	fmt.Fprintf(&b, "%s decision_digest %016x fnv64a\n", r.workload, r.digest)
	fmt.Fprintf(&b, "%s failed_frac %s 1\n", r.workload, strconv.FormatFloat(float64(r.failed)/float64(max(r.attempted, 1)), 'g', -1, 64))
	r.spans.summarize(&b, r.workload)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	b.Write(line)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// orchestrate runs the named workload (or all of them) repeat times, each
// run in a fresh process of this binary so that set-up and memory are
// measured from a cold start, and prints every metric's median and
// quartiles. The last line is a JSON summary.
func orchestrate(only string, repeat int, cfg runConfig, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "eotora-bench: %v\n", err)
		return 1
	}
	names := workloadNames()
	if only != "" {
		if _, ok := lookup(only); !ok {
			fmt.Fprintf(stderr, "eotora-bench: unknown workload %q (have %s)\n", only, strings.Join(names, ", "))
			return 2
		}
		names = []string{only}
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	type stat struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Unit   string  `json:"unit"`
	}
	summary := struct {
		NumCPU    int                        `json:"nproc"`
		GoVersion string                     `json:"go"`
		Seed      int64                      `json:"seed"`
		Seconds   float64                    `json:"seconds"`
		Repeat    int                        `json:"repeat"`
		Traced    bool                       `json:"traced"`
		Digests   map[string]string          `json:"decision_digest"`
		Workloads map[string]map[string]stat `json:"workloads"`
	}{runtime.NumCPU(), runtime.Version(), cfg.seed, cfg.seconds, repeat, cfg.traced, map[string]string{}, map[string]map[string]stat{}}

	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		digests := map[string]bool{}
		for i := 0; i < repeat; i++ {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", boolArg(cfg.traced), "-eotorad", cfg.eotorad}
			res, digest, err := runChild(self, args, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "eotora-bench: %s run %d: %v\n", name, i+1, err)
				status = 1
				continue
			}
			digests[digest] = true
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
			}
		}
		if len(digests) > 1 {
			fmt.Fprintf(stderr, "eotora-bench: %s: decision digests differ across runs of seed %d\n", name, cfg.seed)
			status = 1
		}
		for d := range digests {
			summary.Digests[name] = d
		}
		stats := map[string]stat{}
		for _, d := range defs {
			xs := values[d.name]
			if len(xs) == 0 {
				continue
			}
			s := stat{Median: quantile(xs, 0.5), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75), Unit: d.unit}
			stats[d.name] = s
			fmt.Fprintf(stdout, "%s %s %s %s q1=%s q3=%s n=%d\n", name, d.name, fmtFloat(s.Median), d.unit, fmtFloat(s.Q1), fmtFloat(s.Q3), len(xs))
		}
		summary.Workloads[name] = stats
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintf(stderr, "eotora-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return status
}

// runChild runs one single-workload process and returns its JSON result
// and decision digest. A run that exits non-zero or reports a failed
// check is an error.
func runChild(self string, args []string, stderr io.Writer) (jsonResult, string, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var res jsonResult
	var last, digest string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) == 4 && f[1] == "decision_digest" {
			digest = f[2]
		}
	}
	if runErr != nil {
		return res, "", runErr
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, "", fmt.Errorf("reading result line: %w", err)
	}
	if !res.Correct {
		return res, "", errors.New("run reported failed checks")
	}
	return res, digest, nil
}

func boolArg(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// workloadNames lists the workloads in run order.
func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
