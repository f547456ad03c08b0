// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document, so benchmark runs can be archived per
// revision (BENCH_<rev>.json) and diffed across PRs. The input is the
// standard benchmark format benchstat consumes; context lines (goos,
// goarch, cpu, pkg) are folded into the header, everything else passes
// through untouched in each entry's Raw field.
//
// It also diffs two archived reports:
//
//	benchjson -compare BENCH_old.json,BENCH_new.json -threshold 1.25
//
// prints a per-benchmark ratio table (new/old ns/op for benchmarks present
// in both) and exits non-zero when any common benchmark regressed past the
// threshold. Machines differ across CI runs, so the compare is advisory —
// CI's informational bench job runs it without gating the build.
//
// The gating mode layers a hard budget on top of the same compare:
//
//	benchjson -compare old.json,new.json -max-regress 0.15 -gate 'ControllerStep|CGBA'
//
// fails (exit 2) when any common benchmark matching -gate regressed more
// than 15% in ns/op, or allocated more per op at all (allocs/op is
// machine-independent, so its budget is zero). CI's bench-gate job runs
// this against the newest committed BENCH_<rev>.json baseline.
// Benchmarks match on name and GOMAXPROCS suffix, so both files must be
// recorded at the same -cpu; a gate that finds no gated benchmark in
// both files fails (exit 1) instead of passing on an empty compare.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./internal/... | benchjson -rev abc1234 -out BENCH_abc1234.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one result line.
type Benchmark struct {
	// Name is the full benchmark path without the -procs suffix, e.g.
	// "BenchmarkControllerStep/devices=300".
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix of the run (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the reported timing.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the ns/op column.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are the -benchmem columns; absent
	// columns stay zero with Benchmem false.
	BytesPerOp  float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Benchmem records whether allocation columns were present.
	Benchmem bool `json:"benchmem"`
	// Raw is the unmodified input line, for benchstat replay.
	Raw string `json:"raw"`
}

// Report is the document benchjson emits.
type Report struct {
	// Rev identifies the source revision (-rev flag).
	Rev string `json:"rev"`
	// Go, GOOS, GOARCH, and CPU describe the machine that ran the
	// benchmarks; the first three fall back to the converting toolchain
	// when the input lacks context lines.
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu,omitempty"`
	// Packages lists the pkg: lines seen, in order.
	Packages []string `json:"packages,omitempty"`
	// Benchmarks holds every parsed result line, in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	rev := flag.String("rev", "unknown", "revision identifier recorded in the report")
	out := flag.String("out", "", "output file (default stdout)")
	compare := flag.String("compare", "", "compare two archived reports: old.json,new.json (skips stdin conversion)")
	threshold := flag.Float64("threshold", 1.25, "with -compare, exit non-zero when any common benchmark's new/old ns/op ratio exceeds this")
	maxRegress := flag.Float64("max-regress", 0, "with -compare, gate hard: fail when a -gate benchmark regressed more than this fraction in ns/op (e.g. 0.15 = 15%) or added any allocs/op; 0 keeps the advisory -threshold mode")
	gate := flag.String("gate", "ControllerStep|CGBA", "with -max-regress, regexp selecting the gated benchmark names")
	flag.Parse()

	if *compare != "" {
		gateRE, err := regexp.Compile(*gate)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: -gate:", err)
			os.Exit(1)
		}
		regressed, err := runCompare(os.Stdout, *compare, *threshold, *maxRegress, gateRE)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(2)
		}
		return
	}

	report, err := parse(os.Stdin, *rev)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchjson:", err)
				os.Exit(1)
			}
		}()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(r io.Reader, rev string) (*Report, error) {
	report := &Report{
		Rev:    rev,
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			report.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			report.Packages = append(report.Packages, strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseBenchLine(line); ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(report.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on input")
	}
	return report, nil
}

// runCompare loads "old.json,new.json", prints a ratio table of the
// benchmarks common to both, and reports whether anything regressed.
// With maxRegress == 0 it is the advisory mode: any common benchmark
// whose ns/op ratio exceeds threshold regresses the result. With
// maxRegress > 0 it is the gating mode: only benchmarks matching gateRE
// are budgeted — more than maxRegress fractional ns/op growth, or any
// allocs/op growth (allocation counts are machine-independent), fails.
// Benchmarks present on only one side are listed but never regress the
// result; in the gating mode, finding no gated benchmark on both sides is
// an error.
func runCompare(w io.Writer, spec string, threshold, maxRegress float64, gateRE *regexp.Regexp) (regressed bool, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return false, fmt.Errorf("-compare wants old.json,new.json, got %q", spec)
	}
	oldRep, err := loadReport(strings.TrimSpace(parts[0]))
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(strings.TrimSpace(parts[1]))
	if err != nil {
		return false, err
	}
	oldBy := make(map[string]Benchmark, len(oldRep.Benchmarks))
	for _, b := range oldRep.Benchmarks {
		oldBy[fmt.Sprintf("%s-%d", b.Name, b.Procs)] = b
	}
	if maxRegress > 0 {
		fmt.Fprintf(w, "comparing %s (%s) -> %s (%s), gating %q at +%.0f%% ns/op, +0 allocs/op\n",
			parts[0], oldRep.Rev, parts[1], newRep.Rev, gateRE, 100*maxRegress)
	} else {
		fmt.Fprintf(w, "comparing %s (%s) -> %s (%s), threshold %.2fx\n",
			parts[0], oldRep.Rev, parts[1], newRep.Rev, threshold)
	}
	common, gated := 0, 0
	for _, b := range newRep.Benchmarks {
		key := fmt.Sprintf("%s-%d", b.Name, b.Procs)
		prev, ok := oldBy[key]
		if !ok {
			fmt.Fprintf(w, "  %-60s new benchmark (%.0f ns/op)\n", key, b.NsPerOp)
			continue
		}
		common++
		delete(oldBy, key)
		ratio := b.NsPerOp / prev.NsPerOp
		mark := ""
		switch {
		case maxRegress > 0:
			if !gateRE.MatchString(b.Name) {
				mark = "  (ungated)"
				break
			}
			gated++
			if ratio > 1+maxRegress {
				mark = "  REGRESSED (ns/op)"
				regressed = true
			}
			if prev.Benchmem && b.Benchmem && b.AllocsPerOp > prev.AllocsPerOp {
				mark += fmt.Sprintf("  REGRESSED (allocs/op %.0f -> %.0f)", prev.AllocsPerOp, b.AllocsPerOp)
				regressed = true
			}
		case ratio > threshold:
			mark = "  REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "  %-60s %.0f -> %.0f ns/op (%.2fx)%s\n", key, prev.NsPerOp, b.NsPerOp, ratio, mark)
	}
	for key := range oldBy {
		fmt.Fprintf(w, "  %-60s removed\n", key)
	}
	if common == 0 {
		fmt.Fprintln(w, "  no common benchmarks")
	}
	if maxRegress > 0 && gated == 0 {
		return regressed, fmt.Errorf("no benchmark matching -gate %q is in both reports (names include the -cpu suffix)", gateRE)
	}
	return regressed, nil
}

// loadReport reads one archived benchjson document.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &rep, nil
}

// parseBenchLine decodes one "BenchmarkName-P N v ns/op [v B/op v
// allocs/op] ..." line. Unknown unit columns are ignored rather than
// rejected, so custom b.ReportMetric units pass through via Raw.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Procs: 1, Raw: line}
	if i := strings.LastIndex(b.Name, "-"); i > 0 {
		if p, err := strconv.Atoi(b.Name[i+1:]); err == nil && p > 0 {
			b.Name, b.Procs = b.Name[:i], p
		}
	}
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b.Iterations = n
	sawNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp, sawNs = v, true
		case "B/op":
			b.BytesPerOp, b.Benchmem = v, true
		case "allocs/op":
			b.AllocsPerOp, b.Benchmem = v, true
		}
	}
	return b, sawNs
}
