package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: eotora/internal/core
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkControllerStep/devices=25-8         	    1024	   1170531 ns/op	     120 B/op	       3 allocs/op
BenchmarkControllerStep/devices=300-8        	      24	  48012345 ns/op	     512 B/op	       9 allocs/op
BenchmarkSolveP2B-8   	  250000	      4569 ns/op
PASS
ok  	eotora/internal/core	12.3s
`

func TestParse(t *testing.T) {
	r, err := parse(strings.NewReader(sample), "abc1234")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rev != "abc1234" || r.GOOS != "linux" || r.GOARCH != "amd64" {
		t.Errorf("header = %+v", r)
	}
	if r.CPU == "" || len(r.Packages) != 1 {
		t.Errorf("context lines lost: %+v", r)
	}
	if len(r.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(r.Benchmarks))
	}
	b := r.Benchmarks[1]
	if b.Name != "BenchmarkControllerStep/devices=300" || b.Procs != 8 {
		t.Errorf("name/procs = %q/%d", b.Name, b.Procs)
	}
	if b.Iterations != 24 || b.NsPerOp != 48012345 || b.AllocsPerOp != 9 || !b.Benchmem {
		t.Errorf("columns = %+v", b)
	}
	if p2b := r.Benchmarks[2]; p2b.Benchmem || p2b.NsPerOp != 4569 {
		t.Errorf("no-benchmem line = %+v", p2b)
	}
	if !strings.Contains(r.Benchmarks[0].Raw, "1170531 ns/op") {
		t.Errorf("raw line lost: %q", r.Benchmarks[0].Raw)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\n"), "x"); err == nil {
		t.Error("benchmark-free input accepted")
	}
}

// writeReport marshals a Report into dir and returns its path.
func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareMaxRegress covers the gating mode's budget arithmetic: the
// ns/op fraction, the zero allocs/op budget, and the gate filter.
func TestCompareMaxRegress(t *testing.T) {
	base := Report{Rev: "old", Benchmarks: []Benchmark{
		{Name: "BenchmarkControllerStep/devices=300", Procs: 8, NsPerOp: 1000, AllocsPerOp: 5, Benchmem: true},
		{Name: "BenchmarkCGBA", Procs: 8, NsPerOp: 500, AllocsPerOp: 2, Benchmem: true},
		{Name: "BenchmarkSolveP2B", Procs: 8, NsPerOp: 100},
	}}
	gate := regexp.MustCompile("ControllerStep|CGBA")
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", base)

	cases := []struct {
		name      string
		mutate    func(*Benchmark)
		regressed bool
	}{
		{"within budget", func(b *Benchmark) { b.NsPerOp *= 1.10 }, false},
		{"ns/op over budget", func(b *Benchmark) { b.NsPerOp *= 1.20 }, true},
		{"any alloc growth", func(b *Benchmark) { b.AllocsPerOp++ }, true},
		{"improvement", func(b *Benchmark) { b.NsPerOp *= 0.5 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := base
			rep.Rev = "new"
			rep.Benchmarks = append([]Benchmark(nil), base.Benchmarks...)
			tc.mutate(&rep.Benchmarks[0])
			newPath := writeReport(t, dir, "new.json", rep)
			var out strings.Builder
			got, err := runCompare(&out, oldPath+","+newPath, 1.25, 0.15, gate)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.regressed {
				t.Errorf("regressed = %v, want %v\n%s", got, tc.regressed, out.String())
			}
		})
	}

	// An ungated benchmark may regress arbitrarily without failing the
	// gate; the advisory mode (maxRegress 0) still catches it.
	rep := base
	rep.Rev = "new"
	rep.Benchmarks = append([]Benchmark(nil), base.Benchmarks...)
	rep.Benchmarks[2].NsPerOp *= 10
	newPath := writeReport(t, dir, "ungated.json", rep)
	var out strings.Builder
	if got, err := runCompare(&out, oldPath+","+newPath, 1.25, 0.15, gate); err != nil || got {
		t.Errorf("ungated regression gated: regressed=%v err=%v\n%s", got, err, out.String())
	}
	if got, err := runCompare(&out, oldPath+","+newPath, 1.25, 0, gate); err != nil || !got {
		t.Errorf("advisory mode missed a 10x regression: regressed=%v err=%v", got, err)
	}
}

// TestCompareGateNeedsCommonBenchmarks: a gate that compares nothing
// fails rather than passing. Names match with their -procs suffix, so a
// run at another core count shares no gated benchmark with the baseline.
func TestCompareGateNeedsCommonBenchmarks(t *testing.T) {
	gate := regexp.MustCompile("ControllerStep|CGBA")
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Rev: "old", Benchmarks: []Benchmark{
		{Name: "BenchmarkControllerStep/devices=300", Procs: 2, NsPerOp: 1000},
		{Name: "BenchmarkSolveP2B", Procs: 4, NsPerOp: 100},
	}})
	for _, tc := range []struct {
		name  string
		bench []Benchmark
		fail  bool
	}{
		{"other core count", []Benchmark{
			{Name: "BenchmarkControllerStep/devices=300", Procs: 4, NsPerOp: 1000},
			{Name: "BenchmarkSolveP2B", Procs: 4, NsPerOp: 100},
		}, true},
		{"only ungated in common", []Benchmark{
			{Name: "BenchmarkSolveP2B", Procs: 4, NsPerOp: 100},
		}, true},
		{"same core count", []Benchmark{
			{Name: "BenchmarkControllerStep/devices=300", Procs: 2, NsPerOp: 1000},
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeReport(t, dir, "new.json", Report{Rev: "new", Benchmarks: tc.bench})
			var out strings.Builder
			_, err := runCompare(&out, oldPath+","+newPath, 1.25, 0.15, gate)
			if (err != nil) != tc.fail {
				t.Errorf("gate error = %v, want failure %v\n%s", err, tc.fail, out.String())
			}
			// The advisory mode never fails on an empty compare.
			if _, err := runCompare(&out, oldPath+","+newPath, 1.25, 0, gate); err != nil {
				t.Errorf("advisory mode: %v", err)
			}
		})
	}
}

// TestCompareRepeatedSamples: a -count 3 report repeats each name. The
// compare reduces both sides to their median ns/op and allocs/op, gates
// the medians, and prints the sample counts, instead of comparing one
// arbitrary sample per side and listing the rest as new benchmarks.
func TestCompareRepeatedSamples(t *testing.T) {
	gate := regexp.MustCompile("ControllerStep|CGBA")
	dir := t.TempDir()
	samples := func(rev string, ns, allocs []float64) Report {
		rep := Report{Rev: rev}
		for i := range ns {
			rep.Benchmarks = append(rep.Benchmarks,
				Benchmark{Name: "BenchmarkControllerStep/devices=300", Procs: 2, NsPerOp: ns[i], AllocsPerOp: allocs[i], Benchmem: true},
				Benchmark{Name: "BenchmarkSolveP2B", Procs: 2, NsPerOp: 100})
		}
		return rep
	}
	// Old medians: 1100 ns/op, 5 allocs/op; its last sample is an outlier.
	oldPath := writeReport(t, dir, "old.json", samples("old", []float64{1000, 1100, 5000}, []float64{5, 6, 5}))
	for _, tc := range []struct {
		name      string
		ns        []float64
		allocs    []float64
		regressed bool
		ratio     string
	}{
		{"medians within budget", []float64{1150, 1200, 900}, []float64{5, 5, 7}, false, "(1.05x)"},
		{"median ns/op over budget", []float64{1300, 1400, 1350}, []float64{5, 5, 5}, true, "(1.23x)"},
		{"median allocs/op grew", []float64{1100, 1100, 1100}, []float64{6, 6, 5}, true, "(1.00x)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newPath := writeReport(t, dir, "new.json", samples("new", tc.ns, tc.allocs))
			var out strings.Builder
			got, err := runCompare(&out, oldPath+","+newPath, 1.25, 0.15, gate)
			if err != nil {
				t.Fatal(err)
			}
			text := out.String()
			if got != tc.regressed {
				t.Errorf("regressed = %v, want %v\n%s", got, tc.regressed, text)
			}
			if !strings.Contains(text, tc.ratio) || !strings.Contains(text, "[median of 3 -> 3 samples]") {
				t.Errorf("want ratio %s over 3 -> 3 samples\n%s", tc.ratio, text)
			}
			if strings.Contains(text, "new benchmark") || strings.Contains(text, "removed") {
				t.Errorf("repeated samples listed as unmatched\n%s", text)
			}
		})
	}
}

// TestCompareSingleSampleUnchanged pins the single-sample output: one
// sample per name compares and prints exactly as it did before the
// compare learned to aggregate.
func TestCompareSingleSampleUnchanged(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", Report{Rev: "old", Benchmarks: []Benchmark{
		{Name: "BenchmarkControllerStep/devices=300", Procs: 2, NsPerOp: 1000, AllocsPerOp: 5, Benchmem: true},
	}})
	newPath := writeReport(t, dir, "new.json", Report{Rev: "new", Benchmarks: []Benchmark{
		{Name: "BenchmarkControllerStep/devices=300", Procs: 2, NsPerOp: 1100, AllocsPerOp: 5, Benchmem: true},
		{Name: "BenchmarkPoolRegion/serial", Procs: 2, NsPerOp: 10},
	}})
	var out strings.Builder
	if _, err := runCompare(&out, oldPath+","+newPath, 1.25, 0.15, regexp.MustCompile("ControllerStep")); err != nil {
		t.Fatal(err)
	}
	want := "comparing " + oldPath + " (old) -> " + newPath + " (new), gating \"ControllerStep\" at +15% ns/op, +0 allocs/op\n" +
		"  BenchmarkControllerStep/devices=300-2                        1000 -> 1100 ns/op (1.10x)\n" +
		"  BenchmarkPoolRegion/serial-2                                 new benchmark (10 ns/op)\n"
	if out.String() != want {
		t.Errorf("output\n%s\nwant\n%s", out.String(), want)
	}
}

func TestParseBenchLineMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX-8",                     // too few fields
		"BenchmarkX-8 notanumber 12 ns/op", // bad iteration count
		"BenchmarkX-8 10 12 bogounits",     // no ns/op column
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("malformed line accepted: %q", line)
		}
	}
	// A name without a -procs suffix (GOMAXPROCS=1 runs) defaults to 1.
	b, ok := parseBenchLine("BenchmarkX/mode=fast 10 12 ns/op")
	if !ok || b.Procs != 1 || b.Name != "BenchmarkX/mode=fast" {
		t.Errorf("suffix handling = %+v ok=%v", b, ok)
	}
}
