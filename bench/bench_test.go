package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"eotora/internal/core"
	"eotora/internal/policy"
)

// TestSmoke runs every workload at about 50 devices and 10 slots. Each
// run must print every metric with its unit and fail no check, and the
// decision digest must repeat across two runs, across pool sizes 1 and
// 2, and between the traced and untraced runs.
func TestSmoke(t *testing.T) {
	daemon := filepath.Join(t.TempDir(), "eotorad")
	if out, err := exec.Command("go", "build", "-o", daemon, "eotora/cmd/eotorad").CombinedOutput(); err != nil {
		t.Fatalf("building eotorad: %v\n%s", err, out)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := runConfig{seed: 7, pool: 2, smoke: true, eotorad: daemon}
			first := smokeRun(t, w, base)
			pool1, traced := base, base
			pool1.pool = 1
			traced.traced = true
			for name, cfg := range map[string]runConfig{"repeat": base, "pool=1": pool1, "traced": traced} {
				if got := smokeRun(t, w, cfg); got.digest != first.digest {
					t.Errorf("%s: decision digest %016x, first run %016x", name, got.digest, first.digest)
				}
			}
		})
	}
}

// smokeRun runs one workload and checks its printed report.
func smokeRun(t *testing.T, w workload, cfg runConfig) *result {
	t.Helper()
	traced := cfg.traced
	res, err := w.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Fatalf("%d of %d checks failed; first: %v", res.failed, res.attempted, res.firstErr)
	}
	var out bytes.Buffer
	if err := res.print(&out, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printed := map[string]string{}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[0] == w.name {
			printed[f[1]] = f[3]
		}
	}
	for _, d := range defs {
		if unit, ok := printed[d.name]; !ok || unit != d.unit {
			t.Errorf("metric %s printed with unit %q, want %q", d.name, unit, d.unit)
		}
	}
	if printed["failed_frac"] != "1" {
		t.Errorf("failed_frac line missing")
	}
	var js jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &js); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !js.Correct || js.Failed != 0 || len(js.Metrics) != len(defs) {
		t.Errorf("JSON result %+v, want correct with %d metrics", js, len(defs))
	}
	if !traced {
		for _, d := range defs {
			if v := js.Metrics[d.name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("end-to-end metric %s = %v, want a positive number", d.name, v)
			}
		}
	}
	return res
}

// TestCheckerCountsCorruptDecision corrupts one field of a real decision
// at a time and checks that the checker counts exactly that decision as
// failed.
func TestCheckerCountsCorruptDecision(t *testing.T) {
	w := batchWorkload{name: "check", topology: "default", devices: 30, policies: []string{policy.BDMA}, z: 2, warmup: 1}
	env, err := w.setup(runConfig{seed: 3, pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	p := env.policies[0]
	chk := newChecker(env.sys, []float64{p.Backlog()})
	decide := func() (*core.SlotResult, func(*core.SlotResult)) {
		st := env.src.Next()
		res, err := p.Decide(p.Slot()+1, st)
		if err != nil {
			t.Fatal(err)
		}
		return res, func(r *core.SlotResult) { chk.batch(0, st, r) }
	}
	res, check := decide()
	check(res)
	if chk.failed != 0 {
		t.Fatalf("valid decision failed: %v", chk.firstErr)
	}
	corruptions := map[string]func(*core.SlotResult){
		"server out of range": func(r *core.SlotResult) { r.Decision.Server[0] = len(env.sys.Net.Servers) },
		"frequency too high":  func(r *core.SlotResult) { r.Decision.Freq[0] *= 10 },
		"share above one":     func(r *core.SlotResult) { r.Decision.ComputeShare[0] = 2 },
		"backlog off by ulp":  func(r *core.SlotResult) { r.Backlog = math.Nextafter(r.Backlog, math.Inf(1)) },
		"degraded rung":       func(r *core.SlotResult) { r.Rung = core.RungGreedy },
	}
	for name, corrupt := range corruptions {
		res, check := decide()
		attempted, failed := chk.attempted, chk.failed
		corrupt(res)
		check(res)
		if chk.attempted != attempted+1 || chk.failed != failed+1 {
			t.Errorf("%s: attempted %d→%d, failed %d→%d; want one more of each", name, attempted, chk.attempted, failed, chk.failed)
		}
		// Continue the recurrence from the policy's true backlog.
		chk.backlog[0] = p.Backlog()
	}
}
