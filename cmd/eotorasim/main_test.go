package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eotora/internal/core"
	"eotora/internal/obs"
	"eotora/internal/trace"
)

func TestRunSmallSimulation(t *testing.T) {
	if err := run([]string{"-devices", "5", "-slots", "6", "-warmup", "1", "-z", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunShardedMetro(t *testing.T) {
	if err := run([]string{"-topology", "metro", "-devices", "60", "-slots", "4", "-warmup", "1",
		"-z", "1", "-shards", "-1", "-shard-audit", "2"}); err != nil {
		t.Fatal(err)
	}
}

// -shards takes only 0 or 1 (off) and -1 (one shard per cluster); the
// error for any other count names -1.
func TestRunRejectsShardCounts(t *testing.T) {
	for _, n := range []string{"2", "8", "-2", "-3"} {
		err := run([]string{"-devices", "5", "-slots", "4", "-shards", n})
		if err == nil || !strings.Contains(err.Error(), "-1") {
			t.Errorf("-shards %s: %v, want an error naming -1", n, err)
		}
	}
}

func TestRunValidationErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"unknown solver", []string{"-devices", "5", "-slots", "4", "-solver", "magic"}},
		{"bad flag", []string{"-nope"}},
		{"missing price csv", []string{"-devices", "5", "-slots", "4", "-price-csv", "/nonexistent.csv"}},
		{"missing config", []string{"-config", "/nonexistent.json"}},
		{"unknown topology", []string{"-devices", "5", "-slots", "4", "-topology", "ocean"}},
		{"bad shards", []string{"-devices", "5", "-slots", "4", "-shards", "-2"}},
		{"shards on mcba", []string{"-devices", "5", "-slots", "4", "-solver", "mcba", "-shards", "-1"}},
		{"audit without shards", []string{"-devices", "5", "-slots", "4", "-shard-audit", "3"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("invalid arguments accepted")
			}
		})
	}
}

func TestRunCheckpointRoundtripViaCLI(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "cp.json")
	if err := run([]string{"-devices", "5", "-slots", "6", "-warmup", "1", "-z", "1", "-checkpoint", cp}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}
	if err := run([]string{"-devices", "5", "-slots", "6", "-warmup", "1", "-z", "1", "-resume", cp}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "run.json")
	if err := os.WriteFile(cfg, []byte(`{"devices": 5, "slots": 6, "z": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", cfg}); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"bogus": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", bad}); err == nil {
		t.Error("unknown config field accepted")
	}
}

// TestConfigSummaryNamesPolicyKnobs: the -config summary's policy line
// names V, z and λ as the flag path's does, with the run spec's values
// and its defaults.
func TestConfigSummaryNamesPolicyKnobs(t *testing.T) {
	dir := t.TempDir()
	for body, want := range map[string]string{
		`{"devices": 5, "slots": 6, "v": 40, "z": 2, "lambda": 0.05}`: "V=40, z=2, λ=0.05",
		`{"devices": 5, "slots": 6}`:                                  "V=100, z=5, λ=0",
	} {
		cfg := filepath.Join(dir, "run.json")
		if err := os.WriteFile(cfg, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := configRun(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(r.header, "policy:   bdma (CGBA-based DPP), "+want+"\n") {
			t.Errorf("%s: summary %q, want a policy line with %q", body, r.header, want)
		}
	}
}

func TestRunWithObsOut(t *testing.T) {
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "obs.json")
	if err := run([]string{"-devices", "5", "-slots", "6", "-warmup", "1", "-z", "1", "-obs-out", jsonOut}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters[core.MetricSlots] != 6 {
		t.Errorf("controller.slots = %d, want 6", snap.Counters[core.MetricSlots])
	}
	for _, name := range []string{core.MetricDecisionSeconds, core.MetricLatencySeconds, core.MetricBacklog} {
		if h, ok := snap.Histograms[name]; !ok || h.Count != 6 {
			t.Errorf("histogram %s = %+v, want 6 observations", name, h)
		}
	}
	if snap.Counters[core.MetricCGBASolves] == 0 || snap.Counters[core.MetricP2BSolves] == 0 {
		t.Error("solver instruments not recorded")
	}

	csvOut := filepath.Join(dir, "obs.csv")
	if err := run([]string{"-devices", "5", "-slots", "4", "-z", "1", "-warmup", "1", "-obs-out", csvOut}); err != nil {
		t.Fatal(err)
	}
	csvRaw, err := os.ReadFile(csvOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csvRaw), "kind,name,field,value\n") {
		t.Errorf("CSV snapshot missing header:\n%s", csvRaw)
	}
}

func TestMetricsServerSmoke(t *testing.T) {
	reg := obs.New()
	reg.Counter(core.MetricSlots).Add(3)
	ln, err := startMetricsServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + ln.Addr().String()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	vars := get("/debug/vars")
	if !strings.Contains(vars, `"eotora"`) || !strings.Contains(vars, "controller.slots") {
		t.Errorf("/debug/vars missing eotora registry:\n%.400s", vars)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("/debug/pprof/ index unexpected:\n%.200s", idx)
	}
	get("/debug/pprof/cmdline")

	// The full CLI path: -metrics with an ephemeral port must run clean.
	if err := run([]string{"-devices", "5", "-slots", "4", "-warmup", "1", "-z", "1", "-metrics", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
}

// runStdout runs the command and returns what it printed to stdout.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// csvRows splits a -csv output into rows with the wall-clock decision_us
// column (the eighth) blanked.
func csvRows(t *testing.T, out string) []string {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for i, line := range lines {
		cols := strings.Split(line, ",")
		if len(cols) < 8 {
			t.Fatalf("short CSV row %q", line)
		}
		cols[7] = ""
		lines[i] = strings.Join(cols, ",")
	}
	return lines
}

// TestResumeContinuesRun: 12 straight slots equal 6 slots, a checkpoint,
// and 6 resumed slots in every CSV column but decision_us, the slot
// number included, with the churn and fault layers on and off. The
// resumed run must replay every layer of the state stream, not only the
// generator beneath them.
func TestResumeContinuesRun(t *testing.T) {
	base := []string{"-devices", "30", "-z", "2", "-warmup", "0", "-csv"}
	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"plain", nil},
		{"churn", []string{"-churn", "1"}},
		{"faults", []string{"-faults"}},
		{"churn+faults", []string{"-churn", "1", "-faults"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string{}, base...), tc.extra...)
			straight := csvRows(t, runStdout(t, append(args, "-slots", "12")...))
			cp := filepath.Join(t.TempDir(), "cp.json")
			first := csvRows(t, runStdout(t, append(args, "-slots", "6", "-checkpoint", cp)...))
			second := csvRows(t, runStdout(t, append(args, "-slots", "6", "-resume", cp)...))
			resumed := append(first, second[1:]...) // second's header repeats first's
			if len(resumed) != len(straight) {
				t.Fatalf("resumed run has %d rows, straight run %d", len(resumed), len(straight))
			}
			for i := range straight {
				if resumed[i] != straight[i] {
					t.Errorf("row %d:\nresumed  %s\nstraight %s", i, resumed[i], straight[i])
				}
			}
		})
	}
}

// TestFaultsCountRepairs: -faults with -obs-out records the sanitizer's
// repairs under trace.repairs.
func TestFaultsCountRepairs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "obs.json")
	if err := run([]string{"-devices", "30", "-slots", "24", "-warmup", "0", "-z", "1", "-faults", "-obs-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[trace.MetricRepairs] == 0 {
		t.Errorf("%s = 0 after a faulted run", trace.MetricRepairs)
	}
}

// TestConfigAppliesRunFlags: -config replaces only the scenario,
// controller and horizon; the fault, deadline and gate flags still act.
func TestConfigAppliesRunFlags(t *testing.T) {
	dir := t.TempDir()
	cfg := filepath.Join(dir, "run.json")
	if err := os.WriteFile(cfg, []byte(`{"devices": 30, "slots": 24, "warmup": 1, "z": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "obs.json")
	if err := run([]string{"-config", cfg, "-faults", "-obs-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[trace.MetricRepairs] == 0 {
		t.Errorf("-config -faults: %s = 0", trace.MetricRepairs)
	}
	err = run([]string{"-config", cfg, "-slot-checks", "1", "-fail-degraded"})
	if err == nil || !strings.Contains(err.Error(), "-fail-degraded") {
		t.Errorf("-config -slot-checks 1 -fail-degraded: %v, want the degradation gate's error", err)
	}
}
