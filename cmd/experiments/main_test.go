package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunArgumentValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{"unknown scale", []string{"-fig", "3", "-scale", "huge"}},
		{"unknown format", []string{"-fig", "3", "-format", "pdf"}},
		{"unknown figure", []string{"-fig", "99"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args); err == nil {
				t.Error("invalid arguments accepted")
			}
		})
	}
}

func TestBuildKnownFigures(t *testing.T) {
	// Only the cheap figures — the full set is covered by the benches.
	for _, id := range []string{"2", "3"} {
		fig, err := build(id, false, 1)
		if err != nil {
			t.Fatalf("fig %s: %v", id, err)
		}
		if fig.ID != "fig"+id {
			t.Errorf("fig ID = %q", fig.ID)
		}
		if len(fig.Series) == 0 {
			t.Errorf("fig %s has no series", id)
		}
	}
	if _, err := build("nope", false, 1); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestAblationCfgScales(t *testing.T) {
	quick := ablationCfg(false, 7)
	paper := ablationCfg(true, 7)
	if quick.Seed != 7 || paper.Seed != 7 {
		t.Error("seed not propagated")
	}
	if paper.Devices <= quick.Devices {
		t.Errorf("paper devices %d not above quick %d", paper.Devices, quick.Devices)
	}
}

func TestWriteFigureFiles(t *testing.T) {
	dir := t.TempDir()
	fig, err := build("3", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFigureFiles(dir, fig); err != nil {
		t.Fatal(err)
	}
	// CSV has no figure-id header; check content markers per format.
	markers := map[string]string{
		".txt": "fig3",
		".csv": "frequency [GHz]",
		".md":  "## fig3",
	}
	for ext, want := range markers {
		data, err := os.ReadFile(filepath.Join(dir, "fig3"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), want) {
			t.Errorf("%s output missing %q", ext, want)
		}
	}
}

// TestFigureIDsDocumented: the -fig usage and the package doc name every
// figure -fig all builds, and the table holds no ID twice.
func TestFigureIDsDocumented(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(src[:strings.Index(string(src), "package main")])
	usage := figHelp()
	seen := map[string]bool{}
	for _, f := range figures {
		if seen[f.id] {
			t.Errorf("figure %s listed twice", f.id)
		}
		seen[f.id] = true
		if !strings.Contains(usage, f.id+",") {
			t.Errorf("-fig usage %q does not name %s", usage, f.id)
		}
		if f.id[0] < '0' || f.id[0] > '9' { // the doc gives the numbered figures as a range
			if !strings.Contains(doc, f.id+",") && !strings.Contains(doc, f.id+" ") {
				t.Errorf("package doc does not name %s", f.id)
			}
		}
	}
}
