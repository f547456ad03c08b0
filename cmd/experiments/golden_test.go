package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestPaperFiguresGolden regenerates the committed paper-scale figures
// that run the exact CGBA loop and carry no wall-clock field — Figure 6
// and the pivot and convergence ablations, at seed 1 as EXPERIMENTS.md
// regenerates results/paper — and requires every rendering (.txt, .csv,
// .md) to equal the committed file byte for byte.
func TestPaperFiguresGolden(t *testing.T) {
	requireFiguresGolden(t, "paper", true, "6", "ablation-pivot", "ablation-convergence")
}

// TestCompareFiguresGolden regenerates results/compare as `make
// compare-demo` does — the policy roster and the V/λ tuner demo at quick
// scale, seed 1 — and requires every rendering to equal the committed
// file byte for byte. Both run every policy over generated states, so
// they also pin the state source's shape as the policies read it.
func TestCompareFiguresGolden(t *testing.T) {
	requireFiguresGolden(t, "compare", false, "compare", "tuner")
}

// requireFiguresGolden builds each figure at seed 1 and the given scale
// and compares its .txt, .csv and .md renderings with results/<dir>.
func requireFiguresGolden(t *testing.T, dir string, paper bool, ids ...string) {
	t.Helper()
	out := t.TempDir()
	for _, id := range ids {
		fig, err := build(id, paper, 1)
		if err != nil {
			t.Fatalf("fig %s: %v", id, err)
		}
		if err := writeFigureFiles(out, fig); err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{".txt", ".csv", ".md"} {
			name := fig.ID + ext
			want, err := os.ReadFile(filepath.Join("..", "..", "results", dir, name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from results/%s/%s:\n got %s\nwant %s", name, dir, name, got, want)
			}
		}
	}
}
