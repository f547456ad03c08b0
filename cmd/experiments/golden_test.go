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
	dir := t.TempDir()
	for _, id := range []string{"6", "ablation-pivot", "ablation-convergence"} {
		fig, err := build(id, true, 1)
		if err != nil {
			t.Fatalf("fig %s: %v", id, err)
		}
		if err := writeFigureFiles(dir, fig); err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{".txt", ".csv", ".md"} {
			name := fig.ID + ext
			want, err := os.ReadFile(filepath.Join("..", "..", "results", "paper", name))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from results/paper/%s:\n got %s\nwant %s", name, name, got, want)
			}
		}
	}
}
