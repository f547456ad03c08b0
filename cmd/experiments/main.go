// Command experiments regenerates the paper's evaluation figures
// (Figures 2–9) and the DESIGN.md ablation studies.
//
// Usage:
//
//	experiments -fig 4                 # one figure, reduced scale
//	experiments -fig 9 -scale paper    # paper-scale sweep (slow)
//	experiments -fig all -format csv   # everything, CSV output
//
// Figure IDs, in the order -fig all regenerates them: 2–9 (Figures 4
// and 5 share one P2-A sweep), ablation-bdma-z, ablation-p2b,
// ablation-iid, ablation-fronthaul, ablation-pivot,
// ablation-compute-bound, ablation-seeds, ablation-flashcrowd,
// ablation-per-room, ablation-stale, ablation-convergence, degrade,
// churn, compare (policy roster on one trace), tuner (fixed knobs vs the
// online V/λ auto-tuner).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"eotora/internal/experiments"
	"eotora/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		figID  = fs.String("fig", "all", figHelp())
		scale  = fs.String("scale", "quick", "experiment scale: quick or paper")
		format = fs.String("format", "table", "output format: table, csv, plot, or markdown")
		seed   = fs.Int64("seed", 1, "random seed")
		outDir = fs.String("out", "", "write each figure to <out>/<id>.{txt,csv,md} instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paper := false
	switch *scale {
	case "quick":
	case "paper":
		paper = true
	default:
		return fmt.Errorf("unknown scale %q (want quick or paper)", *scale)
	}
	switch *format {
	case "table", "csv", "plot", "markdown":
	default:
		return fmt.Errorf("unknown format %q (want table, csv, plot, or markdown)", *format)
	}

	ids := []string{*figID}
	if *figID == "all" {
		ids = figureIDs()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	b := &builder{paper: paper, seed: *seed}
	for _, id := range ids {
		fig, err := b.build(id)
		if err != nil {
			return fmt.Errorf("fig %s: %w", id, err)
		}
		if *outDir != "" {
			if err := writeFigureFiles(*outDir, fig); err != nil {
				return err
			}
			fmt.Printf("wrote %s/%s.{txt,csv,md}\n", *outDir, fig.ID)
			continue
		}
		switch *format {
		case "csv":
			if err := fig.WriteCSV(os.Stdout); err != nil {
				return err
			}
		case "plot":
			if err := renderPlot(fig); err != nil {
				return err
			}
		case "markdown":
			if err := fig.WriteMarkdown(os.Stdout); err != nil {
				return err
			}
		default:
			if err := fig.Render(os.Stdout); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	return nil
}

// builder builds figures at one scale and seed. It keeps the P2-A sweep,
// so Figures 4 and 5 built by one builder share a single sweep.
type builder struct {
	paper     bool
	seed      int64
	p2aPoints []experiments.P2APoint
}

// figureBuilder builds one figure on a builder.
type figureBuilder func(b *builder) (*experiments.Figure, error)

// figures is every figure -fig accepts, in the order -fig all builds them.
var figures = []struct {
	id    string
	build figureBuilder
}{
	{"2", func(b *builder) (*experiments.Figure, error) {
		cfg := experiments.DefaultFig2Config()
		cfg.Seed = b.seed
		if !b.paper {
			cfg.Days = 7
			cfg.Devices = 30
		}
		return experiments.Fig2(cfg)
	}},
	{"3", func(b *builder) (*experiments.Figure, error) {
		cfg := experiments.DefaultFig3Config()
		cfg.Seed = b.seed
		return experiments.Fig3(cfg)
	}},
	{"4", p2a(experiments.Fig4FromSweep)},
	{"5", p2a(experiments.Fig5FromSweep)},
	{"6", func(b *builder) (*experiments.Figure, error) {
		cfg := experiments.QuickFig6Config()
		if b.paper {
			cfg = experiments.DefaultFig6Config()
		}
		cfg.Seed = b.seed
		return experiments.Fig6(cfg)
	}},
	{"7", func(b *builder) (*experiments.Figure, error) {
		cfg := experiments.QuickFig7Config()
		if b.paper {
			cfg = experiments.DefaultFig7Config()
		}
		cfg.Seed = b.seed
		return experiments.Fig7(cfg)
	}},
	{"8", func(b *builder) (*experiments.Figure, error) {
		cfg := experiments.QuickFig8Config()
		if b.paper {
			cfg = experiments.DefaultFig8Config()
		}
		cfg.Seed = b.seed
		return experiments.Fig8(cfg)
	}},
	{"9", func(b *builder) (*experiments.Figure, error) {
		cfg := experiments.QuickFig9Config()
		if b.paper {
			cfg = experiments.DefaultFig9Config()
		}
		cfg.Seed = b.seed
		return experiments.Fig9(cfg)
	}},
	{"ablation-bdma-z", sweep(experiments.AblationBDMAZ)},
	{"ablation-p2b", ablation(experiments.AblationP2BSolver)},
	{"ablation-iid", ablation(experiments.AblationIID)},
	{"ablation-fronthaul", ablation(experiments.AblationFronthaulJitter)},
	{"ablation-pivot", ablation(experiments.AblationPivot)},
	{"ablation-compute-bound", sweep(experiments.AblationComputeBound)},
	{"ablation-seeds", sweep(experiments.AblationSeeds)},
	{"ablation-flashcrowd", ablation(experiments.AblationFlashCrowd)},
	{"ablation-per-room", ablation(experiments.AblationPerRoomBudgets)},
	{"ablation-stale", ablation(experiments.AblationStaleObservation)},
	{"ablation-convergence", sweep(experiments.AblationConvergence)},
	{"degrade", sweep(experiments.FigDegrade)},
	{"churn", sweep(experiments.FigChurn)},
	{"compare", compare(experiments.ComparePolicies)},
	{"tuner", compare(experiments.TunerDemo)},
}

// figureIDs lists the figure IDs in table order.
func figureIDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// figHelp is the -fig flag's usage.
func figHelp() string {
	return "figure to regenerate: " + strings.Join(figureIDs(), ", ") + ", or all"
}

// build builds one figure on a fresh builder.
func build(id string, paper bool, seed int64) (*experiments.Figure, error) {
	return (&builder{paper: paper, seed: seed}).build(id)
}

// build builds the figure with the given -fig ID.
func (b *builder) build(id string) (*experiments.Figure, error) {
	for _, f := range figures {
		if f.id == id {
			return f.build(b)
		}
	}
	return nil, fmt.Errorf("unknown figure id %q", id)
}

// p2a draws a figure from the builder's P2-A sweep, which it runs on
// first use and keeps for the next figure.
func p2a(draw func([]experiments.P2APoint) *experiments.Figure) figureBuilder {
	return func(b *builder) (*experiments.Figure, error) {
		if b.p2aPoints == nil {
			cfg := experiments.QuickP2ASweepConfig()
			if b.paper {
				cfg = experiments.DefaultP2ASweepConfig()
			}
			cfg.Seed = b.seed
			points, err := experiments.P2ASweep(cfg)
			if err != nil {
				return nil, err
			}
			b.p2aPoints = points
		}
		return draw(b.p2aPoints), nil
	}
}

// ablation builds a study at the builder's ablation configuration.
func ablation(study func(experiments.AblationConfig) (*experiments.Figure, error)) figureBuilder {
	return func(b *builder) (*experiments.Figure, error) { return study(ablationCfg(b.paper, b.seed)) }
}

// sweep builds a study over its default sweep (a nil T) at the builder's
// ablation configuration.
func sweep[T any](study func(experiments.AblationConfig, T) (*experiments.Figure, error)) figureBuilder {
	return ablation(func(cfg experiments.AblationConfig) (*experiments.Figure, error) {
		var defaults T
		return study(cfg, defaults)
	})
}

// compare builds a policy comparison at the builder's compare
// configuration.
func compare(study func(experiments.CompareConfig) (*experiments.Figure, error)) figureBuilder {
	return func(b *builder) (*experiments.Figure, error) { return study(compareCfg(b.paper, b.seed)) }
}

func ablationCfg(paper bool, seed int64) experiments.AblationConfig {
	cfg := experiments.QuickAblationConfig()
	if paper {
		cfg = experiments.DefaultAblationConfig()
	}
	cfg.Seed = seed
	return cfg
}

func compareCfg(paper bool, seed int64) experiments.CompareConfig {
	cfg := experiments.QuickCompareConfig()
	if paper {
		cfg = experiments.DefaultCompareConfig()
	}
	cfg.Seed = seed
	return cfg
}

// renderPlot draws the figure's series as an ASCII chart, followed by the
// notes. Figures with more series than plot markers fall back to tables.
func renderPlot(fig *experiments.Figure) error {
	if len(fig.Series) > 8 {
		return fig.Render(os.Stdout)
	}
	series := make([]plot.Series, 0, len(fig.Series))
	for _, s := range fig.Series {
		series = append(series, plot.Series{Name: s.Name, X: s.X, Y: s.Y})
	}
	cfg := plot.Config{
		Title:  fmt.Sprintf("%s: %s", fig.ID, fig.Title),
		XLabel: fig.XLabel,
		YLabel: fig.YLabel,
	}
	if err := plot.Lines(os.Stdout, cfg, series...); err != nil {
		return err
	}
	for _, n := range fig.Notes {
		fmt.Println("note:", n)
	}
	return nil
}

// writeFigureFiles renders the figure in every format under dir.
func writeFigureFiles(dir string, fig *experiments.Figure) error {
	write := func(ext string, render func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, fig.ID+ext))
		if err != nil {
			return err
		}
		if err := render(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(".txt", fig.Render); err != nil {
		return err
	}
	if err := write(".csv", fig.WriteCSV); err != nil {
		return err
	}
	return write(".md", fig.WriteMarkdown)
}
