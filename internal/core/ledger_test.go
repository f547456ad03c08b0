package core

import (
	"testing"

	"eotora/internal/game"
	"eotora/internal/obs"
	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// TestScanTermsLedger pins the counted work of the best-response scan:
// engine.scan_terms for one unsharded λ = 0 CGBA solve of slot 0's P2-A
// game at Ω^L, seed 1. The unsharded sweep scores every player once per
// pass and the greedy fill once, so scans = players + cache misses and
// terms per scan is the game's mean scan width. On DefaultSpec a scan
// reads 18.04 terms on average where a player's 27.63 pairs hold 82.90
// uses. On MetroSpec a player has 6.61 pairs (19.82 uses), and only the
// few with game.minFactorPairs or more are factored: 19.80 terms per
// scan. (Factoring every player whose pairs outnumber its stations plus
// distinct servers read 16.06, with no gain in time.) Work counts are
// fixed by the inputs and equal on every host: a change that moves them
// re-pins them and explains the move.
func TestScanTermsLedger(t *testing.T) {
	for _, tc := range []struct {
		name       string
		spec       topology.Spec
		terms      int64
		scans      int64
		pairs      int // (station, server) pairs of all players
		perScanMin float64
		perScanMax float64
	}{
		{"default-1000", topology.DefaultSpec(1000), 234572, 13000, 27632, 18, 18.1},
		{"metro-10000", topology.MetroSpec(10000), 3563496, 180000, 66068, 19.7, 19.82},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(1)
			net, err := topology.Generate(tc.spec, src.Derive("net"))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(net, DefaultEnergyModels(len(net.Servers), src.Derive("energy")), 3600, 1)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 1)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sys.NewP2A(gen.Next(), sys.LowestFrequencies())
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.New()
			p.SetInstruments(game.Instruments{
				CacheMisses: reg.Counter(MetricCacheMisses),
				ScanTerms:   reg.Counter(MetricScanTerms),
			})
			if _, err := (CGBASolver{}).Solve(p, rng.New(1)); err != nil {
				t.Fatal(err)
			}
			g := p.Game()
			players := int64(g.Players())
			terms := reg.Counter(MetricScanTerms).Value()
			scans := players + reg.Counter(MetricCacheMisses).Value()
			pairs := 0
			for i := 0; i < g.Players(); i++ {
				pairs += g.StrategyCount(i)
			}
			perScan := float64(terms) / float64(scans)
			t.Logf("%s: %d terms over %d scans, %.2f per scan; %.2f pairs (%.2f uses) per player",
				tc.name, terms, scans, perScan, float64(pairs)/float64(players), 3*float64(pairs)/float64(players))
			if terms != tc.terms || scans != tc.scans || pairs != tc.pairs {
				t.Errorf("ledger (terms, scans, pairs) = (%d, %d, %d), pinned (%d, %d, %d)",
					terms, scans, pairs, tc.terms, tc.scans, tc.pairs)
			}
			if perScan < tc.perScanMin || perScan > tc.perScanMax {
				t.Errorf("%.2f terms per scan outside [%v, %v]", perScan, tc.perScanMin, tc.perScanMax)
			}
		})
	}
}

// TestStateLinksLedger pins the counted work the sparse channel rows
// leave the slot-0 P2-A build at seed 1: the links the generated State
// stores (one per covered device–station pair) and the strategy uses the
// build writes into the game arena, next to the devices × stations
// entries a dense channel matrix held and CheckState and the build
// scanned. A DefaultSpec device is covered by 3.45 of 6 stations; a
// MetroSpec device by 1.65 of 49, so its state stores 3.4% of the dense
// entries. Counts are fixed by the inputs and equal on every host.
func TestStateLinksLedger(t *testing.T) {
	for _, tc := range []struct {
		name  string
		spec  topology.Spec
		dense int // devices × stations
		links int
		uses  int
	}{
		{"default-1000", topology.DefaultSpec(1000), 6000, 3454, 82896},
		{"metro-10000", topology.MetroSpec(10000), 490000, 16517, 198204},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := rng.New(1)
			net, err := topology.Generate(tc.spec, src.Derive("net"))
			if err != nil {
				t.Fatal(err)
			}
			sys, err := NewSystem(net, DefaultEnergyModels(len(net.Servers), src.Derive("energy")), 3600, 1)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := trace.NewGenerator(net, trace.DefaultGeneratorConfig(), 1)
			if err != nil {
				t.Fatal(err)
			}
			st := gen.Next()
			p, err := sys.NewP2A(st, sys.LowestFrequencies())
			if err != nil {
				t.Fatal(err)
			}
			links := 0
			for _, row := range st.Channels {
				links += len(row)
			}
			g := p.Game()
			uses := 0
			for i := 0; i < g.Players(); i++ {
				for s := 0; s < g.StrategyCount(i); s++ {
					uses += len(g.StrategyUses(i, s))
				}
			}
			dense := len(st.Channels) * len(net.BaseStations)
			t.Logf("%s: %d links stored of %d device–station entries (%.2f per device); %d uses built",
				tc.name, links, dense, float64(links)/float64(len(st.Channels)), uses)
			if dense != tc.dense || links != tc.links || uses != tc.uses {
				t.Errorf("ledger (dense, links, uses) = (%d, %d, %d), pinned (%d, %d, %d)",
					dense, links, uses, tc.dense, tc.links, tc.uses)
			}
		})
	}
}
