package game

import (
	"math"
	"slices"
	"strings"
	"testing"

	"eotora/internal/rng"
)

// randomStrategies draws P2-A-shaped strategy sets (three uses per
// strategy, distinct resources) as raw Use lists, so the same content can
// be streamed through a Builder, a Mutation, or New.
func randomStrategies(src *rng.Source, players, strategies, resources int) [][][]Use {
	strats := make([][][]Use, players)
	for i := range strats {
		strats[i] = make([][]Use, strategies)
		for s := range strats[i] {
			perm := src.Perm(resources)
			strats[i][s] = []Use{
				{Resource: perm[0], Weight: src.Uniform(0.2, 3)},
				{Resource: perm[1], Weight: src.Uniform(0.2, 3)},
				{Resource: perm[2], Weight: src.Uniform(0.2, 3)},
			}
		}
	}
	return strats
}

// streamInto streams weights and strategies into the builder and builds.
func streamInto(t *testing.T, b *Builder, weights []float64, strats [][][]Use) *Game {
	t.Helper()
	b.Reset(len(weights))
	copy(b.Weights(), weights)
	for _, player := range strats {
		b.NextPlayer()
		for _, strat := range player {
			b.NextStrategy()
			for _, u := range strat {
				b.AddUse(u.Resource, u.Weight)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireGamesEqual compares two games structurally — weights, strategy
// sets, and the derived costs on a shared profile must be bit-identical,
// the mutation path's build-equivalence contract.
func requireGamesEqual(t *testing.T, got, want *Game) {
	t.Helper()
	if got.Players() != want.Players() || got.Resources() != want.Resources() {
		t.Fatalf("shape: got %d players x %d resources, want %d x %d",
			got.Players(), got.Resources(), want.Players(), want.Resources())
	}
	for r := 0; r < want.Resources(); r++ {
		if math.Float64bits(got.ResourceWeight(r)) != math.Float64bits(want.ResourceWeight(r)) {
			t.Fatalf("resource %d weight: got %v, want %v", r, got.ResourceWeight(r), want.ResourceWeight(r))
		}
	}
	profile := make(Profile, want.Players())
	for i := 0; i < want.Players(); i++ {
		if got.StrategyCount(i) != want.StrategyCount(i) {
			t.Fatalf("player %d: got %d strategies, want %d", i, got.StrategyCount(i), want.StrategyCount(i))
		}
		for s := 0; s < want.StrategyCount(i); s++ {
			gu, wu := got.StrategyUses(i, s), want.StrategyUses(i, s)
			if len(gu) != len(wu) {
				t.Fatalf("player %d strategy %d: got %d uses, want %d", i, s, len(gu), len(wu))
			}
			for k := range wu {
				if gu[k].Resource != wu[k].Resource ||
					math.Float64bits(gu[k].Weight) != math.Float64bits(wu[k].Weight) {
					t.Fatalf("player %d strategy %d use %d: got %+v, want %+v", i, s, k, gu[k], wu[k])
				}
			}
		}
		profile[i] = s0ForBoth(got, want, i)
	}
	// The premultiplied factors must match too: identical social cost and
	// potential on a shared profile, bit for bit.
	if math.Float64bits(got.SocialCost(profile)) != math.Float64bits(want.SocialCost(profile)) {
		t.Fatalf("social cost: got %v, want %v", got.SocialCost(profile), want.SocialCost(profile))
	}
	if math.Float64bits(got.Potential(profile)) != math.Float64bits(want.Potential(profile)) {
		t.Fatalf("potential: got %v, want %v", got.Potential(profile), want.Potential(profile))
	}
	// Both incidence indexes, built on demand, must match the fresh
	// build's bit for bit.
	for _, g := range []*Game{got, want} {
		g.playerIndex()
		g.useIndex()
	}
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"incOff", got.incOff, want.incOff},
		{"incPlayer", got.incPlayer, want.incPlayer},
		{"useIncOff", got.useIncOff, want.useIncOff},
		{"useIncPos", got.useIncPos, want.useIncPos},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, c.got, c.want)
		}
	}
}

// indexesBuilt reports whether the player and use incidence indexes are
// current for the game's structure.
func indexesBuilt(g *Game) (player, use bool) {
	return g.incGen == g.structGen, g.useIncGen == g.structGen
}

// requireIndexes fails unless exactly the wanted indexes are current.
func requireIndexes(t *testing.T, label string, g *Game, player, use bool) {
	t.Helper()
	if p, u := indexesBuilt(g); p != player || u != use {
		t.Fatalf("%s: player index built=%v (want %v), use index built=%v (want %v)", label, p, player, u, use)
	}
}

// s0ForBoth picks a strategy valid in both games (0 always is).
func s0ForBoth(got, want *Game, i int) int {
	_ = got
	_ = want
	_ = i
	return 0
}

// TestAddPlayerMatchesFreshBuild: AddPlayer must leave the game
// bit-identical to a fresh build that included the player from the start,
// at the same *Game address the Builder already handed out.
func TestAddPlayerMatchesFreshBuild(t *testing.T) {
	src := rng.New(41)
	weights := []float64{1.5, 0.7, 2.1, 1.0, 0.9}
	strats := randomStrategies(src, 4, 3, len(weights))
	extra := randomStrategies(src, 1, 2, len(weights))[0]

	b := NewBuilder()
	g := streamInto(t, b, weights, strats)
	idx, err := b.AddPlayer(extra)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 4 {
		t.Fatalf("new player index %d, want 4", idx)
	}
	if b2g, _ := b.Build, g; b2g == nil || g != &b.g {
		t.Fatal("AddPlayer did not commit into the Builder's stable game")
	}
	want := streamInto(t, NewBuilder(), weights, append(append([][][]Use(nil), strats...), extra))
	requireGamesEqual(t, g, want)
}

// TestRemovePlayerMatchesFreshBuild: removing any player compacts the
// arena into the fresh build without that player.
func TestRemovePlayerMatchesFreshBuild(t *testing.T) {
	src := rng.New(42)
	weights := []float64{1.2, 0.8, 1.7, 1.1}
	strats := randomStrategies(src, 5, 3, len(weights))
	for remove := 0; remove < len(strats); remove++ {
		b := NewBuilder()
		g := streamInto(t, b, weights, strats)
		if err := b.RemovePlayer(remove); err != nil {
			t.Fatal(err)
		}
		var rest [][][]Use
		for i, p := range strats {
			if i != remove {
				rest = append(rest, p)
			}
		}
		requireGamesEqual(t, g, streamInto(t, NewBuilder(), weights, rest))
	}
	b := NewBuilder()
	streamInto(t, b, weights, strats)
	if err := b.RemovePlayer(-1); err == nil {
		t.Error("RemovePlayer(-1) accepted")
	}
	if err := b.RemovePlayer(5); err == nil {
		t.Error("RemovePlayer past the end accepted")
	}
}

// TestMutationRestreamEquivalence is the double-buffer property test:
// random keep/drop/restream/append mutations with interleaved emission and
// a concurrent reweight must commit to exactly the fresh build of the same
// content — Build and Commit are indistinguishable to any reader.
func TestMutationRestreamEquivalence(t *testing.T) {
	src := rng.New(43)
	for trial := 0; trial < 30; trial++ {
		resources := 3 + src.Intn(6)
		oldPlayers := 2 + src.Intn(8)
		weights := make([]float64, resources)
		for r := range weights {
			weights[r] = src.Uniform(0.5, 2)
		}
		strats := randomStrategies(src, oldPlayers, 1+src.Intn(4), resources)
		b := NewBuilder()
		g := streamInto(t, b, weights, strats)

		// Choose keeps (random subset, order preserved) and new players.
		var keeps []int
		for i := 0; i < oldPlayers; i++ {
			if src.Float64() < 0.6 {
				keeps = append(keeps, i)
			}
		}
		newCount := src.Intn(4)
		if len(keeps) == 0 && newCount == 0 {
			newCount = 1
		}
		news := randomStrategies(src, newCount, 1+src.Intn(3), resources)

		// Optionally reweight mid-mutation.
		newWeights := append([]float64(nil), weights...)
		if src.Float64() < 0.5 {
			for r := range newWeights {
				newWeights[r] = src.Uniform(0.5, 2)
			}
		}

		m := b.BeginMutation()
		copy(b.Weights(), newWeights)
		var want [][][]Use
		ki, ni := 0, 0
		for ki < len(keeps) || ni < len(news) {
			takeKeep := ki < len(keeps) && (ni >= len(news) || src.Float64() < 0.5)
			if takeKeep {
				m.KeepPlayer(keeps[ki])
				want = append(want, strats[keeps[ki]])
				ki++
				continue
			}
			m.NextPlayer()
			for _, strat := range news[ni] {
				m.NextStrategy()
				for _, u := range strat {
					m.AddUse(u.Resource, u.Weight)
				}
			}
			want = append(want, news[ni])
			ni++
		}
		remap := append([]int32(nil), m.Remap()...)
		removed := append([]int32(nil), m.Removed()...)
		g2, err := m.Commit()
		if err != nil {
			t.Fatal(err)
		}
		if g2 != g {
			t.Fatal("Commit returned a different *Game than Build")
		}
		requireGamesEqual(t, g2, streamInto(t, NewBuilder(), newWeights, want))

		// Remap/Removed bookkeeping: every kept player maps to its old
		// index, every old index is kept xor removed.
		kept := make(map[int32]bool)
		for newi, old := range remap {
			if old >= 0 {
				kept[old] = true
				if int(old) != keeps[indexOf(remapKeeps(remap), newi)] {
					// (cross-checked below via the kept set instead)
					_ = newi
				}
			}
		}
		for i := 0; i < oldPlayers; i++ {
			isRemoved := contains32(removed, int32(i))
			if kept[int32(i)] == isRemoved {
				t.Fatalf("old player %d: kept=%v removed=%v", i, kept[int32(i)], isRemoved)
			}
		}
	}
}

// remapKeeps lists the new indices whose remap entry is a keep.
func remapKeeps(remap []int32) []int {
	var out []int
	for newi, old := range remap {
		if old >= 0 {
			out = append(out, newi)
		}
	}
	return out
}

func indexOf(s []int, v int) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return 0
}

func contains32(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// TestMutationErrors: streaming misuse and invalid streamed content must
// fail Commit with Build's messages and leave the old arena readable.
func TestMutationErrors(t *testing.T) {
	src := rng.New(44)
	weights := []float64{1, 1, 1, 1}
	strats := randomStrategies(src, 3, 2, len(weights))
	build := func() (*Builder, *Game) {
		b := NewBuilder()
		return b, streamInto(t, b, weights, strats)
	}
	cases := []struct {
		name   string
		stream func(m *Mutation)
		substr string
	}{
		{"keep out of range", func(m *Mutation) { m.KeepPlayer(3) }, "keep player 3 of 3"},
		{"keep descending", func(m *Mutation) { m.KeepPlayer(1); m.KeepPlayer(0) }, "must ascend"},
		{"keep twice", func(m *Mutation) { m.KeepPlayer(1); m.KeepPlayer(1) }, "must ascend"},
		{"no players", func(m *Mutation) {}, "no players"},
		{"empty player", func(m *Mutation) { m.NextPlayer() }, "no strategies"},
		{"empty strategy", func(m *Mutation) { m.NextPlayer(); m.NextStrategy() }, "uses no resources"},
		{"bad resource", func(m *Mutation) {
			m.NextPlayer()
			m.NextStrategy()
			m.AddUse(9, 1)
		}, "references resource 9"},
		{"bad weight", func(m *Mutation) {
			m.NextPlayer()
			m.NextStrategy()
			m.AddUse(0, math.Inf(1))
		}, "invalid weight"},
		{"duplicate resource", func(m *Mutation) {
			m.NextPlayer()
			m.NextStrategy()
			m.AddUse(0, 1)
			m.AddUse(0, 2)
		}, "uses resource 0 twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, g := build()
			m := b.BeginMutation()
			tc.stream(m)
			if _, err := m.Commit(); err == nil || !strings.Contains(err.Error(), tc.substr) {
				t.Fatalf("Commit error = %v, want substring %q", err, tc.substr)
			}
			// The old arena must still read back intact.
			requireGamesEqual(t, g, streamInto(t, NewBuilder(), weights, strats))
		})
	}
}

// TestEngineMutationCarry: PrepareMutation/ApplyMutation must leave the
// engine consistent with the committed game — loads within accumulation
// tolerance of a from-scratch recomputation, kept players carrying their
// profile, streamed players on strategy 0 — and solvable to equilibrium.
func TestEngineMutationCarry(t *testing.T) {
	src := rng.New(45)
	for trial := 0; trial < 20; trial++ {
		resources := 4 + src.Intn(5)
		players := 3 + src.Intn(8)
		weights := make([]float64, resources)
		for r := range weights {
			weights[r] = src.Uniform(0.5, 2)
		}
		strats := randomStrategies(src, players, 2+src.Intn(3), resources)
		b := NewBuilder()
		g := streamInto(t, b, weights, strats)
		e := NewEngine(g)
		e.ResetRandom(src)
		// Warm the caches with a few moves.
		for step := 0; step < 10; step++ {
			i := src.Intn(players)
			if err := e.Move(i, src.Intn(g.StrategyCount(i))); err != nil {
				t.Fatal(err)
			}
		}
		oldProfile := e.Profile().Clone()

		// Drop one player, keep the rest, stream one new player.
		drop := src.Intn(players)
		extra := randomStrategies(src, 1, 2, resources)[0]
		m := b.BeginMutation()
		for i := 0; i < players; i++ {
			if i != drop {
				m.KeepPlayer(i)
			}
		}
		m.NextPlayer()
		for _, strat := range extra {
			m.NextStrategy()
			for _, u := range strat {
				m.AddUse(u.Resource, u.Weight)
			}
		}
		e.PrepareMutation(m.Removed())
		g2, err := m.Commit()
		if err != nil {
			t.Fatal(err)
		}
		e.ApplyMutation(g2, m.Remap(), nil)

		if e.Game() != g2 {
			t.Fatal("engine not bound to the committed game")
		}
		p := e.Profile()
		if len(p) != g2.Players() {
			t.Fatalf("profile has %d entries, want %d", len(p), g2.Players())
		}
		for newi, old := range m.Remap() {
			want := 0
			if old >= 0 {
				want = oldProfile[old]
			}
			if p[newi] != want {
				t.Fatalf("player %d carries strategy %d, want %d", newi, p[newi], want)
			}
		}
		fresh := g2.Loads(p)
		for r := range fresh {
			if diff := math.Abs(e.Loads()[r] - fresh[r]); diff > 1e-9*(math.Abs(fresh[r])+1) {
				t.Fatalf("resource %d load %v drifted from recomputed %v", r, e.Loads()[r], fresh[r])
			}
		}
		for i := 0; i < g2.Players(); i++ {
			want := g2.PlayerCost(p, fresh, i)
			if diff := math.Abs(e.PlayerCost(i) - want); diff > 1e-9*(math.Abs(want)+1) {
				t.Fatalf("player %d cost %v drifted from recomputed %v", i, e.PlayerCost(i), want)
			}
		}
		if _, err := e.CGBA(CGBAConfig{}, src); err != nil {
			t.Fatal(err)
		}
		if !e.IsEquilibrium(0) {
			t.Fatal("CGBA after mutation did not reach equilibrium")
		}
	}
}

// TestApplyMutationFallsBackToBind: without a PrepareMutation (or after a
// resource-count change) ApplyMutation must degrade to a plain Bind.
func TestApplyMutationFallsBackToBind(t *testing.T) {
	src := rng.New(46)
	weights := []float64{1, 1, 1}
	b := NewBuilder()
	g := streamInto(t, b, weights, randomStrategies(src, 3, 2, len(weights)))
	e := NewEngine(g)
	e.ResetRandom(src)
	if _, err := b.AddPlayer(randomStrategies(src, 1, 2, len(weights))[0]); err != nil {
		t.Fatal(err)
	}
	// No PrepareMutation ran, so this must take the Bind path and leave
	// the engine queryable after a Reset.
	e.ApplyMutation(g, make([]int32, g.Players()), nil)
	if e.Game() != g {
		t.Fatal("fallback did not bind the new game")
	}
	e.ResetRandom(src)
	if _, err := e.CGBA(CGBAConfig{}, src); err != nil {
		t.Fatal(err)
	}
}

// TestBuildAndCommitLeaveIndexesUnbuilt: neither Build nor Commit pays
// for the incidence indexes; only their readers build them.
func TestBuildAndCommitLeaveIndexesUnbuilt(t *testing.T) {
	src := rng.New(47)
	weights := []float64{1.3, 0.6, 2.2, 1.1, 0.8}
	strats := randomStrategies(src, 6, 3, len(weights))
	b := NewBuilder()
	g := streamInto(t, b, weights, strats)
	requireIndexes(t, "Build", g, false, false)

	// Build the indexes, then mutate: the commit must leave them stale.
	g.playerIndex()
	g.useIndex()
	// The streamed player's factors come from the validation pass alone:
	// the declared-empty reweight set skips every other recompute.
	m := b.BeginMutation()
	m.KeepPlayer(1)
	m.KeepPlayer(4)
	m.NextPlayer()
	for _, strat := range strats[0] {
		m.NextStrategy()
		for _, u := range strat {
			m.AddUse(u.Resource, u.Weight)
		}
	}
	m.SetReweighted(nil)
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	requireIndexes(t, "Commit", g, false, false)
	content := [][][]Use{strats[1], strats[4], strats[0]}
	requireGamesEqual(t, g, streamInto(t, NewBuilder(), weights, content))
	if _, err := b.AddPlayer(strats[2]); err != nil {
		t.Fatal(err)
	}
	requireIndexes(t, "AddPlayer", g, false, false)
}

// TestIndexReadersBuildFirst: every reader of an incidence index builds
// it for the current structure before reading, and only the index it
// reads. Each case first builds both indexes for a stale structure, so a
// reader that trusted them would diverge from the fresh build the result
// is compared against (requireGamesEqual also compares the indexes).
func TestIndexReadersBuildFirst(t *testing.T) {
	weights := []float64{1.4, 0.7, 2.0, 1.2, 0.9, 1.6}
	// setup builds a game, warms both indexes, and restructures it with
	// an unweighted commit (keep odd players, restream two).
	setup := func(t *testing.T, seed int64) (*Builder, *Game, [][][]Use) {
		t.Helper()
		src := rng.New(seed)
		strats := randomStrategies(src, 8, 3, len(weights))
		b := NewBuilder()
		g := streamInto(t, b, weights, strats)
		g.playerIndex()
		g.useIndex()
		news := randomStrategies(src, 2, 2, len(weights))
		m := b.BeginMutation()
		var content [][][]Use
		for i := 1; i < len(strats); i += 2 {
			m.KeepPlayer(i)
			content = append(content, strats[i])
		}
		for _, p := range news {
			m.NextPlayer()
			for _, strat := range p {
				m.NextStrategy()
				for _, u := range strat {
					m.AddUse(u.Resource, u.Weight)
				}
			}
			content = append(content, p)
		}
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		requireIndexes(t, "setup", g, false, false)
		return b, g, content
	}
	fresh := func(t *testing.T, w []float64, content [][][]Use) *Game {
		return streamInto(t, NewBuilder(), w, content)
	}

	t.Run("Bind+Move", func(t *testing.T) {
		_, g, content := setup(t, 1)
		e := NewEngine(g)
		requireIndexes(t, "Bind", g, false, false)
		e.ResetRandom(rng.New(2))
		if err := e.Move(0, 1); err != nil {
			t.Fatal(err)
		}
		requireIndexes(t, "Move", g, true, false)
		requireGamesEqual(t, g, fresh(t, weights, content))
	})
	t.Run("SetResourceWeight", func(t *testing.T) {
		_, g, content := setup(t, 3)
		if err := g.SetResourceWeight(2, 3.5); err != nil {
			t.Fatal(err)
		}
		requireIndexes(t, "SetResourceWeight", g, false, true)
		w := append([]float64(nil), weights...)
		w[2] = 3.5
		requireGamesEqual(t, g, fresh(t, w, content))
	})
	t.Run("SetReweighted", func(t *testing.T) {
		b, g, content := setup(t, 4)
		m := b.BeginMutation()
		for i := range content {
			m.KeepPlayer(i)
		}
		b.Weights()[4] = 0.25
		m.SetReweighted([]int32{4})
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		requireIndexes(t, "SetReweighted commit", g, false, true)
		w := append([]float64(nil), weights...)
		w[4] = 0.25
		requireGamesEqual(t, g, fresh(t, w, content))
	})
	t.Run("ApplyMutation", func(t *testing.T) {
		b, g, content := setup(t, 5)
		e := NewEngine(g)
		e.ResetRandom(rng.New(6))
		for i := range content {
			e.PlayerCost(i) // fill every cache so kept players carry clean ones
		}
		m := b.BeginMutation()
		for i := 1; i < len(content); i++ {
			m.KeepPlayer(i)
		}
		e.PrepareMutation(m.Removed())
		if _, err := m.Commit(); err != nil {
			t.Fatal(err)
		}
		e.ApplyMutation(g, m.Remap(), nil)
		requireIndexes(t, "ApplyMutation", g, true, false)
		// A clean cache the walk missed would disagree with the engine's
		// own loads.
		checkEngineAgainstShadow(t, e, g, e.Profile().Clone(), slices.Clone(e.Loads()))
		requireGamesEqual(t, g, fresh(t, weights, content[1:]))
	})
	t.Run("CGBA", func(t *testing.T) {
		_, g, content := setup(t, 7)
		want, err := NewEngine(fresh(t, weights, content)).CGBA(CGBAConfig{Exact: true}, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		got, err := NewEngine(g).CGBA(CGBAConfig{Exact: true}, rng.New(8))
		if err != nil {
			t.Fatal(err)
		}
		requireIndexes(t, "CGBA", g, true, false)
		requireSameResult(t, "CGBA", got, want)
	})
	t.Run("CGBASharded", func(t *testing.T) {
		g, assign := clusteredGame(t, rng.New(9), 3, 10, 4, 6, 5)
		plan, err := NewShardPlan(3, assign)
		if err != nil {
			t.Fatal(err)
		}
		requireIndexes(t, "New", g, false, false)
		runCGBASharded(t, g, CGBAConfig{Lambda: 0.01}, plan, 1, 2)
		requireIndexes(t, "CGBASharded", g, true, false)
	})
}

// TestApplyMutationNoKeptSkipsWalk: with every player streamed fresh,
// ApplyMutation skips the touched-resource walk without building the
// player index, and running the walk afterwards changes no dirty flag and
// no load bit.
func TestApplyMutationNoKeptSkipsWalk(t *testing.T) {
	src := rng.New(48)
	weights := []float64{1.1, 0.9, 1.7, 0.6, 1.3}
	b := NewBuilder()
	g := streamInto(t, b, weights, randomStrategies(src, 6, 3, len(weights)))
	e := NewEngine(g)
	if _, err := e.CGBA(CGBAConfig{Exact: true}, src); err != nil {
		t.Fatal(err)
	}
	m := b.BeginMutation()
	for _, p := range randomStrategies(src, 7, 2, len(weights)) {
		m.NextPlayer()
		for _, strat := range p {
			m.NextStrategy()
			for _, u := range strat {
				m.AddUse(u.Resource, u.Weight)
			}
		}
	}
	e.PrepareMutation(m.Removed())
	if _, err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	extra := []int32{0, 3}
	e.ApplyMutation(g, m.Remap(), extra)
	requireIndexes(t, "ApplyMutation", g, false, false)

	dirty := slices.Clone(e.dirty)
	loads := make([]uint64, len(e.loads))
	for r, l := range e.loads {
		loads[r] = math.Float64bits(l)
	}
	g.playerIndex()
	for _, r := range append(slices.Clone(e.mutTouched), extra...) {
		e.markTouched(int(r))
	}
	if !slices.Equal(e.dirty, dirty) {
		t.Fatalf("full walk changed dirty flags: %v -> %v", dirty, e.dirty)
	}
	for r, l := range e.loads {
		if math.Float64bits(l) != loads[r] {
			t.Fatalf("resource %d load bits changed", r)
		}
	}
	for i, d := range e.dirty {
		if !d {
			t.Fatalf("streamed player %d is clean", i)
		}
	}
}
