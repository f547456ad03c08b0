package core

import (
	"fmt"
	"math"

	"eotora/internal/game"
	"eotora/internal/par"
	"eotora/internal/rng"
	"eotora/internal/shard"
	"eotora/internal/solver"
	"eotora/internal/topology"
	"eotora/internal/trace"
)

// P2A is the per-slot binary subproblem (P2-A) posed as a weighted
// congestion game: minimize T_t(x, y, Ω, β) over the (station, server)
// choices for fixed frequencies Ω. It owns the mapping between game
// strategies and (station, server) pairs.
//
// A P2A is reusable: BuildP2A refills it for a new slot without
// reallocating (the game arena and the per-device pair rows are rebuilt
// in place), and Reweight swaps only the N compute-resource weights when
// the frequencies change between BDMA rounds but the slot state — and
// therefore the game structure — does not. Engine returns a lazily
// created solve engine bound to the game; CGBA/MCBA solvers run on it so
// their scratch buffers persist across rounds and slots. The P2A also
// holds BDMA's round-pricing scratch: the game's loads under a round's
// profile are that round's Lemma-1 sums (priceLoads).
type P2A struct {
	sys   *System
	game  *game.Game
	pairs [][]topology.Pair // [device][strategy] → (station, server)

	// Reuse machinery. builder owns the game arena (Build returns a
	// stable pointer into it); pairArena backs the pairs rows.
	builder   *game.Builder
	engine    *game.Engine
	pairArena []topology.Pair
	pairOff   []int32
	servers   int
	serverW   []float64 // Reweight's compute weights 1/ω_n

	// instr holds the engine's observability hooks, applied when the lazy
	// engine is created (and immediately if it already exists); pool is
	// the intra-slot worker pool forwarded to the engine the same way, and
	// dl the slot deadline the engine polls at iteration boundaries.
	instr game.Instruments
	pool  *par.Pool
	dl    *solver.Deadline

	// capScale is the slot's per-server capacity degradation captured at
	// BuildP2A time so Reweight can reapply it between rounds (nil =
	// nominal; see trace.State.CapScale).
	capScale []float64

	// Population bookkeeping: playerDev maps game player → device and
	// devPlayer is its inverse (−1 = inactive device). With the full
	// population both are identity maps, so Selection/Profile behave
	// exactly as the fixed-population code did.
	playerDev []int32
	devPlayer []int32

	// Shard-plan memo (see shardPlanFor). shardPlan is the compiled
	// player → shard assignment for planTarget, rebuilt lazily because
	// BuildP2A can change the active population (and thus the player
	// indexing); planAssign is its reused scratch row.
	shardPlan  *game.ShardPlan
	planAssign []int32
	planTarget int
	planValid  bool

	// Round pricing scratch (see bdmaLoop and priceLoads): loads holds
	// the latest priced round's game loads, best and bestLoads the
	// profile and loads of the best round so far.
	loads     []float64
	bestLoads []float64
	best      game.Profile
}

// noOpPin is the access load buildP2A pins on each strategy of an
// f = d = 0 device. Every other player-resource weight is the square root
// of a positive float64, so at least 2^-537: the pin is the only weight
// this small, and pricing reads it as the 0 the device adds to its sums.
const noOpPin = math.SmallestNonzeroFloat64

// capAt returns the capacity scale for server n: capScale[n], or the
// bit-exact nominal 1 when capScale is nil or short.
func capAt(capScale []float64, n int) float64 {
	if n >= len(capScale) {
		return 1
	}
	return capScale[n]
}

// resource indexing inside the game:
//
//	[0, N)            compute resources C_n with weight 1/ω_n (capacity),
//	[N, N+K)          access links B_k^A with weight 1/W_k^A,
//	[N+K, N+2K)       fronthaul links B_k^F with weight 1/W_k^F.
//
// capScale (nil = nominal) degrades each server's effective capacity; the
// scale-1 multiply is bit-exact, so fault-free builds are unchanged.
func (s *System) fillResourceWeights(weights []float64, freq Frequencies, capScale []float64) {
	servers := len(s.Net.Servers)
	stations := len(s.Net.BaseStations)
	for n := 0; n < servers; n++ {
		weights[n] = 1 / (s.Net.Servers[n].Capacity(freq[n]).Hertz() * capAt(capScale, n))
	}
	for k := 0; k < stations; k++ {
		weights[servers+k] = 1 / s.Net.BaseStations[k].AccessBandwidth.Hertz()
		weights[servers+stations+k] = 1 / s.Net.BaseStations[k].FronthaulBandwidth.Hertz()
	}
}

// NewP2A builds the congestion game for a slot: player i's strategies are
// the feasible (station, server) pairs under the current coverage (h > 0)
// and fronthaul connectivity; the player-resource weights are
//
//	p_{i,C_n}   = √(f_i/σ_{i,n})    (corrected from the paper's √(f/ω) typo,
//	                                 consistent with equation (18)),
//	p_{i,B_k^A} = √(d_i/h_{i,k}),
//	p_{i,B_k^F} = √(d_i/h_k^F).
//
// Hot callers (BDMA rounds, simulation slots) should hold a P2A and call
// BuildP2A/Reweight instead, which reuse its memory.
func (s *System) NewP2A(st *trace.State, freq Frequencies) (*P2A, error) {
	p := new(P2A)
	if err := s.BuildP2A(p, st, freq); err != nil {
		return nil, err
	}
	return p, nil
}

// BuildP2A (re)fills p with the slot's game, reusing p's arenas and any
// engine already bound. The game and pair rows previously exposed by p
// are invalidated. Validation and results are identical to NewP2A.
func (s *System) BuildP2A(p *P2A, st *trace.State, freq Frequencies) error {
	if err := s.CheckState(st); err != nil {
		return err
	}
	return s.buildP2A(p, st, freq)
}

// buildP2A is BuildP2A for a state that already passed CheckState.
func (s *System) buildP2A(p *P2A, st *trace.State, freq Frequencies) error {
	if err := s.ValidateFrequencies(freq); err != nil {
		return err
	}
	servers := len(s.Net.Servers)
	stations := len(s.Net.BaseStations)
	_, _, _, devices := s.Net.Counts()

	if p.builder == nil {
		p.builder = game.NewBuilder()
	}
	b := p.builder
	b.Reset(servers + 2*stations)
	s.fillResourceWeights(b.Weights(), freq, st.CapScale)

	p.sys = s
	p.servers = servers
	p.capScale = st.CapScale
	p.planValid = false
	p.pairArena = p.pairArena[:0]
	p.pairOff = append(p.pairOff[:0], 0)
	p.playerDev = p.playerDev[:0]
	p.devPlayer = resizeNegInt32(p.devPlayer, devices)

	for i := 0; i < devices; i++ {
		if !st.ActiveDevice(i) {
			// Departed device: no player and an empty pair row.
			p.pairOff = append(p.pairOff, int32(len(p.pairArena)))
			continue
		}
		p.devPlayer[i] = int32(len(p.playerDev))
		p.playerDev = append(p.playerDev, int32(i))
		b.NextPlayer()
		count := 0
		cycles, bits, suitability := st.TaskSizes[i].Count(), st.DataLengths[i].Bits(), s.Net.Suitability[i]
		// Pass 0 honors ServerDown drains; pass 1 runs only when the drain
		// would strand the device with no feasible pair, re-admitting down
		// servers (a drain is advisory — serving every device wins). With
		// no drains pass 0 visits the same pairs in the same order as
		// before, so fault-free builds are bit-identical.
		for pass := 0; pass < 2 && count == 0; pass++ {
			honorDown := pass == 0
			for _, l := range st.Channels[i] {
				k := l.Station
				accessW := math.Sqrt(bits / l.SE.BpsPerHz())
				fronthaulW := math.Sqrt(bits / st.FronthaulSE[k].BpsPerHz())
				// A device with f, d > 0 streams every strategy as a
				// (server, access, fronthaul) pair, the shape the game's
				// factored best response reads.
				paired := accessW > 0 && fronthaulW > 0 && cycles > 0
				if paired {
					b.NextStation(servers+k, accessW, servers+stations+k, fronthaulW)
				}
				for _, n := range s.Net.ReachableServers(k) {
					// A structurally removed server is skipped on both
					// passes; a Down drain is advisory and re-admitted on
					// pass 1 when the device would otherwise be stranded.
					if !st.ActiveServer(n) || (honorDown && st.Down(n)) {
						continue
					}
					computeW := math.Sqrt(cycles / suitability[n])
					p.pairArena = append(p.pairArena, topology.Pair{Station: k, Server: n})
					count++
					if paired && computeW > 0 {
						b.AddPair(n, computeW)
						continue
					}
					b.NextStrategy()
					// A zero weight means the device exerts no load on that
					// resource (f = 0 reduces EOTO to the pure-communication
					// P1 problem); omit the use rather than inject a zero the
					// game model rejects.
					used := false
					if computeW > 0 {
						b.AddUse(n, computeW)
						used = true
					}
					if accessW > 0 {
						b.AddUse(servers+k, accessW)
						used = true
					}
					if fronthaulW > 0 {
						b.AddUse(servers+stations+k, fronthaulW)
						used = true
					}
					if !used {
						// f = d = 0: the device is a no-op this slot and is
						// indifferent between pairs; pin a negligible access
						// load to keep the strategy well-formed.
						b.AddUse(servers+k, noOpPin)
					}
				}
			}
		}
		if count == 0 {
			return fmt.Errorf("core: device %d has no feasible (station, server) pair this slot", i)
		}
		p.pairOff = append(p.pairOff, int32(len(p.pairArena)))
	}
	g, err := b.Build()
	if err != nil {
		return fmt.Errorf("core: building P2-A game: %w", err)
	}
	p.game = g
	if cap(p.pairs) < devices {
		p.pairs = make([][]topology.Pair, devices)
	} else {
		p.pairs = p.pairs[:devices]
	}
	for i := 0; i < devices; i++ {
		p.pairs[i] = p.pairArena[p.pairOff[i]:p.pairOff[i+1]]
	}
	if p.engine != nil {
		p.engine.Bind(g)
	}
	return nil
}

// ApplyChurn is BuildP2A under the name the slot-update probes call:
// every slot, churned or not, rebuilds into p's recycled arena
// (DESIGN.md §11).
func (s *System) ApplyChurn(p *P2A, st *trace.State, freq Frequencies) error {
	return s.BuildP2A(p, st, freq)
}

// Reweight updates the game in place for new frequencies: only the N
// compute-resource weights 1/ω_n depend on Ω, so the strategy structure,
// pair table, and link weights built for the slot state are untouched.
// The resulting weights are bit-identical to a fresh BuildP2A with the
// same state and frequencies. The bound engine's loads stay valid, and
// its next solve scores against the new weights.
func (p *P2A) Reweight(freq Frequencies) error {
	if err := p.sys.ValidateFrequencies(freq); err != nil {
		return err
	}
	w := p.serverW[:0]
	for n := 0; n < p.servers; n++ {
		w = append(w, 1/(p.sys.Net.Servers[n].Capacity(freq[n]).Hertz()*capAt(p.capScale, n)))
	}
	p.serverW = w
	if err := p.game.SetResourceWeights(0, w); err != nil {
		return fmt.Errorf("core: reweighting P2-A game: %w", err)
	}
	return nil
}

// Game exposes the underlying congestion game.
func (p *P2A) Game() *game.Game { return p.game }

// Engine returns a solve engine bound to the game, created on first use
// and rebound automatically on BuildP2A. Not safe for concurrent use.
func (p *P2A) Engine() *game.Engine {
	if p.engine == nil {
		p.engine = game.NewEngine(p.game)
		p.engine.SetInstruments(p.instr)
		p.engine.SetPool(p.pool)
		p.engine.SetDeadline(p.dl)
	}
	return p.engine
}

// SetInstruments installs observability hooks on the P2A's solve engine
// (now if it exists, otherwise when it is lazily created).
func (p *P2A) SetInstruments(in game.Instruments) {
	p.instr = in
	if p.engine != nil {
		p.engine.SetInstruments(in)
	}
}

// SetPool attaches a worker pool to the P2A's solve engine for the
// sharded solve's interior sweeps (now if the engine exists, otherwise
// when it is lazily created). Nil detaches it. Solver results are
// bit-identical with or without a pool.
func (p *P2A) SetPool(pool *par.Pool) {
	p.pool = pool
	if p.engine != nil {
		p.engine.SetPool(pool)
	}
}

// SetDeadline attaches a slot deadline to the P2A's solve engine (now if
// the engine exists, otherwise when it is lazily created). Nil detaches
// it; a nil or unarmed deadline never truncates a solve.
func (p *P2A) SetDeadline(dl *solver.Deadline) {
	p.dl = dl
	if p.engine != nil {
		p.engine.SetDeadline(dl)
	}
}

// Selection converts a game profile into per-device (station, server)
// choices. The result is always universe-sized: devices outside the
// active population carry (-1, -1).
func (p *P2A) Selection(profile game.Profile) Selection {
	devices := len(p.devPlayer)
	sel := Selection{
		Station: make([]int, devices),
		Server:  make([]int, devices),
	}
	for i := 0; i < devices; i++ {
		sel.Station[i], sel.Server[i] = -1, -1
	}
	for pl, sIdx := range profile {
		i := int(p.playerDev[pl])
		pair := p.pairs[i][sIdx]
		sel.Station[i] = pair.Station
		sel.Server[i] = pair.Server
	}
	return sel
}

// priceLoads fills p.loads with the profile's game loads p_r(z) in
// resource order and returns them: the Lemma-1 sums of the profile's
// Selection (System.lemma1Sums), bit for bit. Players run in ascending
// device order, so each sum adds the same square roots in the same
// order, and a use omitted for a zero weight skips the +0 the state sum
// adds. A real weight absorbs any no-op pins exactly (pins are far below
// half its ulp), so only a load of pins alone differs from the state
// sum; it is subnormal, and it is cleared to the state sum's 0.
func (p *P2A) priceLoads(profile game.Profile) []float64 {
	r := p.game.Resources()
	if cap(p.loads) < r {
		p.loads = make([]float64, r)
	}
	p.loads = p.loads[:r]
	p.game.LoadsInto(p.loads, profile)
	for i, l := range p.loads {
		if l < 0x1p-1022 {
			p.loads[i] = 0
		}
	}
	return p.loads
}

// bestAllocation materializes the Lemma-1 shares (15)–(17) of the best
// round's profile: p_{i,r}/p_r(z), with p_{i,r} read from the chosen
// strategy's arena uses and p_r(z) from the kept loads. Numerators and
// denominators are the values OptimalAllocation recomputes from the
// state (a no-op pin prices as 0), so the shares are bit-identical to
// OptimalAllocation on the best round's Selection.
func (p *P2A) bestAllocation() Allocation {
	devices := len(p.devPlayer)
	a := Allocation{
		AccessShare:    make([]float64, devices),
		FronthaulShare: make([]float64, devices),
		ComputeShare:   make([]float64, devices),
	}
	stations := len(p.sys.Net.BaseStations)
	for pl, sIdx := range p.best {
		i := int(p.playerDev[pl])
		pair := p.pairs[i][sIdx]
		access, fronthaul := p.servers+pair.Station, p.servers+stations+pair.Station
		a.AccessShare[i] = p.share(pl, sIdx, access)
		a.FronthaulShare[i] = p.share(pl, sIdx, fronthaul)
		a.ComputeShare[i] = p.share(pl, sIdx, pair.Server)
	}
	return a
}

// share is player pl's Lemma-1 share of resource r under strategy sIdx
// of the best round: zero when the resource carries no load, as in
// OptimalAllocation.
func (p *P2A) share(pl, sIdx, r int) float64 {
	den := p.bestLoads[r]
	if !(den > 0) {
		return 0
	}
	w := p.game.UseWeight(pl, sIdx, r)
	if w == noOpPin {
		w = 0
	}
	return w / den
}

// Profile converts a universe-sized selection back into a game profile
// over the active players; it returns an error when an active device's
// (station, server) pair is not among its feasible strategies. Each
// device's pair row is scanned directly — rows are short (one entry per
// feasible pair), and scanning avoids the dense (device, station,
// server) inverse table the old implementation carried, which at metro
// scale (100k devices × 49 stations × 100 servers) would dwarf the game
// itself.
func (p *P2A) Profile(sel Selection) (game.Profile, error) {
	profile := make(game.Profile, len(p.playerDev))
	for pl := range profile {
		i := int(p.playerDev[pl])
		k, n := sel.Station[i], sel.Server[i]
		found := -1
		for sIdx, pair := range p.pairs[i] {
			if pair.Station == k && pair.Server == n {
				found = sIdx
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("core: device %d pair (%d, %d) infeasible", i, k, n)
		}
		profile[pl] = int(found)
	}
	return profile, nil
}

// ShardsAuto asks the sharded slot solve to use one shard per
// resource-disjoint topology cluster (see CGBASolver.Shards).
const ShardsAuto = -1

// shardPlanFor returns the slot's player → shard assignment for the
// requested shard count: the topology is partitioned into
// resource-disjoint clusters (internal/shard), each active player is
// assigned to the shard owning every station and server its feasible
// pairs touch, and players whose pairs span shards become boundary
// players the sharded solve reconciles serially. A nil plan (with nil
// error) means sharding is off or degenerate (target ≤ 1, or the whole
// topology is one cluster) and the caller should run the unsharded
// path. The compiled plan is memoized per target and invalidated by
// BuildP2A, so each slot pays one O(players) scan and the BDMA rounds
// after the first reuse it.
func (p *P2A) shardPlanFor(target int) (*game.ShardPlan, error) {
	if target == 0 || target == 1 {
		return nil, nil
	}
	if target < 0 && target != ShardsAuto {
		return nil, fmt.Errorf("core: invalid shard count %d", target)
	}
	if p.planValid && p.planTarget == target {
		return p.shardPlan, nil
	}
	want := target
	if want == ShardsAuto {
		want = math.MaxInt // shard.New clamps to the cluster count
	}
	part := shard.New(p.sys.Net, want)
	if part.Shards <= 1 {
		// Single cluster: every player would land in shard 0, and a
		// one-shard plan is the unsharded solve — skip the plan entirely.
		p.shardPlan, p.planTarget, p.planValid = nil, target, true
		return nil, nil
	}
	assign := p.planAssign[:0]
	for _, dev := range p.playerDev {
		row := p.pairs[dev]
		sh := part.StationShard[row[0].Station]
		for _, pr := range row {
			if part.StationShard[pr.Station] != sh || part.ServerShard[pr.Server] != sh {
				sh = -1
				break
			}
		}
		assign = append(assign, sh)
	}
	p.planAssign = assign
	var err error
	if p.shardPlan == nil {
		p.shardPlan, err = game.NewShardPlan(part.Shards, assign)
	} else {
		err = p.shardPlan.Reset(part.Shards, assign)
	}
	if err != nil {
		return nil, fmt.Errorf("core: shard plan: %w", err)
	}
	p.planTarget, p.planValid = target, true
	return p.shardPlan, nil
}

// resizeNegInt32 returns s with length n and every entry −1.
func resizeNegInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	} else {
		s = s[:n]
	}
	for i := range s {
		s[i] = -1
	}
	return s
}

// P2ASolver produces a selection for a P2-A instance. Implementations are
// the paper's CGBA and the evaluation's baselines.
type P2ASolver interface {
	// Name identifies the solver in reports ("CGBA", "MCBA", "ROPT", "OPT").
	Name() string
	// Solve returns the chosen profile and solver statistics.
	Solve(p *P2A, src *rng.Source) (game.Result, error)
}

// warmStartSolver is implemented by P2A solvers whose dynamics can be
// seeded from a feasible profile. BDMA's alternation uses it for rounds
// after the first: round r−1's equilibrium usually sits near round r's
// (only the compute weights moved), so re-solving from it instead of a
// fresh random profile collapses the best-response transient. The warm
// profile comes from the same bdmaLoop call, never from a previous slot.
type warmStartSolver interface {
	SolveFrom(p *P2A, initial game.Profile, src *rng.Source) (game.Result, error)
}

// CGBASolver is the paper's Algorithm 3.
type CGBASolver struct {
	// Lambda is the λ tolerance in [0, 0.125).
	Lambda float64
	// MaxIterations caps the best-response loop (0 = generous default).
	MaxIterations int
	// Shards splits the slot game into resource-disjoint topology
	// clusters solved concurrently and reconciled at the boundary until
	// the global λ-equilibrium certifies (DESIGN.md §13): 0 or 1 =
	// unsharded (bit-identical to the seed path), ≥ 2 = at most that
	// many shards (clamped to the cluster count), ShardsAuto = one shard
	// per cluster.
	Shards int
}

var _ P2ASolver = CGBASolver{}
var _ warmStartSolver = CGBASolver{}

// Name implements P2ASolver.
func (c CGBASolver) Name() string { return "CGBA" }

// Solve implements P2ASolver. It runs on the instance's persistent
// engine, so repeated solves of the same P2A reuse its buffers and
// scratch.
func (c CGBASolver) Solve(p *P2A, src *rng.Source) (game.Result, error) {
	return c.solveFrom(p, nil, src)
}

// SolveFrom implements warmStartSolver: Solve seeded with an initial
// profile instead of a random one.
func (c CGBASolver) SolveFrom(p *P2A, initial game.Profile, src *rng.Source) (game.Result, error) {
	return c.solveFrom(p, initial, src)
}

func (c CGBASolver) solveFrom(p *P2A, initial game.Profile, src *rng.Source) (game.Result, error) {
	plan, err := p.shardPlanFor(c.Shards)
	if err != nil {
		return game.Result{}, err
	}
	if plan == nil {
		return p.Engine().CGBA(c.config(initial), src)
	}
	return p.Engine().CGBASharded(c.config(initial), plan, src)
}

func (c CGBASolver) config(initial game.Profile) game.CGBAConfig {
	return game.CGBAConfig{
		Lambda:        c.Lambda,
		MaxIterations: c.MaxIterations,
		Initial:       initial,
	}
}

// MCBASolver is the Markov chain Monte Carlo baseline [36].
type MCBASolver struct {
	// Config tunes the Markov chain walk; the zero value selects the
	// game package's defaults.
	Config game.MCBAConfig
}

var _ P2ASolver = MCBASolver{}

// Name implements P2ASolver.
func (m MCBASolver) Name() string { return "MCBA" }

// Solve implements P2ASolver.
func (m MCBASolver) Solve(p *P2A, src *rng.Source) (game.Result, error) {
	return p.Engine().MCBA(m.Config, src)
}

// RandomSolver is the selection step of the ROPT baseline: uniformly
// random feasible choices (the optimal Lemma-1 allocation is applied on
// top by the controller).
type RandomSolver struct{}

var _ P2ASolver = RandomSolver{}

// Name implements P2ASolver.
func (RandomSolver) Name() string { return "ROPT" }

// Solve implements P2ASolver.
func (RandomSolver) Solve(p *P2A, src *rng.Source) (game.Result, error) {
	return game.RandomProfile(p.game, src), nil
}

// OptimalSolver is the exact branch-and-bound baseline standing in for the
// paper's Gurobi runs. With zero budgets the result is provably optimal;
// with budgets it reports the best incumbent (warm-started by CGBA).
type OptimalSolver struct {
	// Config bounds the branch-and-bound search; zero budgets make the
	// solve exact.
	Config solver.BnBConfig
}

var _ P2ASolver = OptimalSolver{}

// Name implements P2ASolver.
func (OptimalSolver) Name() string { return "OPT" }

// Solve implements P2ASolver.
func (o OptimalSolver) Solve(p *P2A, src *rng.Source) (game.Result, error) {
	res, _, err := game.Optimal(p.game, o.Config, src)
	return res, err
}
