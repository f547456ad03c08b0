package topology

import (
	"strings"
	"testing"

	"eotora/internal/rng"
	"eotora/internal/units"
)

// tinyNetwork builds a minimal hand-rolled valid network:
// 2 stations, 2 rooms, 3 servers, 2 devices.
func tinyNetwork() *Network {
	return &Network{
		BaseStations: []BaseStation{
			{
				ID: 0, Band: LowBand, Pos: Point{X: 0, Y: 0}, CoverageRadius: 1000,
				AccessBandwidth: 50 * units.MHz, FronthaulBandwidth: 500 * units.MHz,
				FronthaulSE: 10, Fronthaul: WiredFiber, Rooms: []int{0},
			},
			{
				ID: 1, Band: MidBand, Pos: Point{X: 100, Y: 0}, CoverageRadius: 50,
				AccessBandwidth: 80 * units.MHz, FronthaulBandwidth: 800 * units.MHz,
				FronthaulSE: 10, Fronthaul: WirelessMMWave, Rooms: []int{0, 1},
			},
		},
		Rooms: []Room{
			{ID: 0, Pos: Point{X: 0, Y: 50}},
			{ID: 1, Pos: Point{X: 100, Y: 50}},
		},
		Servers: []Server{
			{ID: 0, Room: 0, Cores: 64, MinFreq: 1.8 * units.GHz, MaxFreq: 3.6 * units.GHz},
			{ID: 1, Room: 0, Cores: 128, MinFreq: 1.8 * units.GHz, MaxFreq: 3.6 * units.GHz},
			{ID: 2, Room: 1, Cores: 64, MinFreq: 1.8 * units.GHz, MaxFreq: 3.6 * units.GHz},
		},
		Devices: []Device{
			{ID: 0, Pos: Point{X: 10, Y: 0}},
			{ID: 1, Pos: Point{X: 110, Y: 0}},
		},
		Suitability: [][]float64{
			{0.5, 0.8, 1.0},
			{0.9, 0.6, 0.7},
		},
	}
}

func TestFinalizeValidNetwork(t *testing.T) {
	n := tinyNetwork()
	if err := n.Finalize(); err != nil {
		t.Fatalf("Finalize() = %v", err)
	}
	if err := n.CheckFeasible(); err != nil {
		t.Fatalf("CheckFeasible() = %v", err)
	}
}

func TestValidationErrors(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(n *Network)
		wantSub string
	}{
		{
			name:    "no stations",
			mutate:  func(n *Network) { n.BaseStations = nil },
			wantSub: "no base stations",
		},
		{
			name:    "no rooms",
			mutate:  func(n *Network) { n.Rooms = nil },
			wantSub: "no server rooms",
		},
		{
			name:    "no servers",
			mutate:  func(n *Network) { n.Servers = nil },
			wantSub: "no servers",
		},
		{
			name:    "no devices",
			mutate:  func(n *Network) { n.Devices = nil },
			wantSub: "no devices",
		},
		{
			name:    "duplicate room IDs",
			mutate:  func(n *Network) { n.Rooms[1].ID = 0 },
			wantSub: "duplicate room",
		},
		{
			name:    "zero coverage",
			mutate:  func(n *Network) { n.BaseStations[0].CoverageRadius = 0 },
			wantSub: "coverage radius",
		},
		{
			name:    "zero access bandwidth",
			mutate:  func(n *Network) { n.BaseStations[0].AccessBandwidth = 0 },
			wantSub: "bandwidth",
		},
		{
			name:    "zero fronthaul spectral efficiency",
			mutate:  func(n *Network) { n.BaseStations[1].FronthaulSE = 0 },
			wantSub: "spectral efficiency",
		},
		{
			name:    "station with no rooms",
			mutate:  func(n *Network) { n.BaseStations[0].Rooms = nil },
			wantSub: "no room",
		},
		{
			name:    "wired station with two rooms",
			mutate:  func(n *Network) { n.BaseStations[0].Rooms = []int{0, 1} },
			wantSub: "wired",
		},
		{
			name:    "station referencing unknown room",
			mutate:  func(n *Network) { n.BaseStations[0].Rooms = []int{9} },
			wantSub: "unknown room",
		},
		{
			name:    "station listing a room twice",
			mutate:  func(n *Network) { n.BaseStations[1].Rooms = []int{0, 0} },
			wantSub: "twice",
		},
		{
			name:    "server in unknown room",
			mutate:  func(n *Network) { n.Servers[0].Room = 7 },
			wantSub: "unknown room",
		},
		{
			name:    "server with zero cores",
			mutate:  func(n *Network) { n.Servers[0].Cores = 0 },
			wantSub: "cores",
		},
		{
			name:    "inverted frequency range",
			mutate:  func(n *Network) { n.Servers[0].MaxFreq = n.Servers[0].MinFreq / 2 },
			wantSub: "frequency range",
		},
		{
			name:    "suitability row count mismatch",
			mutate:  func(n *Network) { n.Suitability = n.Suitability[:1] },
			wantSub: "suitability",
		},
		{
			name:    "suitability column count mismatch",
			mutate:  func(n *Network) { n.Suitability[0] = n.Suitability[0][:2] },
			wantSub: "suitability",
		},
		{
			name:    "suitability out of range",
			mutate:  func(n *Network) { n.Suitability[0][0] = 1.5 },
			wantSub: "outside",
		},
		{
			name:    "zero suitability rejected",
			mutate:  func(n *Network) { n.Suitability[0][0] = 0 },
			wantSub: "outside",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := tinyNetwork()
			tt.mutate(n)
			err := n.Finalize()
			if err == nil {
				t.Fatal("Finalize() succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error %q does not mention %q", err, tt.wantSub)
			}
		})
	}
}

func TestConnectivityCaches(t *testing.T) {
	n := tinyNetwork()
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if got := n.ServersInRoom(0); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("ServersInRoom(0) = %v, want [0 1]", got)
	}
	if got := n.ServersInRoom(1); len(got) != 1 || got[0] != 2 {
		t.Errorf("ServersInRoom(1) = %v, want [2]", got)
	}
	if got := n.ServersInRoom(42); got != nil {
		t.Errorf("ServersInRoom(42) = %v, want nil", got)
	}
	// Station 0 (wired to room 0) reaches servers 0, 1.
	if got := n.ReachableServers(0); len(got) != 2 {
		t.Errorf("ReachableServers(0) = %v, want two servers", got)
	}
	// Station 1 (wireless to both rooms) reaches all three.
	if got := n.ReachableServers(1); len(got) != 3 {
		t.Errorf("ReachableServers(1) = %v, want three servers", got)
	}
	if got := n.ReachableServers(-1); got != nil {
		t.Errorf("ReachableServers(-1) = %v, want nil", got)
	}
	if got := n.ReachableServers(5); got != nil {
		t.Errorf("ReachableServers(5) = %v, want nil", got)
	}
}

func TestCoverageAndFeasiblePairs(t *testing.T) {
	n := tinyNetwork()
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	// Device 0 at (10, 0): covered by station 0 (radius 1000) and station 1
	// (distance 90 > 50, not covered).
	if got := n.CoveringStations(Point{X: 10, Y: 0}); len(got) != 1 || got[0] != 0 {
		t.Errorf("CoveringStations = %v, want [0]", got)
	}
	pairs := n.FeasiblePairs(Point{X: 10, Y: 0})
	if len(pairs) != 2 {
		t.Fatalf("FeasiblePairs = %v, want 2 pairs via station 0", pairs)
	}
	for _, p := range pairs {
		if p.Station != 0 {
			t.Errorf("pair %+v uses station %d, want 0", p, p.Station)
		}
	}
	// Device 1 at (110, 0): covered by both stations; station 1 adds all
	// three servers, station 0 adds servers 0, 1.
	pairs = n.FeasiblePairs(Point{X: 110, Y: 0})
	if len(pairs) != 5 {
		t.Errorf("FeasiblePairs = %v, want 5 pairs", pairs)
	}
}

func TestCheckFeasibleFailure(t *testing.T) {
	n := tinyNetwork()
	n.Devices = append(n.Devices, Device{ID: 2, Pos: Point{X: 5000, Y: 5000}})
	n.Suitability = append(n.Suitability, []float64{0.5, 0.5, 0.5})
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckFeasible(); err == nil {
		t.Error("CheckFeasible() passed for an uncovered device")
	}
}

func TestServerCapacity(t *testing.T) {
	s := Server{Cores: 64, MinFreq: 1.8 * units.GHz, MaxFreq: 3.6 * units.GHz}
	if got := s.Capacity(2 * units.GHz); got != 128*units.GHz {
		t.Errorf("Capacity = %v, want 128 GHz", got)
	}
	if got := s.Capacity(s.MaxFreq); got != units.Frequency(64*3.6e9) {
		t.Errorf("Capacity(MaxFreq) = %v", got)
	}
}

func TestPointDistance(t *testing.T) {
	if got := (Point{X: 0, Y: 0}).DistanceTo(Point{X: 3, Y: 4}); got != 5 {
		t.Errorf("DistanceTo = %v, want 5", got)
	}
}

func TestEnumStrings(t *testing.T) {
	if LowBand.String() != "low-band" || MidBand.String() != "mid-band" || HighBand.String() != "high-band" {
		t.Error("BandClass strings wrong")
	}
	if BandClass(99).String() != "BandClass(99)" {
		t.Error("unknown BandClass string wrong")
	}
	if WiredFiber.String() != "wired-fiber" || WirelessMMWave.String() != "wireless-mmwave" {
		t.Error("FronthaulKind strings wrong")
	}
	if FronthaulKind(99).String() != "FronthaulKind(99)" {
		t.Error("unknown FronthaulKind string wrong")
	}
}

func TestDefaultSpecMatchesPaper(t *testing.T) {
	spec := DefaultSpec(100)
	if spec.Stations != 6 {
		t.Errorf("Stations = %d, want 6 (paper VI-A)", spec.Stations)
	}
	if spec.Rooms != 2 {
		t.Errorf("Rooms = %d, want 2", spec.Rooms)
	}
	if spec.ServersPerRoom != 8 {
		t.Errorf("ServersPerRoom = %d, want 8", spec.ServersPerRoom)
	}
	if spec.SmallCores != 64 || spec.LargeCores != 128 {
		t.Errorf("cores = %d/%d, want 64/128", spec.SmallCores, spec.LargeCores)
	}
	if spec.FreqMin != 1.8*units.GHz || spec.FreqMax != 3.6*units.GHz {
		t.Errorf("freq range = [%v, %v], want [1.8 GHz, 3.6 GHz]", spec.FreqMin, spec.FreqMax)
	}
	if spec.FronthaulSE != 10 {
		t.Errorf("FronthaulSE = %v, want 10 bps/Hz", spec.FronthaulSE)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("DefaultSpec invalid: %v", err)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	base := DefaultSpec(10)
	tests := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero stations", func(s *Spec) { s.Stations = 0 }},
		{"zero rooms", func(s *Spec) { s.Rooms = 0 }},
		{"zero servers per room", func(s *Spec) { s.ServersPerRoom = 0 }},
		{"zero devices", func(s *Spec) { s.Devices = 0 }},
		{"zero area", func(s *Spec) { s.AreaSize = 0 }},
		{"too many umbrellas", func(s *Spec) { s.UmbrellaStations = s.Stations + 1 }},
		{"negative umbrellas", func(s *Spec) { s.UmbrellaStations = -1 }},
		{"no midband radius", func(s *Spec) { s.UmbrellaStations = 0; s.MidBandRadius = 0 }},
		{"bad access bandwidth", func(s *Spec) { s.AccessBandwidthMax = s.AccessBandwidthMin - 1 }},
		{"bad fronthaul bandwidth", func(s *Spec) { s.FronthaulBandwidthMin = 0 }},
		{"bad fronthaul SE", func(s *Spec) { s.FronthaulSE = 0 }},
		{"bad cores", func(s *Spec) { s.SmallCores = 0 }},
		{"bad freq range", func(s *Spec) { s.FreqMax = s.FreqMin / 2 }},
		{"bad suitability", func(s *Spec) { s.SuitabilityMin = 0 }},
		{"suitability above one", func(s *Spec) { s.SuitabilityMax = 1.2 }},
		{"negative speed", func(s *Spec) { s.DeviceSpeedMax = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := base
			tt.mutate(&spec)
			if err := spec.Validate(); err == nil {
				t.Error("Validate() passed, want error")
			}
		})
	}
}

func TestGenerateDefaultScenario(t *testing.T) {
	src := rng.New(42)
	n, err := Generate(DefaultSpec(100), src)
	if err != nil {
		t.Fatal(err)
	}
	k, m, nn, i := n.Counts()
	if k != 6 || m != 2 || nn != 16 || i != 100 {
		t.Errorf("Counts = (%d,%d,%d,%d), want (6,2,16,100)", k, m, nn, i)
	}
	// Half the servers in each room must be 64-core, half 128-core.
	for room := 0; room < 2; room++ {
		small, large := 0, 0
		for _, idx := range n.ServersInRoom(room) {
			switch n.Servers[idx].Cores {
			case 64:
				small++
			case 128:
				large++
			default:
				t.Errorf("server %d has unexpected cores %d", idx, n.Servers[idx].Cores)
			}
		}
		if small != 4 || large != 4 {
			t.Errorf("room %d has %d small / %d large servers, want 4/4", room, small, large)
		}
	}
	// Every wired station connects to exactly one room.
	for k, bs := range n.BaseStations {
		if bs.Fronthaul == WiredFiber && len(bs.Rooms) != 1 {
			t.Errorf("station %d: wired with %d rooms", k, len(bs.Rooms))
		}
		if float64(bs.AccessBandwidth) < 50e6 || float64(bs.AccessBandwidth) > 100e6 {
			t.Errorf("station %d access bandwidth %v outside paper range", k, bs.AccessBandwidth)
		}
		if float64(bs.FronthaulBandwidth) < 0.5e9 || float64(bs.FronthaulBandwidth) > 1e9 {
			t.Errorf("station %d fronthaul bandwidth %v outside paper range", k, bs.FronthaulBandwidth)
		}
	}
	// Suitabilities all in [0.5, 1].
	for i, row := range n.Suitability {
		for j, sigma := range row {
			if sigma < 0.5 || sigma > 1 {
				t.Errorf("σ[%d][%d] = %v outside [0.5, 1]", i, j, sigma)
			}
		}
	}
	// Every device must have a feasible pair (guaranteed by umbrellas).
	if err := n.CheckFeasible(); err != nil {
		t.Error(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(DefaultSpec(20), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(DefaultSpec(20), rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for k := range a.BaseStations {
		if a.BaseStations[k].AccessBandwidth != b.BaseStations[k].AccessBandwidth {
			t.Fatalf("station %d differs across same-seed generations", k)
		}
	}
	for i := range a.Devices {
		if a.Devices[i].Pos != b.Devices[i].Pos {
			t.Fatalf("device %d position differs across same-seed generations", i)
		}
	}
}

func TestGenerateWirelessFronthaul(t *testing.T) {
	spec := DefaultSpec(10)
	spec.WirelessFronthaul = true
	n, err := Generate(spec, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for k, bs := range n.BaseStations {
		if bs.Fronthaul != WirelessMMWave {
			t.Errorf("station %d: fronthaul %v, want wireless", k, bs.Fronthaul)
		}
		if len(bs.Rooms) != spec.Rooms {
			t.Errorf("station %d connects to %d rooms, want all %d", k, len(bs.Rooms), spec.Rooms)
		}
		// Wireless stations reach every server.
		if got := n.ReachableServers(k); len(got) != len(n.Servers) {
			t.Errorf("station %d reaches %d servers, want %d", k, len(got), len(n.Servers))
		}
	}
}

func TestGenerateRejectsBadSpec(t *testing.T) {
	spec := DefaultSpec(10)
	spec.Stations = 0
	if _, err := Generate(spec, rng.New(1)); err == nil {
		t.Error("Generate accepted invalid spec")
	}
}

func TestLayoutStrings(t *testing.T) {
	if LayoutRandom.String() != "random" || LayoutHex.String() != "hex" || LayoutGrid.String() != "grid" {
		t.Error("layout strings wrong")
	}
	if Layout(7).String() != "Layout(7)" {
		t.Error("unknown layout string wrong")
	}
}

func TestHexLattice(t *testing.T) {
	pts := hexLattice(2000, 600, 7)
	if len(pts) != 7 {
		t.Fatalf("points = %d, want 7", len(pts))
	}
	center := Point{X: 1000, Y: 1000}
	// First point is the center cell; points are ordered by distance.
	if center.DistanceTo(pts[0]) > 1 {
		t.Errorf("first point %+v not at center", pts[0])
	}
	for i := 1; i < len(pts); i++ {
		if center.DistanceTo(pts[i]) < center.DistanceTo(pts[i-1])-1e-9 {
			t.Errorf("points not ordered by distance at %d", i)
		}
	}
	// Pairwise distances at least the lattice spacing.
	spacing := 600 * 1.7320508 * 0.8660254 // row pitch is the smallest gap
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].DistanceTo(pts[j]); d < spacing*0.49 {
				t.Errorf("points %d and %d only %.0fm apart", i, j, d)
			}
		}
	}
	if hexLattice(2000, 600, 0) != nil {
		t.Error("zero points should be nil")
	}
	// Degenerate radius falls back without panicking.
	if got := hexLattice(2000, 0, 3); len(got) != 3 {
		t.Errorf("fallback radius produced %d points", len(got))
	}
}

func TestGenerateHexLayout(t *testing.T) {
	spec := DefaultSpec(30)
	spec.Layout = LayoutHex
	net, err := Generate(spec, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	// Mid-band stations sit on the lattice: distinct, deterministic
	// positions near the center.
	center := Point{X: spec.AreaSize / 2, Y: spec.AreaSize / 2}
	for k := spec.UmbrellaStations; k < spec.Stations; k++ {
		bs := net.BaseStations[k]
		if bs.Band != MidBand {
			t.Errorf("station %d band %v", k, bs.Band)
		}
		if center.DistanceTo(bs.Pos) > spec.AreaSize {
			t.Errorf("station %d far from center: %+v", k, bs.Pos)
		}
	}
	// Same seed, same layout → same positions.
	net2, err := Generate(spec, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	for k := range net.BaseStations {
		if net.BaseStations[k].Pos != net2.BaseStations[k].Pos {
			t.Errorf("hex layout not deterministic at station %d", k)
		}
	}
	if err := net.CheckFeasible(); err != nil {
		t.Error(err)
	}
}

func TestGridLattice(t *testing.T) {
	pts := gridLattice(5000, 49)
	if len(pts) != 49 {
		t.Fatalf("points = %d, want 49", len(pts))
	}
	// 49 points → a 7×7 grid of cell centers, cell size 5000/7.
	cell := 5000.0 / 7
	for i, p := range pts {
		wantX := (float64(i%7) + 0.5) * cell
		wantY := (float64(i/7) + 0.5) * cell
		if p.X != wantX || p.Y != wantY {
			t.Errorf("point %d = %+v, want (%.1f, %.1f)", i, p, wantX, wantY)
		}
	}
	// Coverage guarantee: every point of the area lies within half a cell
	// diagonal (~505 m here) of some center — probe a fine sample grid.
	halfDiag := 0.5 * 1.4142136 * cell
	for x := 0.0; x <= 5000; x += 97 {
		for y := 0.0; y <= 5000; y += 97 {
			probe := Point{X: x, Y: y}
			best := probe.DistanceTo(pts[0])
			for _, p := range pts[1:] {
				if d := probe.DistanceTo(p); d < best {
					best = d
				}
			}
			if best > halfDiag+1e-9 {
				t.Fatalf("probe (%.0f, %.0f) is %.1fm from nearest center, want ≤ %.1f", x, y, best, halfDiag)
			}
		}
	}
	if gridLattice(5000, 0) != nil {
		t.Error("zero points should be nil")
	}
	// Non-square counts still produce exactly n points inside the area.
	for _, n := range []int{1, 2, 5, 12, 23} {
		got := gridLattice(1000, n)
		if len(got) != n {
			t.Errorf("gridLattice(1000, %d) = %d points", n, len(got))
		}
		for _, p := range got {
			if p.X < 0 || p.X > 1000 || p.Y < 0 || p.Y > 1000 {
				t.Errorf("gridLattice(1000, %d) point outside area: %+v", n, p)
			}
		}
	}
}

func TestNearestRoomFronthaul(t *testing.T) {
	spec := DefaultSpec(30)
	spec.NearestRoomFronthaul = true
	net, err := Generate(spec, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	for k, bs := range net.BaseStations {
		if len(bs.Rooms) != 1 {
			t.Fatalf("station %d wired to %d rooms, want 1", k, len(bs.Rooms))
		}
		got := bs.Rooms[0]
		for m := range net.Rooms {
			if bs.Pos.DistanceTo(net.Rooms[m].Pos) < bs.Pos.DistanceTo(net.Rooms[got].Pos) {
				t.Errorf("station %d wired to room %d but room %d is closer", k, got, m)
			}
		}
	}
	// Skipping the room draw must not perturb any other sequence: station
	// positions, bandwidths, devices, and suitabilities are identical to
	// the random-wiring network from the same seed.
	random, err := Generate(DefaultSpec(30), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	for k := range net.BaseStations {
		a, b := net.BaseStations[k], random.BaseStations[k]
		if a.Pos != b.Pos || a.AccessBandwidth != b.AccessBandwidth || a.FronthaulBandwidth != b.FronthaulBandwidth {
			t.Errorf("station %d draws differ between nearest-room and random wiring", k)
		}
	}
	for i := range net.Devices {
		if net.Devices[i].Pos != random.Devices[i].Pos || net.Devices[i].Speed != random.Devices[i].Speed {
			t.Errorf("device %d draws differ between nearest-room and random wiring", i)
		}
	}
}

func TestMetroSpec(t *testing.T) {
	spec := MetroSpec(200)
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.UmbrellaStations != 0 {
		t.Error("metro must have no umbrella stations (they would couple every cluster)")
	}
	if !spec.NearestRoomFronthaul || !spec.RoomGrid || spec.Layout != LayoutGrid {
		t.Error("metro should use grid layouts and nearest-room wiring")
	}
	net, err := Generate(spec, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	// Full coverage without umbrellas: Generate already runs CheckFeasible,
	// but assert it explicitly — this is the property the spec's geometry
	// (grid spacing vs. 600 m radius) exists to guarantee.
	if err := net.CheckFeasible(); err != nil {
		t.Fatal(err)
	}
	// Every room should end up with at least one wired station; otherwise
	// its servers would be dead weight.
	wired := make([]bool, spec.Rooms)
	for _, bs := range net.BaseStations {
		for _, m := range bs.Rooms {
			wired[m] = true
		}
	}
	for m, ok := range wired {
		if !ok {
			t.Errorf("room %d has no wired station", m)
		}
	}
}

func TestScenarioPresets(t *testing.T) {
	presets := map[string]Spec{
		"urban":  UrbanSpec(40),
		"rural":  RuralSpec(40),
		"campus": CampusSpec(40),
		"metro":  MetroSpec(40),
	}
	for name, spec := range presets {
		t.Run(name, func(t *testing.T) {
			if err := spec.Validate(); err != nil {
				t.Fatalf("preset invalid: %v", err)
			}
			net, err := Generate(spec, rng.New(21))
			if err != nil {
				t.Fatal(err)
			}
			if err := net.CheckFeasible(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Distinguishing characteristics.
	if u := UrbanSpec(10); u.Stations <= DefaultSpec(10).Stations {
		t.Error("urban should have more stations than default")
	}
	if r := RuralSpec(10); r.UmbrellaStations != r.Stations {
		t.Error("rural should be all low-band")
	}
	if c := CampusSpec(10); !c.WirelessFronthaul {
		t.Error("campus should use wireless fronthaul")
	}
}
