package trace

import (
	"math"

	"eotora/internal/rng"
	"eotora/internal/topology"
	"eotora/internal/units"
)

// ChannelConfig parameterizes the access-link channel model.
type ChannelConfig struct {
	// SEMin/SEMax bound the spectral efficiency (paper: 15–50 bps/Hz).
	SEMin, SEMax units.SpectralEfficiency
	// ARCoeff is the AR(1) persistence of the per-pair fading process in
	// [0, 1); higher values make channels change more slowly.
	ARCoeff float64
	// NoiseSigma is the fading innovation scale in bps/Hz.
	NoiseSigma float64
	// SlotSeconds converts device speeds into per-slot displacement.
	SlotSeconds float64
}

// DefaultChannelConfig returns the paper's channel ranges with moderate
// slot-to-slot correlation and hourly slots.
func DefaultChannelConfig() ChannelConfig {
	return ChannelConfig{
		SEMin:       15,
		SEMax:       50,
		ARCoeff:     0.6,
		NoiseSigma:  4,
		SlotSeconds: 3600,
	}
}

// ChannelProcess evolves device positions under a random-waypoint walk and
// produces per-(device, station) spectral efficiencies. For a covered pair
// the efficiency mean-reverts toward a distance-dependent level: devices
// at the cell edge see the low end of the range, devices under the tower
// the high end. Uncovered pairs report zero.
type ChannelProcess struct {
	cfg ChannelConfig
	net *topology.Network
	src *rng.Source

	area      float64
	positions []topology.Point
	waypoints []topology.Point

	// cells lists each device's candidate stations by its grid cell.
	cells cellTable

	// fading holds last slot's AR(1) deviation (bps/Hz) of every covered
	// pair, device by device in ascending station order: device i's pairs
	// are fading[fadeOff[i]:fadeOff[i+1]]. Every other pair's deviation
	// is zero. spare and spareOff are the buffers Next builds the new
	// slot's memory in before swapping.
	fading, spare     []fade
	fadeOff, spareOff []int

	// links and rowEnd are the scratch Next builds a slot's rows in:
	// device i's links end at links[rowEnd[i]].
	links  []Link
	rowEnd []int
}

// fade is one covered pair's AR(1) deviation toward station k.
type fade struct {
	k   int
	dev float64
}

// NewChannelProcess returns a channel process over the network's devices
// and stations. The network must be finalized.
func NewChannelProcess(cfg ChannelConfig, net *topology.Network, src *rng.Source) *ChannelProcess {
	_, _, _, devices := net.Counts()
	area := 0.0
	for _, bs := range net.BaseStations {
		area = math.Max(area, math.Max(bs.Pos.X, bs.Pos.Y))
	}
	for _, d := range net.Devices {
		area = math.Max(area, math.Max(d.Pos.X, d.Pos.Y))
	}
	if area <= 0 {
		area = 1
	}
	p := &ChannelProcess{
		cfg:       cfg,
		net:       net,
		src:       src,
		area:      area,
		positions: make([]topology.Point, devices),
		waypoints: make([]topology.Point, devices),
		cells:     newCellTable(net.BaseStations, area),
		fadeOff:   make([]int, devices+1),
		spareOff:  make([]int, devices+1),
		rowEnd:    make([]int, devices),
	}
	for i := range p.positions {
		p.positions[i] = net.Devices[i].Pos
		p.waypoints[i] = p.randomWaypoint()
	}
	return p
}

func (p *ChannelProcess) randomWaypoint() topology.Point {
	return topology.Point{X: p.src.Uniform(0, p.area), Y: p.src.Uniform(0, p.area)}
}

// step advances every device toward its waypoint by speed × slot length,
// picking a fresh waypoint on arrival.
func (p *ChannelProcess) step() {
	for i := range p.positions {
		speed := p.net.Devices[i].Speed
		if speed <= 0 {
			continue
		}
		move := speed * p.cfg.SlotSeconds
		for move > 0 {
			cur, wp := p.positions[i], p.waypoints[i]
			dist := cur.DistanceTo(wp)
			if dist <= move {
				p.positions[i] = wp
				p.waypoints[i] = p.randomWaypoint()
				move -= dist
				continue
			}
			frac := move / dist
			p.positions[i] = topology.Point{
				X: cur.X + frac*(wp.X-cur.X),
				Y: cur.Y + frac*(wp.Y-cur.Y),
			}
			move = 0
		}
	}
}

// Next advances the mobility model one slot and returns the channel rows:
// device i's row lists its covered stations in ascending order (see
// State.Channels). Candidate stations come from the device's grid cell
// and are visited in ascending order, so the pairs drawn, their draw
// order and their float operations are those of a scan over every
// station. The rows share one backing array sized to the slot's links
// and are sliced at full capacity, so an append to one row reallocates
// instead of writing into the next.
func (p *ChannelProcess) Next() [][]Link {
	p.step()
	span := float64(p.cfg.SEMax - p.cfg.SEMin)
	next := p.spare[:0]
	links := p.links[:0]
	for i, pos := range p.positions {
		prev := p.fading[p.fadeOff[i]:p.fadeOff[i+1]]
		p.spareOff[i] = len(next)
		for _, k32 := range p.cells.candidates(pos) {
			k := int(k32)
			bs := &p.net.BaseStations[k]
			r := bs.CoverageRadius
			// Exact prefilter: Hypot(dx, dy) >= max(|dx|, |dy|) in IEEE
			// arithmetic, so a pair failing it would fail dist > r too.
			dx, dy := bs.Pos.X-pos.X, bs.Pos.Y-pos.Y
			if math.Abs(dx) > r || math.Abs(dy) > r {
				continue
			}
			dist := math.Hypot(dx, dy) // bs.Pos.DistanceTo(pos), bit for bit
			if dist > r {
				continue
			}
			// Distance-dependent level: cell edge → SEMin, tower → SEMax.
			level := float64(p.cfg.SEMax) - span*dist/r
			// AR(1) fading around the level, from zero when the pair was
			// out of coverage last slot.
			for len(prev) > 0 && prev[0].k < k {
				prev = prev[1:]
			}
			dev := 0.0
			if len(prev) > 0 && prev[0].k == k {
				dev = prev[0].dev
			}
			dev = p.cfg.ARCoeff*dev + p.src.Normal(0, p.cfg.NoiseSigma)
			next = append(next, fade{k: k, dev: dev})
			// A clamp to a zero SEMin leaves the pair unusable: it keeps
			// its fading memory but stores no link.
			if se := rng.Clamp(level+dev, float64(p.cfg.SEMin), float64(p.cfg.SEMax)); se > 0 {
				links = append(links, Link{Station: k, SE: units.SpectralEfficiency(se)})
			}
		}
		p.rowEnd[i] = len(links)
	}
	p.spareOff[len(p.positions)] = len(next)
	p.fading, p.spare = next, p.fading
	p.fadeOff, p.spareOff = p.spareOff, p.fadeOff
	p.links = links

	flat := make([]Link, len(links))
	copy(flat, links)
	out := make([][]Link, len(p.positions))
	start := 0
	for i, end := range p.rowEnd {
		out[i] = flat[start:end:end]
		start = end
	}
	return out
}
