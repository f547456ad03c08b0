package trace

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"eotora/internal/rng"
	"eotora/internal/topology"
)

// stateHasher folds every field of a State into an FNV-64a digest: float
// fields by their IEEE bits, slices with their lengths and a nil marker,
// so a reordered draw, a changed rounding or a nil/empty swap all show.
// Channel rows are hashed as dense rows of stations entries read through
// State.Channel (0 off coverage), the byte sequence the digests were
// pinned on.
type stateHasher struct {
	h        hash.Hash64
	buf      [8]byte
	stations int
}

func (s *stateHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(s.buf[:], v)
	s.h.Write(s.buf[:])
}

func (s *stateHasher) f64(v float64) { s.u64(math.Float64bits(v)) }

// length writes a slice header: ^0 for nil, the length otherwise.
func (s *stateHasher) length(isNil bool, n int) {
	if isNil {
		s.u64(^uint64(0))
		return
	}
	s.u64(uint64(n))
}

func hashFloats[T ~float64](s *stateHasher, v []T) {
	s.length(v == nil, len(v))
	for _, x := range v {
		s.f64(float64(x))
	}
}

func (s *stateHasher) bools(v []bool) {
	s.length(v == nil, len(v))
	for _, b := range v {
		if b {
			s.u64(1)
		} else {
			s.u64(0)
		}
	}
}

func (s *stateHasher) state(st *State) {
	s.u64(uint64(st.Slot))
	hashFloats(s, st.TaskSizes)
	hashFloats(s, st.DataLengths)
	s.length(st.Channels == nil, len(st.Channels))
	for i := range st.Channels {
		s.length(false, s.stations)
		for k := 0; k < s.stations; k++ {
			s.f64(float64(st.Channel(i, k)))
		}
	}
	hashFloats(s, st.FronthaulSE)
	s.f64(float64(st.Price))
	s.bools(st.ServerDown)
	hashFloats(s, st.CapScale)
	s.bools(st.DeviceActive)
	s.bools(st.ServerActive)
	s.length(st.Churn == nil, len(st.Churn))
	for _, ev := range st.Churn {
		s.u64(uint64(ev.Kind))
		s.u64(uint64(int64(ev.Device)))
		s.u64(uint64(int64(ev.Server)))
		s.u64(uint64(int64(ev.Station)))
	}
}

// TestStateSourceGolden pins the state source bit for bit: 50 slots at
// seed 1 of the default deployment, of a half-active churned metro
// universe, and of a flash-crowd run with fronthaul jitter, each hashed
// over every State field. The digests were taken from the dense-fading
// channel process that computed every device–station distance, so they
// also pin the coverage prefilter and the sparse fading memory to its
// draw order and float operations.
func TestStateSourceGolden(t *testing.T) {
	legs := []struct {
		name  string
		spec  topology.Spec
		cfg   func() GeneratorConfig
		churn bool
		want  uint64
	}{
		{"default-300", topology.DefaultSpec(300), DefaultGeneratorConfig, false, 0x6a8963e3d2860c21},
		{"metro-2000-churn", topology.MetroSpec(2000), DefaultGeneratorConfig, true, 0x1dec3ab78e89e391},
		{"flash-jitter-300", topology.DefaultSpec(300), func() GeneratorConfig {
			cfg := DefaultGeneratorConfig()
			cfg.FlashCrowd = FlashCrowdConfig{Enabled: true, OnProb: 0.2, OffProb: 0.25, Scale: 3}
			cfg.FronthaulJitterSigma = 0.1
			return cfg
		}, false, 0x8fe36ee6c067c0cb},
	}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			net, err := topology.Generate(leg.spec, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			gen, err := NewGenerator(net, leg.cfg(), 1)
			if err != nil {
				t.Fatal(err)
			}
			var src Source = gen
			if leg.churn {
				cc := DefaultChurnConfig(1)
				cc.InitialActiveFraction = 0.5
				if src, err = NewChurnSchedule(cc, net, gen); err != nil {
					t.Fatal(err)
				}
			}
			s := stateHasher{h: fnv.New64a(), stations: len(net.BaseStations)}
			flashes := 0
			for slot := 0; slot < 50; slot++ {
				s.state(src.Next())
				if gen.InFlash {
					flashes++
				}
			}
			if leg.cfg().FlashCrowd.Enabled && flashes == 0 {
				t.Fatal("test premise broken: no flash slot in 50")
			}
			if got := s.h.Sum64(); got != leg.want {
				t.Errorf("state digest %#016x, want %#016x", got, leg.want)
			}
		})
	}
}
