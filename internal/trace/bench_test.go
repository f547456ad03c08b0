package trace

import (
	"testing"

	"eotora/internal/rng"
	"eotora/internal/topology"
)

func BenchmarkGeneratorNext(b *testing.B) {
	net, err := topology.Generate(topology.DefaultSpec(100), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(net, DefaultGeneratorConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

func BenchmarkPriceProcess(b *testing.B) {
	p := NewPriceProcess(DefaultPriceConfig(), rng.New(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Next()
	}
}

func BenchmarkChannelProcess(b *testing.B) {
	net, err := topology.Generate(topology.DefaultSpec(100), rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	ch := NewChannelProcess(DefaultChannelConfig(), net, rng.New(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch.Next()
	}
}

// metroGenerator builds the metro-scale state source the sharded slot
// solver runs on: MetroSpec(20000), 49 stations, about two covering each
// device.
func metroGenerator(b *testing.B) (*topology.Network, *Generator) {
	b.Helper()
	net, err := topology.Generate(topology.MetroSpec(20000), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	gen, err := NewGenerator(net, DefaultGeneratorConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	return net, gen
}

func BenchmarkGeneratorNextMetro(b *testing.B) {
	_, gen := metroGenerator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Next()
	}
}

func BenchmarkChurnScheduleNextMetro(b *testing.B) {
	net, gen := metroGenerator(b)
	cfg := DefaultChurnConfig(1)
	cfg.InitialActiveFraction = 0.5
	sched, err := NewChurnSchedule(cfg, net, gen)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.Next()
	}
}
