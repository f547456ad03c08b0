package trace

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"eotora/internal/rng"
	"eotora/internal/stats"
	"eotora/internal/topology"
	"eotora/internal/units"
)

func TestDiurnalShape(t *testing.T) {
	// The shape must be in [0, 1] everywhere and peak in the evening.
	for h := 0.0; h < 24; h += 0.25 {
		v := diurnal(h)
		if v < 0 || v > 1 {
			t.Fatalf("diurnal(%v) = %v outside [0,1]", h, v)
		}
	}
	if diurnal(20) <= diurnal(3) {
		t.Error("evening peak not higher than night trough")
	}
	if diurnal(9) <= diurnal(3) {
		t.Error("morning shoulder not higher than night trough")
	}
	if diurnal(20) <= diurnal(14) {
		t.Error("evening peak not higher than afternoon")
	}
}

func TestBumpProperties(t *testing.T) {
	if bump(9, 9, 4) != 1 {
		t.Error("bump not 1 at center")
	}
	if bump(13, 9, 4) != 0 {
		t.Error("bump not 0 at half-width")
	}
	if bump(20, 9, 4) != 0 {
		t.Error("bump not 0 far away")
	}
	// Wrapping: hour 23 is distance 2 from hour 1.
	if math.Abs(bump(23, 1, 4)-bump(3, 1, 4)) > 1e-12 {
		t.Error("bump does not wrap on the 24h circle")
	}
}

func TestPriceProcessScaleAndPeriodicity(t *testing.T) {
	p := NewPriceProcess(DefaultPriceConfig(), rng.New(1))
	const days = 30
	prices := make([]float64, 0, days*24)
	for i := 0; i < days*24; i++ {
		prices = append(prices, p.Next().PerMWh())
	}
	mean := stats.Mean(prices)
	if mean < 15 || mean > 120 {
		t.Errorf("mean price $%v/MWh outside NYISO-like range", mean)
	}
	if stats.Min(prices) < 1 {
		t.Errorf("price floor violated: %v", stats.Min(prices))
	}
	// Peak-hour average must exceed trough-hour average (diurnal trend).
	var peak, trough []float64
	for i, v := range prices {
		switch i % 24 {
		case 20:
			peak = append(peak, v)
		case 3:
			trough = append(trough, v)
		}
	}
	if stats.Mean(peak) <= stats.Mean(trough) {
		t.Errorf("no diurnal pattern: peak %v ≤ trough %v", stats.Mean(peak), stats.Mean(trough))
	}
}

func TestPriceTrendPeriodic(t *testing.T) {
	p := NewPriceProcess(DefaultPriceConfig(), rng.New(2))
	for slot := 0; slot < 24; slot++ {
		if p.Trend(slot) != p.Trend(slot+24) {
			t.Fatalf("trend not periodic at slot %d", slot)
		}
	}
}

func TestPriceProcessDeterminism(t *testing.T) {
	a := NewPriceProcess(DefaultPriceConfig(), rng.New(5))
	b := NewPriceProcess(DefaultPriceConfig(), rng.New(5))
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("same-seed price processes diverged at slot %d", i)
		}
	}
}

func TestPriceConfigZeroPeriodDefaultsToOne(t *testing.T) {
	cfg := DefaultPriceConfig()
	cfg.Period = 0
	p := NewPriceProcess(cfg, rng.New(1))
	if p.cfg.Period != 1 {
		t.Errorf("period = %d, want 1", p.cfg.Period)
	}
}

func TestDemandProcessRanges(t *testing.T) {
	cfg := DefaultDemandConfig()
	d := NewDemandProcess(cfg, 50, rng.New(3))
	for slot := 0; slot < 200; slot++ {
		tasks, data := d.Next()
		if len(tasks) != 50 || len(data) != 50 {
			t.Fatalf("wrong lengths %d/%d", len(tasks), len(data))
		}
		for i := range tasks {
			if tasks[i] < cfg.TaskMin || tasks[i] > cfg.TaskMax {
				t.Fatalf("task size %v outside [%v, %v]", tasks[i], cfg.TaskMin, cfg.TaskMax)
			}
			if data[i] < cfg.DataMin || data[i] > cfg.DataMax {
				t.Fatalf("data length %v outside [%v, %v]", data[i], cfg.DataMin, cfg.DataMax)
			}
		}
	}
}

func TestDemandDiurnalTrend(t *testing.T) {
	cfg := DefaultDemandConfig()
	cfg.TrendWeight = 1 // pure trend to expose periodicity
	d := NewDemandProcess(cfg, 20, rng.New(4))
	var peakSum, troughSum float64
	const days = 10
	for slot := 0; slot < days*24; slot++ {
		tasks, _ := d.Next()
		var mean float64
		for _, f := range tasks {
			mean += float64(f)
		}
		mean /= float64(len(tasks))
		switch slot % 24 {
		case 20:
			peakSum += mean
		case 3:
			troughSum += mean
		}
	}
	if peakSum <= troughSum {
		t.Errorf("no diurnal demand trend: peak %v ≤ trough %v", peakSum/days, troughSum/days)
	}
}

func TestDemandIIDWhenTrendWeightZero(t *testing.T) {
	cfg := DefaultDemandConfig()
	cfg.TrendWeight = 0
	d := NewDemandProcess(cfg, 30, rng.New(5))
	// Hour-of-day means should be statistically indistinguishable; use a
	// loose bound on the ratio of hourly means.
	hourMeans := make([]float64, 24)
	hourCounts := make([]int, 24)
	for slot := 0; slot < 24*60; slot++ {
		tasks, _ := d.Next()
		for _, f := range tasks {
			hourMeans[slot%24] += float64(f)
			hourCounts[slot%24]++
		}
	}
	for h := range hourMeans {
		hourMeans[h] /= float64(hourCounts[h])
	}
	ratio := stats.Max(hourMeans) / stats.Min(hourMeans)
	if ratio > 1.05 {
		t.Errorf("iid demand shows hourly structure: max/min hourly mean = %v", ratio)
	}
}

func testNetwork(t *testing.T, devices int) *topology.Network {
	t.Helper()
	net, err := topology.Generate(topology.DefaultSpec(devices), rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestChannelProcessCoverageAndRange(t *testing.T) {
	net := testNetwork(t, 30)
	cfg := DefaultChannelConfig()
	p := NewChannelProcess(cfg, net, rng.New(6))
	for slot := 0; slot < 50; slot++ {
		h := p.Next()
		if len(h) != 30 {
			t.Fatalf("matrix has %d rows", len(h))
		}
		for i := range h {
			for _, l := range h[i] {
				if se := float64(l.SE); se < float64(cfg.SEMin) || se > float64(cfg.SEMax) {
					t.Fatalf("h[%d][%d] = %v outside [%v, %v]", i, l.Station, se, cfg.SEMin, cfg.SEMax)
				}
			}
			if len(h[i]) == 0 {
				t.Fatalf("device %d uncovered at slot %d despite umbrella stations", i, slot)
			}
		}
	}
}

// TestChannelRowsFullCapacity: the channel rows share one
// backing array, so each must be sliced at full capacity — an append to
// one row has to reallocate rather than write into the next.
func TestChannelRowsFullCapacity(t *testing.T) {
	net := testNetwork(t, 12)
	p := NewChannelProcess(DefaultChannelConfig(), net, rng.New(9))
	h := p.Next()
	for i, row := range h {
		if cap(row) != len(row) {
			t.Fatalf("row %d: cap %d != len %d", i, cap(row), len(row))
		}
	}
	for i := 0; i+1 < len(h); i++ {
		next := slices.Clone(h[i+1])
		h[i] = append(h[i], Link{Station: 99, SE: 99})
		if !slices.Equal(h[i+1], next) {
			t.Fatalf("append to row %d wrote into row %d: %v, was %v", i, i+1, h[i+1], next)
		}
	}
}

func TestChannelDistanceDependence(t *testing.T) {
	// A device under the tower must out-average a device at the cell edge.
	net := &topology.Network{
		BaseStations: []topology.BaseStation{{
			ID: 0, Band: topology.LowBand, Pos: topology.Point{X: 0, Y: 0},
			CoverageRadius: 1000, AccessBandwidth: 50 * units.MHz,
			FronthaulBandwidth: 500 * units.MHz, FronthaulSE: 10,
			Fronthaul: topology.WiredFiber, Rooms: []int{0},
		}},
		Rooms:   []topology.Room{{ID: 0}},
		Servers: []topology.Server{{ID: 0, Room: 0, Cores: 64, MinFreq: units.GHz, MaxFreq: 2 * units.GHz}},
		Devices: []topology.Device{
			{ID: 0, Pos: topology.Point{X: 10, Y: 0}, Speed: 0},
			{ID: 1, Pos: topology.Point{X: 990, Y: 0}, Speed: 0},
		},
		Suitability: [][]float64{{1}, {1}},
	}
	if err := net.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := NewChannelProcess(DefaultChannelConfig(), net, rng.New(7))
	var nearSum, farSum float64
	const slots = 400
	for s := 0; s < slots; s++ {
		h := p.Next()
		nearSum += float64(h[0][0].SE)
		farSum += float64(h[1][0].SE)
	}
	if nearSum <= farSum {
		t.Errorf("near device mean SE %v ≤ far device %v", nearSum/slots, farSum/slots)
	}
}

func TestChannelMobilityMovesDevices(t *testing.T) {
	net := testNetwork(t, 10)
	p := NewChannelProcess(DefaultChannelConfig(), net, rng.New(8))
	before := slices.Clone(p.positions)
	for s := 0; s < 5; s++ {
		p.Next()
	}
	after := p.positions
	moved := 0
	for i := range before {
		if before[i].DistanceTo(after[i]) > 1 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no device moved after five slots")
	}
}

func TestGeneratorFullState(t *testing.T) {
	net := testNetwork(t, 25)
	g, err := NewGenerator(net, DefaultGeneratorConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if g.Period() != 24 {
		t.Errorf("Period = %d, want 24", g.Period())
	}
	for slot := 1; slot <= 48; slot++ {
		st := g.Next()
		if st.Slot != slot {
			t.Fatalf("slot = %d, want %d", st.Slot, slot)
		}
		if len(st.TaskSizes) != 25 || len(st.DataLengths) != 25 || len(st.Channels) != 25 {
			t.Fatal("state dimension mismatch")
		}
		if len(st.FronthaulSE) != 6 {
			t.Fatalf("fronthaul entries = %d, want 6", len(st.FronthaulSE))
		}
		for k, se := range st.FronthaulSE {
			if se != 10 {
				t.Fatalf("static fronthaul SE[%d] = %v, want 10", k, se)
			}
		}
		if st.Price <= 0 {
			t.Fatal("non-positive price")
		}
		// Rows are strictly ascending with positive links, and the
		// accessors read them.
		for i, row := range st.Channels {
			for j, l := range row {
				if l.SE <= 0 || (j > 0 && l.Station <= row[j-1].Station) {
					t.Fatalf("device %d row %v malformed", i, row)
				}
			}
			for k := 0; k < 6; k++ {
				var want units.SpectralEfficiency
				for _, l := range row {
					if l.Station == k {
						want = l.SE
					}
				}
				if st.Channel(i, k) != want || st.Covered(i, k) != (want > 0) {
					t.Fatalf("Channel(%d, %d) = %v, row %v", i, k, st.Channel(i, k), row)
				}
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	net := testNetwork(t, 15)
	g1, err := NewGenerator(net, DefaultGeneratorConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	// Positions are mutated by the channel process, so build a second
	// identical network for the second generator.
	net2 := testNetwork(t, 15)
	g2, err := NewGenerator(net2, DefaultGeneratorConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 20; s++ {
		a, b := g1.Next(), g2.Next()
		if a.Price != b.Price {
			t.Fatalf("prices diverged at slot %d", s)
		}
		for i := range a.TaskSizes {
			if a.TaskSizes[i] != b.TaskSizes[i] {
				t.Fatalf("task sizes diverged at slot %d device %d", s, i)
			}
		}
		if !reflect.DeepEqual(a.Channels, b.Channels) {
			t.Fatalf("channels diverged at slot %d", s)
		}
	}
}

func TestGeneratorIIDMode(t *testing.T) {
	net := testNetwork(t, 10)
	cfg := DefaultGeneratorConfig()
	cfg.IID = true
	g, err := NewGenerator(net, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if g.Period() != 1 {
		t.Errorf("iid Period = %d, want 1", g.Period())
	}
}

func TestGeneratorFronthaulJitter(t *testing.T) {
	net := testNetwork(t, 10)
	cfg := DefaultGeneratorConfig()
	cfg.FronthaulJitterSigma = 0.2
	g, err := NewGenerator(net, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	prev := g.Next().FronthaulSE[0]
	for s := 0; s < 10; s++ {
		cur := g.Next().FronthaulSE[0]
		if cur != prev {
			varied = true
		}
		if cur <= 0 {
			t.Fatal("jittered fronthaul SE non-positive")
		}
		prev = cur
	}
	if !varied {
		t.Error("fronthaul SE never varied under jitter")
	}
}

func TestReplayCycles(t *testing.T) {
	net := testNetwork(t, 5)
	g, err := NewGenerator(net, DefaultGeneratorConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	states := Record(g, 4)
	r, err := NewReplay(states, 24)
	if err != nil {
		t.Fatal(err)
	}
	if r.Period() != 24 {
		t.Errorf("Period = %d, want 24", r.Period())
	}
	for i := 0; i < 10; i++ {
		if got := r.Next(); got != states[i%4] {
			t.Fatalf("replay index %d returned wrong state", i)
		}
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := NewReplay(nil, 24); err == nil {
		t.Error("empty replay accepted")
	}
	r, err := NewReplay([]*State{{Slot: 1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Period() != 1 {
		t.Errorf("zero period should default to 1, got %d", r.Period())
	}
}

func TestNewGeneratorRejectsEmptyNetwork(t *testing.T) {
	net := &topology.Network{}
	if _, err := NewGenerator(net, DefaultGeneratorConfig(), 1); err == nil {
		t.Error("generator accepted network without devices")
	}
}

func TestWeekendDiscountPrice(t *testing.T) {
	cfg := DefaultPriceConfig()
	cfg.WeekendDiscount = 0.3
	p := NewPriceProcess(cfg, rng.New(50))
	// Weekday noon (day 0) vs weekend noon (day 5).
	weekday := p.Trend(12)
	weekend := p.Trend(5*24 + 12)
	if math.Abs(float64(weekend)-0.7*float64(weekday)) > 1e-9 {
		t.Errorf("weekend trend %v, want 0.7 × weekday %v", weekend, weekday)
	}
	// Weekly periodicity: slot and slot+168 match.
	if p.Trend(30) != p.Trend(30+168) {
		t.Error("trend not weekly periodic")
	}
}

func TestWeekendDiscountDemand(t *testing.T) {
	cfg := DefaultDemandConfig()
	cfg.WeekendDiscount = 0.5
	cfg.TrendWeight = 1
	d := NewDemandProcess(cfg, 3, rng.New(51))
	// Compare the same device at the same hour on a weekday vs weekend.
	weekday := d.TrendFraction(0, 20)
	weekend := d.TrendFraction(0, 5*24+20)
	if math.Abs(weekend-0.5*weekday) > 1e-9 {
		t.Errorf("weekend level %v, want half of weekday %v", weekend, weekday)
	}
}

func TestGeneratorPeriodWithWeekly(t *testing.T) {
	net, err := topology.Generate(topology.DefaultSpec(3), rng.New(52))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultGeneratorConfig()
	cfg.Price.WeekendDiscount = 0.2
	g, err := NewGenerator(net, cfg, 52)
	if err != nil {
		t.Fatal(err)
	}
	if g.Period() != 24*7 {
		t.Errorf("weekly Period = %d, want 168", g.Period())
	}
}

func TestFlashCrowdRegime(t *testing.T) {
	net := testNetwork(t, 10)
	cfg := DefaultGeneratorConfig()
	cfg.FlashCrowd = DefaultFlashCrowdConfig()
	cfg.FlashCrowd.OnProb = 0.2 // frequent for the test
	g, err := NewGenerator(net, cfg, 80)
	if err != nil {
		t.Fatal(err)
	}
	flashSlots, normalSlots := 0, 0
	var flashMean, normalMean float64
	const slots = 400
	for s := 0; s < slots; s++ {
		st := g.Next()
		var total float64
		for _, f := range st.TaskSizes {
			total += f.Count()
		}
		if g.InFlash {
			flashSlots++
			flashMean += total
		} else {
			normalSlots++
			normalMean += total
		}
	}
	if flashSlots == 0 || normalSlots == 0 {
		t.Fatalf("regimes not both visited: %d flash, %d normal", flashSlots, normalSlots)
	}
	flashMean /= float64(flashSlots)
	normalMean /= float64(normalSlots)
	if flashMean < normalMean*1.5 {
		t.Errorf("flash demand %v not clearly above normal %v", flashMean, normalMean)
	}
}

func TestFlashCrowdDisabledByDefault(t *testing.T) {
	net := testNetwork(t, 5)
	g, err := NewGenerator(net, DefaultGeneratorConfig(), 81)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 50; s++ {
		g.Next()
		if g.InFlash {
			t.Fatal("flash regime active without configuration")
		}
	}
}
