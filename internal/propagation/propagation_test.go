package propagation

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"meshcast/internal/sim"
)

func TestTwoRayRangeIs250m(t *testing.T) {
	m := NewTwoRay()
	// At exactly 250 m the mean received power should sit at the receive
	// threshold — this is the calibration the default constants encode.
	p := m.ReceivedPower(DefaultTxPowerW, 250)
	if math.Abs(p-DefaultRxThresholdW)/DefaultRxThresholdW > 0.01 {
		t.Fatalf("power at 250m = %.3e, want ~%.3e", p, DefaultRxThresholdW)
	}
	if m.ReceivedPower(DefaultTxPowerW, 251) >= DefaultRxThresholdW {
		t.Fatal("power at 251m should be below the receive threshold")
	}
	if m.ReceivedPower(DefaultTxPowerW, 249) <= DefaultRxThresholdW {
		t.Fatal("power at 249m should be above the receive threshold")
	}
}

func TestTwoRayCarrierSenseRange(t *testing.T) {
	m := NewTwoRay()
	if m.ReceivedPower(DefaultTxPowerW, 540) < DefaultCSThresholdW {
		t.Fatal("power at 540m should be above the carrier-sense threshold")
	}
	if m.ReceivedPower(DefaultTxPowerW, 560) > DefaultCSThresholdW {
		t.Fatal("power at 560m should be below the carrier-sense threshold")
	}
}

func TestTwoRayContinuousAtCrossover(t *testing.T) {
	m := NewTwoRay()
	dc := m.crossover
	below := m.ReceivedPower(DefaultTxPowerW, dc*0.999)
	above := m.ReceivedPower(DefaultTxPowerW, dc*1.001)
	if math.Abs(below-above)/below > 0.02 {
		t.Fatalf("discontinuity at crossover: below=%.3e above=%.3e", below, above)
	}
}

func TestTwoRayFourthPowerDecay(t *testing.T) {
	m := NewTwoRay()
	p200 := m.ReceivedPower(DefaultTxPowerW, 200)
	p400 := m.ReceivedPower(DefaultTxPowerW, 400)
	ratio := p200 / p400
	if math.Abs(ratio-16) > 0.01 {
		t.Fatalf("doubling distance changed power by %vx, want 16x (d^-4)", ratio)
	}
}

func TestFriisSquareDecay(t *testing.T) {
	f := NewFriis(DefaultFrequencyHz)
	p10 := f.ReceivedPower(DefaultTxPowerW, 10)
	p20 := f.ReceivedPower(DefaultTxPowerW, 20)
	ratio := p10 / p20
	if math.Abs(ratio-4) > 0.01 {
		t.Fatalf("doubling distance changed power by %vx, want 4x (d^-2)", ratio)
	}
}

func TestPathLossMonotone(t *testing.T) {
	m := NewTwoRay()
	if err := quick.Check(func(a, b uint16) bool {
		d1 := 1 + float64(a%2000)
		d2 := d1 + 1 + float64(b%500)
		return m.ReceivedPower(DefaultTxPowerW, d1) >= m.ReceivedPower(DefaultTxPowerW, d2)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoFadingIdentity(t *testing.T) {
	rng := sim.NewRNG(1)
	if got := (NoFading{}).Apply(42, rng); got != 42 {
		t.Fatalf("NoFading.Apply = %v, want 42", got)
	}
}

func TestRayleighMeanPreserved(t *testing.T) {
	rng := sim.NewRNG(1)
	var f Rayleigh
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := f.Apply(2.0, rng)
		if v < 0 {
			t.Fatalf("faded power %v < 0", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Fatalf("Rayleigh mean power = %v, want ~2.0", mean)
	}
}

func TestRayleighReceptionProbabilityMatchesEmpirical(t *testing.T) {
	m := NewTwoRay()
	rng := sim.NewRNG(7)
	var f Rayleigh
	for _, d := range []float64{100, 150, 200, 250} {
		mean := m.ReceivedPower(DefaultTxPowerW, d)
		want := ReceptionProbability(mean, DefaultRxThresholdW)
		received := 0
		const n = 50000
		for i := 0; i < n; i++ {
			if f.Apply(mean, rng) >= DefaultRxThresholdW {
				received++
			}
		}
		got := float64(received) / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("d=%vm: empirical reception %v, analytical %v", d, got, want)
		}
	}
}

func TestReceptionProbabilityDecreasesWithDistance(t *testing.T) {
	// The core mechanism behind the paper's result: under Rayleigh fading
	// longer links are lossier. 125 m links should be near-perfect, 250 m
	// links should lose well over half their packets... actually exp(-1)≈0.37
	// delivery at exactly nominal range.
	m := NewTwoRay()
	prev := 1.1
	for _, d := range []float64{50, 100, 150, 200, 250, 300} {
		p := ReceptionProbability(m.ReceivedPower(DefaultTxPowerW, d), DefaultRxThresholdW)
		if p >= prev {
			t.Fatalf("reception probability not decreasing at d=%v: %v >= %v", d, p, prev)
		}
		prev = p
	}
	short := ReceptionProbability(m.ReceivedPower(DefaultTxPowerW, 125), DefaultRxThresholdW)
	long := ReceptionProbability(m.ReceivedPower(DefaultTxPowerW, 245), DefaultRxThresholdW)
	if short < 0.9 {
		t.Fatalf("125m link delivery = %v, want > 0.9", short)
	}
	if long > 0.5 {
		t.Fatalf("245m link delivery = %v, want < 0.5", long)
	}
}

func TestReceptionProbabilityEdgeCases(t *testing.T) {
	if p := ReceptionProbability(0, 1e-10); p != 0 {
		t.Fatalf("zero mean power should give 0 probability, got %v", p)
	}
	if p := ReceptionProbability(-1, 1e-10); p != 0 {
		t.Fatalf("negative mean power should give 0 probability, got %v", p)
	}
	if p := ReceptionProbability(1, 1e-10); p < 0.999 {
		t.Fatalf("overwhelming power should give ~1 probability, got %v", p)
	}
}

func TestLogNormalMedianIsMean(t *testing.T) {
	rng := sim.NewRNG(9)
	f := LogNormal{SigmaDB: 8}
	const n = 100001
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		samples = append(samples, f.Apply(2.0, rng))
	}
	sort.Float64s(samples)
	median := samples[n/2]
	if math.Abs(median-2.0)/2.0 > 0.05 {
		t.Fatalf("log-normal median = %v, want ~2.0", median)
	}
	// Spread check: the 90th percentile should sit roughly sigma*1.28 dB up.
	p90 := samples[n*9/10]
	wantP90 := 2.0 * math.Pow(10, 8*1.2816/10)
	if math.Abs(p90-wantP90)/wantP90 > 0.1 {
		t.Fatalf("p90 = %v, want ~%v", p90, wantP90)
	}
}

func TestCompositeAppliesAll(t *testing.T) {
	rng := sim.NewRNG(3)
	c := Composite{NoFading{}, Rayleigh{}}
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += c.Apply(3.0, rng)
	}
	if mean := sum / n; math.Abs(mean-3.0) > 0.1 {
		t.Fatalf("composite mean = %v, want ~3.0 (Rayleigh preserves the mean)", mean)
	}
	if got := (Composite{}).Apply(7, rng); got != 7 {
		t.Fatalf("empty composite = %v", got)
	}
}

func TestDelay(t *testing.T) {
	if got := Delay(SpeedOfLight); got != time.Second {
		t.Fatalf("Delay(c) = %v, want 1s", got)
	}
	// The PHY schedules arrivals with this helper; it must match the
	// direct expression bit-for-bit (the link cache's determinism contract
	// includes event timestamps).
	for _, d := range []float64{0, 1, 37.5, 250, 550, 1414.21} {
		want := time.Duration(d / SpeedOfLight * float64(time.Second))
		if got := Delay(d); got != want {
			t.Fatalf("Delay(%v) = %v, want %v", d, got, want)
		}
	}
}
