package linkquality

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

func TestLossWindowAllReceived(t *testing.T) {
	w := NewLossWindow(10)
	for s := uint32(0); s < 10; s++ {
		w.Observe(s)
	}
	if got := w.DeliveryProb(); got != 1.0 {
		t.Fatalf("DeliveryProb = %v, want 1.0", got)
	}
}

func TestLossWindowHalfLost(t *testing.T) {
	w := NewLossWindow(10)
	for s := uint32(0); s < 10; s += 2 {
		w.Observe(s)
	}
	// Seqs 0..8 even received; last seq 8, window covers seqs [0..8] minus
	// ... the window is the last 10 expected probes: 5 of 10 arrived — but
	// note seq 9 has not been sent yet, so expected range is [max-9, max].
	if got := w.DeliveryProb(); got != 0.5 {
		t.Fatalf("DeliveryProb = %v, want 0.5", got)
	}
}

func TestLossWindowSlidesForward(t *testing.T) {
	w := NewLossWindow(10)
	// Ten early receptions, then a long silence, then one late probe: only
	// the late probe is inside the window.
	for s := uint32(0); s < 10; s++ {
		w.Observe(s)
	}
	w.Observe(100)
	if got := w.DeliveryProb(); got != 0.1 {
		t.Fatalf("DeliveryProb after gap = %v, want 0.1", got)
	}
}

func TestLossWindowRecovers(t *testing.T) {
	w := NewLossWindow(10)
	w.Observe(0) // lone early probe
	for s := uint32(50); s < 60; s++ {
		w.Observe(s)
	}
	if got := w.DeliveryProb(); got != 1.0 {
		t.Fatalf("DeliveryProb after recovery = %v, want 1.0", got)
	}
}

func TestLossWindowEmpty(t *testing.T) {
	w := NewLossWindow(10)
	if got := w.DeliveryProb(); got != 0 {
		t.Fatalf("empty window DeliveryProb = %v, want 0", got)
	}
}

func TestLossWindowBounded(t *testing.T) {
	if err := quick.Check(func(seqs []uint32) bool {
		w := NewLossWindow(10)
		for _, s := range seqs {
			w.Observe(s % 1000)
		}
		p := w.DeliveryProb()
		return p >= 0 && p <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLossWindowDuplicatesDoNotInflate(t *testing.T) {
	w := NewLossWindow(10)
	for i := 0; i < 50; i++ {
		w.Observe(5)
	}
	// A single distinct seq, received many times, is still one probe out of
	// the window... duplicates land in the received list though. Delivery
	// must never exceed 1.
	if got := w.DeliveryProb(); got > 1 {
		t.Fatalf("DeliveryProb = %v > 1 with duplicates", got)
	}
}

func TestPairEstimatorBasicDelayAndBandwidth(t *testing.T) {
	p := NewPairEstimator(10)
	base := time.Second
	p.ObserveSmall(0, base)
	p.ObserveLarge(0, base+4*time.Millisecond, 1000)
	if got := p.DelaySeconds(); math.Abs(got-0.004) > 1e-9 {
		t.Fatalf("DelaySeconds = %v, want 0.004", got)
	}
	// 1000 bytes in 4ms = 2 Mbps.
	if got := p.BandwidthBps(); math.Abs(got-2e6) > 1 {
		t.Fatalf("BandwidthBps = %v, want 2e6", got)
	}
}

func TestPairEstimatorEWMAWeights(t *testing.T) {
	p := NewPairEstimator(10)
	at := time.Second
	send := func(seq uint32, delay time.Duration) {
		p.ObserveSmall(seq, at)
		p.ObserveLarge(seq, at+delay, 1000)
		at += 10 * time.Second
	}
	send(0, 4*time.Millisecond)
	send(1, 8*time.Millisecond)
	// EWMA = 0.9*0.004 + 0.1*0.008 = 0.0044.
	if got := p.DelaySeconds(); math.Abs(got-0.0044) > 1e-9 {
		t.Fatalf("EWMA = %v, want 0.0044", got)
	}
}

func TestPairEstimatorPenaltyOnMissingPair(t *testing.T) {
	p := NewPairEstimator(10)
	at := time.Second
	p.ObserveSmall(0, at)
	p.ObserveLarge(0, at+4*time.Millisecond, 1000)
	// Pairs 1 and 2 vanish entirely; pair 3 arrives.
	at += 30 * time.Second
	p.ObserveSmall(3, at)
	before := 0.004 * 1.2 * 1.2 // two penalties applied on the gap
	if got := p.DelaySeconds(); math.Abs(got-before) > 1e-9 {
		t.Fatalf("after 2 missing pairs DelaySeconds = %v, want %v", got, before)
	}
}

func TestPairEstimatorPenaltyOnLostLarge(t *testing.T) {
	p := NewPairEstimator(10)
	at := time.Second
	p.ObserveSmall(0, at)
	p.ObserveLarge(0, at+4*time.Millisecond, 1000)
	// Pair 1: small arrives, large lost. Detected when pair 2's small shows.
	p.ObserveSmall(1, at+10*time.Second)
	p.ObserveSmall(2, at+20*time.Second)
	want := 0.004 * 1.2
	if got := p.DelaySeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after lost large DelaySeconds = %v, want %v", got, want)
	}
}

func TestPairEstimatorPenaltyOnLostSmall(t *testing.T) {
	p := NewPairEstimator(10)
	at := time.Second
	p.ObserveSmall(0, at)
	p.ObserveLarge(0, at+4*time.Millisecond, 1000)
	// Pair 1: small lost, large arrives alone.
	p.ObserveLarge(1, at+10*time.Second, 1000)
	want := 0.004 * 1.2
	if got := p.DelaySeconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("after lost small DelaySeconds = %v, want %v", got, want)
	}
}

func TestPairEstimatorExponentialBlowupUnderPersistentLoss(t *testing.T) {
	// The paper's key observation about PP (§4.2.1, §5.3): with high loss
	// the penalty is incurred repeatedly on the EWMA and the cost grows
	// exponentially, so one bad link can blow up a path's cost.
	p := NewPairEstimator(10)
	at := time.Second
	p.ObserveSmall(0, at)
	p.ObserveLarge(0, at+4*time.Millisecond, 1000)
	initial := p.DelaySeconds()
	// 40 consecutive pairs lost entirely (~50% loss over 400 s at 10 s
	// intervals would give about this many penalties).
	p.ObserveSmall(41, at+410*time.Second)
	got := p.DelaySeconds()
	want := initial * math.Pow(1.2, 40)
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("after 40 lost pairs = %v, want %v", got, want)
	}
	if got < initial*1000 {
		t.Fatalf("cost did not blow up: %v vs initial %v", got, initial)
	}
}

func TestPairEstimatorSlowRecoveryLongMemory(t *testing.T) {
	// After a lossy episode, PP's 90% history weight keeps the cost high
	// for many good samples — unlike the short ETX window. This is why PP
	// keeps avoiding once-lossy links in the testbed (§5.3).
	p := NewPairEstimator(10)
	at := time.Second
	pair := func(seq uint32, delay time.Duration) {
		p.ObserveSmall(seq, at)
		p.ObserveLarge(seq, at+delay, 1000)
		at += 10 * time.Second
	}
	pair(0, 4*time.Millisecond)
	// Lossy episode: 20 pairs vanish.
	p.ObserveSmall(21, at+200*time.Second)
	at += 210 * time.Second
	p.ObserveLarge(21, at+4*time.Millisecond, 1000) // hmm: complete pair 21
	inflated := p.DelaySeconds()
	// Ten consecutive clean pairs afterwards.
	for seq := uint32(22); seq < 32; seq++ {
		pair(seq, 4*time.Millisecond)
	}
	after := p.DelaySeconds()
	if after >= inflated {
		t.Fatal("clean pairs should reduce the EWMA")
	}
	// 0.9^10 ≈ 0.35 of the inflated value should remain above baseline.
	if after < 0.004*2 {
		t.Fatalf("EWMA recovered too fast: %v (long memory expected)", after)
	}
}

func TestPairEstimatorNoBaselineStaysZero(t *testing.T) {
	p := NewPairEstimator(10)
	// Only losses, never a complete pair: no baseline to penalize.
	p.ObserveSmall(0, time.Second)
	p.ObserveSmall(5, 50*time.Second)
	if got := p.DelaySeconds(); got != 0 {
		t.Fatalf("DelaySeconds = %v, want 0 (unmeasured)", got)
	}
}

func TestTableEstimateUnknownNeighbor(t *testing.T) {
	tab := NewTable(512, 10, time.Minute)
	e := tab.Estimate(7, time.Second)
	if e.DeliveryProb != 0 || e.PairDelaySeconds != 0 {
		t.Fatalf("unknown neighbor estimate = %+v, want zero", e)
	}
	if e.PacketBytes != 512 {
		t.Fatalf("PacketBytes = %d, want 512", e.PacketBytes)
	}
}

func TestTableSingleProbeFlow(t *testing.T) {
	tab := NewTable(512, 10, time.Minute)
	now := time.Second
	for s := uint32(0); s < 10; s++ {
		tab.ObserveProbe(3, s, now)
		now += 5 * time.Second
	}
	e := tab.Estimate(3, now)
	if e.DeliveryProb != 1.0 {
		t.Fatalf("DeliveryProb = %v, want 1.0", e.DeliveryProb)
	}
}

func TestTablePairFlowFeedsETTInputs(t *testing.T) {
	tab := NewTable(512, 10, time.Minute)
	now := time.Second
	for s := uint32(0); s < 10; s++ {
		tab.ObservePairSmall(4, s, now)
		tab.ObservePairLarge(4, s, now+4*time.Millisecond, 1000)
		now += 10 * time.Second
	}
	e := tab.Estimate(4, now)
	if e.DeliveryProb != 1.0 {
		t.Fatalf("pair-mode DeliveryProb = %v, want 1.0", e.DeliveryProb)
	}
	if math.Abs(e.BandwidthBps-2e6) > 1 {
		t.Fatalf("BandwidthBps = %v, want 2e6", e.BandwidthBps)
	}
	if math.Abs(e.PairDelaySeconds-0.004) > 1e-9 {
		t.Fatalf("PairDelaySeconds = %v, want 0.004", e.PairDelaySeconds)
	}
}

func TestTableStaleEntryTreatedDead(t *testing.T) {
	tab := NewTable(512, 10, 30*time.Second)
	tab.ObserveProbe(3, 0, time.Second)
	live := tab.Estimate(3, 2*time.Second)
	if live.DeliveryProb == 0 {
		t.Fatal("fresh entry should have nonzero delivery")
	}
	stale := tab.Estimate(3, 5*time.Minute)
	if stale.DeliveryProb != 0 {
		t.Fatalf("stale entry delivery = %v, want 0", stale.DeliveryProb)
	}
	if ns := tab.Neighbors(5 * time.Minute); len(ns) != 0 {
		t.Fatalf("stale neighbor still listed: %v", ns)
	}
	if ns := tab.Neighbors(2 * time.Second); len(ns) != 1 {
		t.Fatalf("live neighbor missing: %v", ns)
	}
}

func TestConfigForModes(t *testing.T) {
	if got := ConfigFor(metric.MinHop); got.Mode != ModeNone {
		t.Fatalf("minhop mode = %v", got.Mode)
	}
	for _, k := range []metric.Kind{metric.ETX, metric.METX, metric.SPP} {
		cfg := ConfigFor(k)
		if cfg.Mode != ModeSingle || cfg.Interval != DefaultSingleInterval {
			t.Fatalf("%v config = %+v", k, cfg)
		}
	}
	for _, k := range []metric.Kind{metric.PP, metric.ETT} {
		cfg := ConfigFor(k)
		if cfg.Mode != ModePair || cfg.Interval != DefaultPairInterval {
			t.Fatalf("%v config = %+v", k, cfg)
		}
	}
	// A pair's large half outweighs its small one.
	engine := sim.NewEngine(1)
	p := NewProber(engine, 1, ConfigFor(metric.PP))
	var sizes []int
	p.Send = func(pkt *packet.Packet) bool {
		sizes = append(sizes, pkt.PayloadBytes)
		return true
	}
	p.Start()
	engine.Run(DefaultPairInterval + time.Second)
	if len(sizes) != 2 || sizes[1] <= sizes[0] {
		t.Fatalf("pair sizes = %v", sizes)
	}
}

func TestScaleRate(t *testing.T) {
	base := ConfigFor(metric.SPP)
	high := base.ScaleRate(5)
	if high.Interval != base.Interval/5 {
		t.Fatalf("5x interval = %v", high.Interval)
	}
	low := base.ScaleRate(0.1)
	if low.Interval != base.Interval*10 {
		t.Fatalf("0.1x interval = %v", low.Interval)
	}
	if got := base.ScaleRate(0); got.Interval != base.Interval {
		t.Fatal("zero factor should be a no-op")
	}
	none := ConfigFor(metric.MinHop)
	if got := none.ScaleRate(5); got.Mode != ModeNone {
		t.Fatal("scaling a none-config changed its mode")
	}
}
