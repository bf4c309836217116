package metric

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func est(df float64) LinkEstimate { return LinkEstimate{DeliveryProb: df} }

func TestFigure1METXVsSPP(t *testing.T) {
	// Paper Figure 1: A−C−D has links (1, 1/3); A−B−D has links (0.25, 1).
	// METX scores A−C−D = 6 and A−B−D = 5, so METX picks A−B−D.
	// 1/SPP scores them 3 and 4, so SPP picks A−C−D — the higher-throughput
	// path, because it minimizes expected transmissions at the source.
	me := MustNew(METX)
	sp := MustNew(SPP)

	acd := []float64{1, 1.0 / 3.0}
	abd := []float64{0.25, 1}

	metxACD := PathCost(me, acd)
	metxABD := PathCost(me, abd)
	if !almost(metxACD, 6) || !almost(metxABD, 5) {
		t.Fatalf("METX costs = (%v, %v), want (6, 5)", metxACD, metxABD)
	}
	if !me.Better(metxABD, metxACD) {
		t.Fatal("METX should prefer A-B-D")
	}

	sppACD := PathCost(sp, acd)
	sppABD := PathCost(sp, abd)
	if !almost(1/sppACD, 3) || !almost(1/sppABD, 4) {
		t.Fatalf("1/SPP costs = (%v, %v), want (3, 4)", 1/sppACD, 1/sppABD)
	}
	if !sp.Better(sppACD, sppABD) {
		t.Fatal("SPP should prefer A-C-D")
	}
}

func TestFigure3ETXVsSPP(t *testing.T) {
	// Paper Figure 3: A−B−C−D has three 0.8 links; A−E−D has links
	// (0.9, 0.4). ETX slightly prefers the short path with the terrible
	// 0.4 link; SPP avoids it.
	ex := MustNew(ETX)
	sp := MustNew(SPP)

	long := []float64{1 / 0.8, 1 / 0.8, 1 / 0.8}
	short := []float64{1 / 0.9, 1 / 0.4}
	etxLong := PathCost(ex, long)
	etxShort := PathCost(ex, short)
	if !almost(etxLong, 3.75) {
		t.Fatalf("ETX(A-B-C-D) = %v, want 3.75", etxLong)
	}
	if math.Abs(etxShort-3.61) > 0.01 {
		t.Fatalf("ETX(A-E-D) = %v, want ~3.61", etxShort)
	}
	if !ex.Better(etxShort, etxLong) {
		t.Fatal("ETX should prefer the lossy short path (that is its flaw)")
	}

	sppLong := PathCost(sp, []float64{0.8, 0.8, 0.8})
	sppShort := PathCost(sp, []float64{0.9, 0.4})
	if !almost(sppLong, 0.512) || !almost(sppShort, 0.36) {
		t.Fatalf("SPP = (%v, %v), want (0.512, 0.36)", sppLong, sppShort)
	}
	if !sp.Better(sppLong, sppShort) {
		t.Fatal("SPP should prefer the long clean path")
	}
}

func TestLinkCosts(t *testing.T) {
	tests := []struct {
		name string
		kind Kind
		e    LinkEstimate
		want float64
	}{
		{"minhop", MinHop, est(0.5), 1},
		{"etx perfect", ETX, est(1), 1},
		{"etx half", ETX, est(0.5), 2},
		{"metx is df", METX, est(0.7), 0.7},
		{"spp is df", SPP, est(0.7), 0.7},
		{"pp is delay", PP, LinkEstimate{PairDelaySeconds: 0.004}, 0.004},
		{
			"ett",
			ETT,
			LinkEstimate{DeliveryProb: 0.5, BandwidthBps: 2e6, PacketBytes: 500},
			2 * 500 * 8 / 2e6,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MustNew(tt.kind).LinkCost(tt.e); !almost(got, tt.want) {
				t.Fatalf("LinkCost = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDeadLinkCosts(t *testing.T) {
	dead := est(0)
	if c := MustNew(ETX).LinkCost(dead); !math.IsInf(c, 1) {
		t.Fatalf("ETX dead link = %v, want +Inf", c)
	}
	if c := MustNew(ETT).LinkCost(LinkEstimate{}); !math.IsInf(c, 1) {
		t.Fatalf("ETT dead link = %v, want +Inf", c)
	}
	if c := MustNew(PP).LinkCost(LinkEstimate{}); !math.IsInf(c, 1) {
		t.Fatalf("PP unmeasured link = %v, want +Inf", c)
	}
	// A dead link drives METX to infinity and SPP to zero.
	me := MustNew(METX)
	if c := me.Accumulate(me.Initial(), me.LinkCost(dead)); !math.IsInf(c, 1) {
		t.Fatalf("METX across dead link = %v", c)
	}
	sp := MustNew(SPP)
	if c := sp.Accumulate(sp.Initial(), sp.LinkCost(dead)); c != 0 {
		t.Fatalf("SPP across dead link = %v, want 0", c)
	}
}

func TestWorstIsBeatenByAnyRealPath(t *testing.T) {
	for _, k := range All() {
		m := MustNew(k)
		// A modest three-link path with decent quality.
		cost := PathCostFromEstimates(m, []LinkEstimate{
			{DeliveryProb: 0.9, PairDelaySeconds: 0.002, BandwidthBps: 2e6, PacketBytes: 512},
			{DeliveryProb: 0.8, PairDelaySeconds: 0.003, BandwidthBps: 2e6, PacketBytes: 512},
			{DeliveryProb: 0.95, PairDelaySeconds: 0.002, BandwidthBps: 2e6, PacketBytes: 512},
		})
		if !m.Better(cost, m.Worst()) {
			t.Fatalf("%v: real path cost %v does not beat Worst %v", k, cost, m.Worst())
		}
		if m.Better(m.Worst(), cost) {
			t.Fatalf("%v: Worst beats a real path", k)
		}
	}
	// And so does every usable cost of a random path, dead links included.
	if err := quick.Check(func(raw []uint8) bool {
		for _, k := range All() {
			m := MustNew(k)
			c := pathOf(m, raw)
			if m.Usable(c) && (!m.Better(c, m.Worst()) || m.Better(m.Worst(), c)) {
				return false
			}
		}
		return true
	}, seeded()); err != nil {
		t.Fatal(err)
	}
}

// seeded makes a property test's inputs the same on every run.
func seeded() *quick.Config { return &quick.Config{Rand: rand.New(rand.NewSource(1))} }

// linkOf maps a random byte to a link estimate: delivery probability 0 at
// r = 0 (a dead link), else in (0.05, 1], with pair delay and bandwidth
// worsening as it falls.
func linkOf(r uint8) LinkEstimate {
	if r == 0 {
		return LinkEstimate{PacketBytes: 512}
	}
	df := 0.05 + 0.95*float64(r)/255
	return LinkEstimate{
		DeliveryProb: df, PairDelaySeconds: 0.001 + 0.01*(1-df),
		BandwidthBps: 2e6 * df, PacketBytes: 512,
	}
}

// pathOf is the cost under m of the path whose links linkOf draws from raw.
func pathOf(m PathMetric, raw []uint8) float64 {
	c := m.Initial()
	for _, r := range raw {
		c = m.Accumulate(c, m.LinkCost(linkOf(r)))
	}
	return c
}

// TestBetterIsStrictWeakOrder: on the costs of random paths and Worst,
// Better is irreflexive, asymmetric and transitive, and incomparability is
// transitive — the order a label-setting search and the protocol's
// best-copy choice need.
func TestBetterIsStrictWeakOrder(t *testing.T) {
	if err := quick.Check(func(x, y, z []uint8) bool {
		for _, k := range All() {
			m := MustNew(k)
			costs := []float64{pathOf(m, x), pathOf(m, y), pathOf(m, z), m.Worst()}
			better := m.Better
			incomparable := func(a, b float64) bool { return !better(a, b) && !better(b, a) }
			for _, a := range costs {
				if better(a, a) {
					return false
				}
				for _, b := range costs {
					if better(a, b) && better(b, a) {
						return false
					}
					for _, c := range costs {
						if better(a, b) && better(b, c) && !better(a, c) {
							return false
						}
						if incomparable(a, b) && incomparable(b, c) && !incomparable(a, c) {
							return false
						}
					}
				}
			}
		}
		return true
	}, seeded()); err != nil {
		t.Fatal(err)
	}
}

func TestMinHopCountsHops(t *testing.T) {
	m := MustNew(MinHop)
	cost := PathCostFromEstimates(m, make([]LinkEstimate, 5))
	if cost != 5 {
		t.Fatalf("MinHop 5-link path = %v, want 5", cost)
	}
	if !m.Better(3, 4) || m.Better(4, 3) || m.Better(3, 3) {
		t.Fatal("MinHop ordering wrong")
	}
}

func TestMETXAtLeastETXPlusHopsMinusOne(t *testing.T) {
	// METX counts retransmissions needed upstream of losses, so it always
	// dominates per-path ETX on the same links.
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		me, ex := MustNew(METX), MustNew(ETX)
		var metxC, etxC float64 = me.Initial(), ex.Initial()
		for _, r := range raw {
			df := 0.05 + 0.95*float64(r)/255 // df in [0.05, 1]
			metxC = me.Accumulate(metxC, df)
			etxC = ex.Accumulate(etxC, 1/df)
		}
		return metxC >= etxC-1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSPPIsOrderIndependentMETXIsNot(t *testing.T) {
	sp, me := MustNew(SPP), MustNew(METX)
	ab := []float64{0.5, 0.9}
	ba := []float64{0.9, 0.5}
	if !almost(PathCost(sp, ab), PathCost(sp, ba)) {
		t.Fatal("SPP should be order independent (product)")
	}
	if almost(PathCost(me, ab), PathCost(me, ba)) {
		t.Fatal("METX should depend on link order: losses late in the path waste more upstream transmissions")
	}
	// A lossy link late in the path wastes every upstream transmission, so
	// it must cost more than the same lossy link early in the path.
	lossyEarly := PathCost(me, ab) // 0.5 first
	lossyLate := PathCost(me, ba)  // 0.5 last
	if lossyLate <= lossyEarly {
		t.Fatalf("METX: lossy-late = %v should exceed lossy-early = %v", lossyLate, lossyEarly)
	}
}

func TestSPPBoundedZeroOne(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		sp := MustNew(SPP)
		c := sp.Initial()
		for _, r := range raw {
			c = sp.Accumulate(c, float64(r)/255)
			if c < 0 || c > 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMonotonicity(t *testing.T) {
	// Adding a link never improves a path (monotone), and extending two
	// paths by the same link keeps their order (isotone), for every metric.
	if err := quick.Check(func(raw, other []uint8, extra uint8) bool {
		raw, other = raw[:min(len(raw), 8)], other[:min(len(other), 8)]
		for _, k := range All() {
			m := MustNew(k)
			c, d := pathOf(m, raw), pathOf(m, other)
			l := m.LinkCost(linkOf(extra))
			c2, d2 := m.Accumulate(c, l), m.Accumulate(d, l)
			if m.Better(c2, c) || m.Better(d2, d) {
				return false
			}
			if !m.Better(d, c) && m.Better(d2, c2) || !m.Better(c, d) && m.Better(c2, d2) {
				return false
			}
		}
		return true
	}, seeded()); err != nil {
		t.Fatal(err)
	}
}

func TestKindStringsAndParse(t *testing.T) {
	for _, k := range All() {
		parsed, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if parsed != k {
			t.Fatalf("round trip %v -> %q -> %v", k, k.String(), parsed)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind should fail for unknown name")
	}
	if got := Kind(99).String(); got != "metric(99)" {
		t.Fatalf("unknown kind string = %q", got)
	}
}

func TestNewUnknownKind(t *testing.T) {
	if _, err := New(Kind(0)); err == nil {
		t.Fatal("New(0) should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0) should panic")
		}
	}()
	MustNew(Kind(0))
}

func TestAllContainsEveryMetricOnce(t *testing.T) {
	seen := map[Kind]bool{}
	for _, k := range All() {
		if seen[k] {
			t.Fatalf("duplicate kind %v", k)
		}
		seen[k] = true
	}
	if len(seen) != 6 {
		t.Fatalf("All() has %d kinds, want 6", len(seen))
	}
	for _, k := range LinkQuality() {
		if k == MinHop {
			t.Fatal("LinkQuality() must not contain MinHop")
		}
		if !seen[k] {
			t.Fatalf("LinkQuality() kind %v missing from All()", k)
		}
	}
	if len(LinkQuality()) != 5 {
		t.Fatalf("LinkQuality() has %d kinds, want 5", len(LinkQuality()))
	}
}
