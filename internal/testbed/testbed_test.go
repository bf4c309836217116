package testbed

import (
	"testing"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

func shortConfig(k metric.Kind, seed uint64) Config {
	cfg := DefaultConfig(k, seed)
	cfg.WarmupSeconds = 60
	cfg.TrafficSeconds = 120
	return cfg
}

func TestTopologyShape(t *testing.T) {
	if len(NodeIDs) != 8 {
		t.Fatalf("testbed has %d nodes, want 8", len(NodeIDs))
	}
	seen := map[packet.NodeID]bool{}
	for _, id := range NodeIDs {
		if seen[id] {
			t.Fatalf("duplicate node %v", id)
		}
		seen[id] = true
		if _, ok := Positions[id]; !ok {
			t.Fatalf("node %v has no position", id)
		}
	}
	lossy := 0
	for _, l := range Links {
		if !seen[l.A] || !seen[l.B] {
			t.Fatalf("link %v-%v references unknown node", l.A, l.B)
		}
		if l.Class == Lossy {
			lossy++
		}
	}
	if lossy != 4 {
		t.Fatalf("lossy links = %d, want 4 (2-5, 4-7, 1-3, 3-9)", lossy)
	}
	// §5.3's specific problem links must be present and lossy.
	want := map[[2]packet.NodeID]bool{
		linkKey(2, 5): true, linkKey(4, 7): true, linkKey(1, 3): true, linkKey(3, 9): true,
	}
	for _, l := range Links {
		if l.Class == Lossy && !want[linkKey(l.A, l.B)] {
			t.Fatalf("unexpected lossy link %v-%v", l.A, l.B)
		}
	}
}

func TestTopologyConnected(t *testing.T) {
	adj := map[packet.NodeID][]packet.NodeID{}
	for _, l := range Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	seen := map[packet.NodeID]bool{NodeIDs[0]: true}
	stack := []packet.NodeID{NodeIDs[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	if len(seen) != len(NodeIDs) {
		t.Fatalf("testbed graph disconnected: reached %d of %d", len(seen), len(NodeIDs))
	}
}

func TestLossProcessStaysInClassBands(t *testing.T) {
	for _, class := range []LinkClass{LowLoss, Lossy} {
		p := newLossProcess(class, sim.NewRNG(7))
		for i := 0; i < 1000; i++ {
			p.step()
			switch class {
			case LowLoss:
				if p.df < 0.94 || p.df > 1.0 {
					t.Fatalf("low-loss df = %v out of band", p.df)
				}
			case Lossy:
				if p.df < 0.40 || p.df > 0.95 {
					t.Fatalf("lossy df = %v out of [0.40, 0.95]", p.df)
				}
			}
		}
	}
}

func TestLossyProcessHasExcursions(t *testing.T) {
	p := newLossProcess(Lossy, sim.NewRNG(9))
	excursions, inBand := 0, 0
	for i := 0; i < 1000; i++ {
		p.step()
		if p.df > 0.6 {
			excursions++
		} else {
			inBand++
		}
	}
	if excursions == 0 {
		t.Fatal("lossy link never excursed to a good state")
	}
	if inBand < excursions {
		t.Fatalf("lossy link spends more time good (%d) than lossy (%d)", excursions, inBand)
	}
}

func TestRunDeliversToAllMembers(t *testing.T) {
	res, err := Run(shortConfig(metric.SPP, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerMember) != 4 {
		t.Fatalf("per-member entries = %d, want 4", len(res.PerMember))
	}
	for _, m := range res.PerMember {
		if m.PDR < 0.3 {
			t.Fatalf("member %v starved: PDR %.3f", m.Member, m.PDR)
		}
	}
	if res.Summary.PDR <= 0.5 || res.Summary.PDR > 1.0001 {
		t.Fatalf("overall PDR = %v", res.Summary.PDR)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(shortConfig(metric.PP, 5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortConfig(metric.PP, 5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Fatalf("same seed differs:\n%+v\n%+v", a.Summary, b.Summary)
	}
}

func TestMetricsBeatOriginalODMRP(t *testing.T) {
	// The testbed's headline: link-quality metrics outperform min-hop
	// ODMRP, which keeps using the lossy one-hop shortcuts. Averaged over
	// a few seeds to damp run noise.
	seeds := []uint64{1, 2, 3}
	mean := func(k metric.Kind) float64 {
		var sum float64
		for _, s := range seeds {
			res, err := Run(shortConfig(k, s))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Summary.PDR
		}
		return sum / float64(len(seeds))
	}
	base := mean(metric.MinHop)
	for _, k := range []metric.Kind{metric.PP, metric.SPP} {
		if got := mean(k); got <= base {
			t.Fatalf("%v PDR %.3f did not beat original ODMRP %.3f", k, got, base)
		}
	}
}

func TestHeavyEdgesAvoidLossyLinksUnderPP(t *testing.T) {
	// Figure 5: ODMRP_PP routes around the lossy shortcuts. The heavy
	// edges of a PP run should be dominated by low-loss links.
	res, err := Run(shortConfig(metric.PP, 2))
	if err != nil {
		t.Fatal(err)
	}
	edges := HeavyEdges(res, 0.3)
	if len(edges) == 0 {
		t.Fatal("no heavy edges found")
	}
	lossyCount := 0
	for _, e := range edges {
		if e.Class == Lossy {
			lossyCount++
		}
	}
	if lossyCount > len(edges)/2 {
		t.Fatalf("PP tree uses %d lossy of %d heavy edges", lossyCount, len(edges))
	}
}

func TestHeavyEdgesEmptyWithoutTraffic(t *testing.T) {
	if got := HeavyEdges(&Result{}, 0.5); got != nil {
		t.Fatalf("HeavyEdges on empty result = %v", got)
	}
}

func TestEdgeUseOnlyOnRealLinks(t *testing.T) {
	res, err := Run(shortConfig(metric.SPP, 4))
	if err != nil {
		t.Fatal(err)
	}
	real := map[[2]packet.NodeID]bool{}
	for _, l := range Links {
		real[linkKey(l.A, l.B)] = true
	}
	for e := range res.EdgeUse {
		if !real[linkKey(e.From, e.To)] {
			t.Fatalf("data crossed nonexistent link %v->%v", e.From, e.To)
		}
	}
}

func TestRunProducesTimeSeriesAndDelays(t *testing.T) {
	res, err := Run(shortConfig(metric.SPP, 6))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) < 3 {
		t.Fatalf("series buckets = %d, want several over a 120 s run", len(res.Series))
	}
	nonzero := 0
	for _, p := range res.Series {
		// Two sources, two members each: the raw ratio tops out near 2.
		if p.Ratio < 0 || p.Ratio > 2.01 {
			t.Fatalf("bucket ratio = %v out of range", p.Ratio)
		}
		if p.Sent > 0 {
			nonzero++
		}
	}
	if nonzero < 3 {
		t.Fatalf("only %d buckets carry traffic", nonzero)
	}
	if res.Delay.Count == 0 || res.Delay.P50 <= 0 {
		t.Fatalf("delay percentiles = %+v", res.Delay)
	}
	if res.Delay.P50 > res.Delay.P90 || res.Delay.P90 > res.Delay.P99 || res.Delay.P99 > res.Delay.Max {
		t.Fatalf("percentiles not ordered: %+v", res.Delay)
	}
}

// TestLinkTableMatchesPairMap: the oracle's pair table finds the process the
// canonical-pair map it replaced found, for every ordered pair of IDs in and
// around the floor, including nodes on no link and IDs past the largest.
func TestLinkTableMatchesPairMap(t *testing.T) {
	rng := sim.NewRNG(1)
	links := append(append([]Link(nil), Links...), Link{A: 5, B: 2, Class: LowLoss}) // a pair twice: the later holds
	processes := make([]*lossProcess, len(links))
	byKey := make(map[[2]packet.NodeID]*lossProcess, len(links))
	for i, l := range links {
		processes[i] = newLossProcess(l.Class, rng.Split())
		byKey[linkKey(l.A, l.B)] = processes[i]
	}
	table := newLinkTable(links, processes)
	for a := packet.NodeID(0); a < 14; a++ {
		for b := packet.NodeID(0); b < 14; b++ {
			if got, want := table.process(a, b), byKey[linkKey(a, b)]; got != want {
				t.Fatalf("process(%d, %d) = %p, want %p", a, b, got, want)
			}
		}
	}
}
