package analysis

import (
	"math"
	"testing"

	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/topology"
)

// setLinkSymmetric sets both directions.
func (g *Graph) setLinkSymmetric(a, b int, e metric.LinkEstimate) {
	g.SetLink(a, b, e)
	g.SetLink(b, a, e)
}

func est(df float64) metric.LinkEstimate {
	return metric.LinkEstimate{
		DeliveryProb:     df,
		PairDelaySeconds: 0.004 / (df * df),
		BandwidthBps:     2e6 * df,
		PacketBytes:      512,
	}
}

// figure1Graph builds the paper's Figure 1 example: A(0), B(1), C(2), D(3).
func figure1Graph() *Graph {
	g := NewGraph(4)
	g.setLinkSymmetric(0, 2, est(1))       // A-C
	g.setLinkSymmetric(2, 3, est(1.0/3.0)) // C-D
	g.setLinkSymmetric(0, 1, est(0.25))    // A-B
	g.setLinkSymmetric(1, 3, est(1))       // B-D
	return g
}

func TestBestRoutesFigure1(t *testing.T) {
	g := figure1Graph()
	spp, err := BestRoutes(g, metric.SPP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spp.Cost[3]-1.0/3.0) > 1e-9 {
		t.Fatalf("SPP optimal to D = %v, want 1/3", spp.Cost[3])
	}
	path := spp.PathTo(3)
	if len(path) != 3 || path[0] != 0 || path[1] != 2 || path[2] != 3 {
		t.Fatalf("SPP path = %v, want [0 2 3] (A-C-D)", path)
	}

	metx, err := BestRoutes(g, metric.METX, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(metx.Cost[3]-5) > 1e-9 {
		t.Fatalf("METX optimal to D = %v, want 5", metx.Cost[3])
	}
	mPath := metx.PathTo(3)
	if len(mPath) != 3 || mPath[1] != 1 {
		t.Fatalf("METX path = %v, want via B", mPath)
	}
}

func TestBestRoutesFigure3(t *testing.T) {
	// A(0) B(1) C(2) D(3) E(4).
	g := NewGraph(5)
	g.setLinkSymmetric(0, 1, est(0.8))
	g.setLinkSymmetric(1, 2, est(0.8))
	g.setLinkSymmetric(2, 3, est(0.8))
	g.setLinkSymmetric(0, 4, est(0.9))
	g.setLinkSymmetric(4, 3, est(0.4))

	etx, err := BestRoutes(g, metric.ETX, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(etx.Cost[3]-(1/0.9+1/0.4)) > 1e-9 {
		t.Fatalf("ETX optimal = %v", etx.Cost[3])
	}
	if p := etx.PathTo(3); len(p) != 3 || p[1] != 4 {
		t.Fatalf("ETX path = %v, want via E", p)
	}

	spp, err := BestRoutes(g, metric.SPP, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spp.Cost[3]-0.512) > 1e-9 {
		t.Fatalf("SPP optimal = %v, want 0.512", spp.Cost[3])
	}
	if p := spp.PathTo(3); len(p) != 4 {
		t.Fatalf("SPP path = %v, want the 3-hop chain", p)
	}
}

func TestBestRoutesMinHop(t *testing.T) {
	g := NewGraph(4)
	g.setLinkSymmetric(0, 1, est(0.1)) // terrible but 1 hop
	g.setLinkSymmetric(0, 2, est(1))
	g.setLinkSymmetric(2, 1, est(1))
	g.setLinkSymmetric(1, 3, est(1))
	r, err := BestRoutes(g, metric.MinHop, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cost[1] != 1 {
		t.Fatalf("minhop to 1 = %v, want 1 (ignores quality)", r.Cost[1])
	}
	if r.Cost[3] != 2 {
		t.Fatalf("minhop to 3 = %v, want 2", r.Cost[3])
	}
}

func TestBestRoutesUnreachable(t *testing.T) {
	g := NewGraph(3)
	g.setLinkSymmetric(0, 1, est(0.9))
	// Node 2 is isolated.
	for _, k := range metric.All() {
		r, err := BestRoutes(g, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.Reachable(2) {
			t.Fatalf("%v: isolated node reported reachable", k)
		}
		if r.PathTo(2) != nil {
			t.Fatalf("%v: path to isolated node", k)
		}
		if !r.Reachable(0) || !r.Reachable(1) {
			t.Fatalf("%v: connected nodes unreachable", k)
		}
	}
}

func TestBestRoutesSourceOutOfRange(t *testing.T) {
	g := NewGraph(2)
	if _, err := BestRoutes(g, metric.SPP, 5); err == nil {
		t.Fatal("expected error for out-of-range source")
	}
	if _, err := BestRoutes(g, metric.Kind(99), 0); err == nil {
		t.Fatal("expected error for unknown metric")
	}
}

func TestBestRoutesAgainstBruteForce(t *testing.T) {
	// Exhaustive check on random 6- and 7-node graphs with one-way and dead
	// links: Dijkstra's answer must match brute-force enumeration of all
	// simple paths, for every metric; the path PathTo returns must cost what
	// Cost says; and OptimalSPP must be SPP's brute-force best.
	rng := sim.NewRNG(11)
	for trial := 0; trial < 40; trial++ {
		n := 6 + trial%2
		g := NewGraph(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				switch x := rng.Float64(); {
				case x < 0.35:
					g.setLinkSymmetric(i, j, est(0.3+0.7*rng.Float64()))
				case x < 0.45:
					g.SetLink(i, j, est(0.3+0.7*rng.Float64()))
				case x < 0.5:
					g.setLinkSymmetric(i, j, est(0))
				}
			}
		}
		for _, k := range metric.All() {
			pm := metric.MustNew(k)
			r, err := BestRoutes(g, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			for target := 1; target < n; target++ {
				want := bruteBest(g, pm, 0, target)
				got := r.Cost[target]
				reachableWant := pm.Usable(want)
				if reachableWant != r.Reachable(target) {
					t.Fatalf("trial %d %v target %d: reachable mismatch", trial, k, target)
				}
				if !reachableWant {
					continue
				}
				if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
					t.Fatalf("trial %d %v target %d: dijkstra %v, brute force %v", trial, k, target, got, want)
				}
				path := r.PathTo(target)
				links := make([]metric.LinkEstimate, len(path)-1)
				for i := range links {
					links[i], _ = g.Link(path[i], path[i+1])
				}
				if c := metric.PathCostFromEstimates(pm, links); c != got {
					t.Fatalf("trial %d %v target %d: path %v costs %v, Cost says %v", trial, k, target, path, c, got)
				}
			}
		}
		spp := metric.MustNew(metric.SPP)
		opt, err := OptimalSPP(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		for target := 1; target < n; target++ {
			want := bruteBest(g, spp, 0, target)
			if !spp.Usable(want) {
				want = 0
			}
			if math.Abs(opt[target]-want) > 1e-12 {
				t.Fatalf("trial %d target %d: OptimalSPP %v, brute force %v", trial, target, opt[target], want)
			}
		}
	}
}

// bruteBest enumerates all simple paths via DFS.
func bruteBest(g *Graph, pm metric.PathMetric, from, to int) float64 {
	best := pm.Worst()
	visited := make([]bool, g.NodeCount())
	var dfs func(at int, cost float64)
	dfs = func(at int, cost float64) {
		if at == to {
			if pm.Usable(cost) && pm.Better(cost, best) {
				best = cost
			}
			return
		}
		visited[at] = true
		for v := 0; v < g.NodeCount(); v++ {
			if visited[v] {
				continue
			}
			e, ok := g.Link(at, v)
			if !ok {
				continue
			}
			dfs(v, pm.Accumulate(cost, pm.LinkCost(e)))
		}
		visited[at] = false
	}
	dfs(from, pm.Initial())
	return best
}

func TestFromMediumAnalyticGraph(t *testing.T) {
	engine := sim.NewEngine(1)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.Rayleigh{}, phy.DefaultParams())
	topo := topology.Line(3, 150)
	g := FromMedium(topo, medium, 512, 0.01)
	e, ok := g.Link(0, 1)
	if !ok {
		t.Fatal("adjacent link missing")
	}
	if e.DeliveryProb <= 0.5 || e.DeliveryProb > 1 {
		t.Fatalf("df(150m) = %v", e.DeliveryProb)
	}
	far, ok := g.Link(0, 2)
	if ok && far.DeliveryProb >= e.DeliveryProb {
		t.Fatal("300m link should be much worse than 150m link")
	}
	if e.BandwidthBps <= 0 || e.PairDelaySeconds <= 0 || e.PacketBytes != 512 {
		t.Fatalf("pair fields not populated: %+v", e)
	}
}

func TestOptimalSPP(t *testing.T) {
	g := figure1Graph()
	opt, err := OptimalSPP(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt[0] != 1 {
		t.Fatalf("source optimal = %v, want 1", opt[0])
	}
	if math.Abs(opt[3]-1.0/3.0) > 1e-9 {
		t.Fatalf("optimal to D = %v", opt[3])
	}
}

func TestFromPositions(t *testing.T) {
	engine := sim.NewEngine(1)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())
	g := FromPositions([]geom.Point{{X: 0}, {X: 100}}, medium, 512, 0.5)
	if g.NodeCount() != 2 {
		t.Fatalf("nodes = %d", g.NodeCount())
	}
	if _, ok := g.Link(0, 1); !ok {
		t.Fatal("link missing")
	}
}
