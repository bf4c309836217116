package topology

import (
	"errors"
	"math"
	"strings"
	"testing"

	"meshcast/internal/geom"
	"meshcast/internal/sim"
)

func TestRandomPlacementInsideArea(t *testing.T) {
	rng := sim.NewRNG(1)
	area := geom.Square(1000)
	topo := Random(rng, 50, area)
	if topo.NodeCount() != 50 {
		t.Fatalf("NodeCount = %d", topo.NodeCount())
	}
	for i, p := range topo.Positions {
		if !area.Contains(p) {
			t.Fatalf("node %d at %v outside area", i, p)
		}
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	a := Random(sim.NewRNG(9), 20, geom.Square(500))
	b := Random(sim.NewRNG(9), 20, geom.Square(500))
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatal("same seed produced different placements")
		}
	}
	c := Random(sim.NewRNG(10), 20, geom.Square(500))
	same := true
	for i := range a.Positions {
		if a.Positions[i] != c.Positions[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical placements")
	}
}

func TestGridAndLine(t *testing.T) {
	g := Grid(2, 3, 100)
	if g.NodeCount() != 6 {
		t.Fatalf("grid count = %d", g.NodeCount())
	}
	if g.Positions[5] != (geom.Point{X: 200, Y: 100}) {
		t.Fatalf("grid[5] = %v", g.Positions[5])
	}
	l := Line(4, 200)
	if l.NodeCount() != 4 || l.Positions[3] != (geom.Point{X: 600, Y: 0}) {
		t.Fatalf("line = %v", l.Positions)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	topo := Random(sim.NewRNG(3), 30, geom.Square(800))
	adj := topo.Neighbors(250)
	for i, ns := range adj {
		for _, j := range ns {
			found := false
			for _, k := range adj[j] {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d->%d", i, j)
			}
		}
	}
}

func TestIsConnectedLine(t *testing.T) {
	l := Line(5, 200)
	if !l.IsConnected(250) {
		t.Fatal("200m-spaced line should be connected at 250m range")
	}
	if l.IsConnected(150) {
		t.Fatal("200m-spaced line should be disconnected at 150m range")
	}
}

func TestHopDistance(t *testing.T) {
	l := Line(5, 200)
	tests := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 4},
		{4, 0, 4},
		{1, 3, 2},
	}
	for _, tt := range tests {
		if got := l.HopDistance(tt.a, tt.b, 250); got != tt.want {
			t.Fatalf("HopDistance(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
	if got := l.HopDistance(0, 4, 150); got != -1 {
		t.Fatalf("unreachable HopDistance = %d, want -1", got)
	}
}

func TestRandomConnected(t *testing.T) {
	rng := sim.NewRNG(5)
	topo, err := RandomConnected(rng, 50, geom.Square(1000), 250, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !topo.IsConnected(250) {
		t.Fatal("RandomConnected returned a disconnected topology")
	}
}

func TestRandomConnectedFailsWhenImpossible(t *testing.T) {
	rng := sim.NewRNG(5)
	// 3 nodes in a huge area with tiny range: effectively never connected.
	_, err := RandomConnected(rng, 3, geom.Square(100000), 1, 5)
	if !errors.Is(err, ErrNotConnected) {
		t.Fatalf("err = %v, want ErrNotConnected", err)
	}
}

// TestRandomConnectedRejectsDegenerateInput: an area without a positive,
// finite extent or a range that is not positive is an error naming it. A
// 0 m side used to stack every node on the origin and pass as connected.
func TestRandomConnectedRejectsDegenerateInput(t *testing.T) {
	for _, tc := range []struct {
		side, rangeM float64
		want         string
	}{
		{0, 250, "no positive, finite extent"},
		{-500, 250, "no positive, finite extent"},
		{math.NaN(), 250, "no positive, finite extent"},
		{math.Inf(1), 250, "no positive, finite extent"},
		{1000, 0, "range must be positive"},
		{1000, -250, "range must be positive"},
		{1000, math.NaN(), "range must be positive"},
	} {
		_, err := RandomConnected(sim.NewRNG(5), 3, geom.Square(tc.side), tc.rangeM, 5)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("side %v, range %v: err = %v, want one saying %q", tc.side, tc.rangeM, err, tc.want)
		}
	}
}

func TestMeanDegree(t *testing.T) {
	l := Line(3, 200)
	// Node 0 and 2 have 1 neighbor each, node 1 has 2: mean 4/3.
	got := l.MeanDegree(250)
	if got < 1.33 || got > 1.34 {
		t.Fatalf("MeanDegree = %v, want ~1.333", got)
	}
	if (&Topology{}).MeanDegree(250) != 0 {
		t.Fatal("empty topology should have zero degree")
	}
}

func TestPaperScaleTopologyHasMultiHopPaths(t *testing.T) {
	// Sanity for the paper's setup: 50 nodes in 1000x1000 at 250m range is
	// usually connected with mean degree around 8 and diameter > 1 hop.
	rng := sim.NewRNG(42)
	topo, err := RandomConnected(rng, 50, geom.Square(1000), 250, 200)
	if err != nil {
		t.Fatal(err)
	}
	if d := topo.MeanDegree(250); d < 4 || d > 16 {
		t.Fatalf("mean degree = %v, outside plausible band", d)
	}
	multihop := false
	for j := 1; j < topo.NodeCount(); j++ {
		if topo.HopDistance(0, j, 250) > 1 {
			multihop = true
			break
		}
	}
	if !multihop {
		t.Fatal("expected at least one multi-hop pair in a 50-node topology")
	}
}
