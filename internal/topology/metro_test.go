package topology

import (
	"math"
	"testing"

	"meshcast/internal/sim"
)

func TestSideForDensity(t *testing.T) {
	// The paper's own scenario: 50 nodes at 50/km² is exactly 1 km².
	if got := SideForDensity(50, PaperDensityPerKm2); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("SideForDensity(50, paper) = %v, want 1000", got)
	}
	// Density is held as N grows: 10k nodes → ~14.1 km side.
	if got := SideForDensity(10000, PaperDensityPerKm2); math.Abs(got-1000*math.Sqrt(200)) > 1e-6 {
		t.Fatalf("SideForDensity(10000, paper) = %v", got)
	}
	if SideForDensity(0, 50) != 0 || SideForDensity(50, 0) != 0 {
		t.Fatal("degenerate inputs must yield zero side")
	}
}

func TestMetroPlacement(t *testing.T) {
	rng := sim.NewRNG(7)
	cfg := MetroConfig{Nodes: 2000, GatewaySpacingM: 1500}
	topo, gateways := Metro(rng, cfg)
	if topo.NodeCount() != cfg.Nodes {
		t.Fatalf("node count = %d, want %d", topo.NodeCount(), cfg.Nodes)
	}
	side := SideForDensity(cfg.Nodes, PaperDensityPerKm2)
	if math.Abs(topo.Area.Width()-side) > 1e-9 {
		t.Fatalf("area side = %v, want %v", topo.Area.Width(), side)
	}
	for i, p := range topo.Positions {
		if p.X < 0 || p.X > side || p.Y < 0 || p.Y > side {
			t.Fatalf("node %d at %+v outside the deployment area", i, p)
		}
	}
	// Gateways are an ID prefix on a lattice: ~ (side/1500)² of them.
	per := int(side / cfg.GatewaySpacingM)
	if want := per * per; len(gateways) != want {
		t.Fatalf("gateways = %d, want %d", len(gateways), want)
	}
	for i, g := range gateways {
		if g != i {
			t.Fatalf("gateway IDs = %v, want the prefix 0..%d", gateways, len(gateways)-1)
		}
	}
	// Clustering produces visibly non-uniform density: the most crowded
	// quartile-cell should hold several times the uniform expectation.
	const cells = 8
	counts := make([]int, cells*cells)
	for _, p := range topo.Positions {
		cx := int(p.X / side * cells)
		cy := int(p.Y / side * cells)
		if cx == cells {
			cx--
		}
		if cy == cells {
			cy--
		}
		counts[cy*cells+cx]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniform := float64(cfg.Nodes) / (cells * cells)
	if float64(max) < 2*uniform {
		t.Fatalf("densest cell holds %d nodes (uniform expectation %.0f); placement looks uniform, not clustered", max, uniform)
	}
}

func TestMetroDeterministic(t *testing.T) {
	cfg := MetroConfig{Nodes: 500, GatewaySpacingM: 2000}
	a, _ := Metro(sim.NewRNG(42), cfg)
	b, _ := Metro(sim.NewRNG(42), cfg)
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			t.Fatalf("node %d placed at %+v then %+v with the same seed", i, a.Positions[i], b.Positions[i])
		}
	}
}
