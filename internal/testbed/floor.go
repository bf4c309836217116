package testbed

import (
	"fmt"
	"sort"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// Scenario generalizes the paper's fixed 8-node testbed to arbitrary
// emulated deployments — the paper's stated future work ("we plan to
// significantly expand our testbed which will give more diversity in the
// network topologies", §6).
type Scenario struct {
	// Nodes lists the router IDs.
	Nodes []packet.NodeID
	// Positions places each node (display + diagnostics only; propagation
	// is trace-driven).
	Positions map[packet.NodeID]geom.Point
	// Links is the classified connectivity.
	Links []Link
	// Groups declares the multicast sessions.
	Groups []GroupSpec
}

// GroupSpec is one multicast session on a testbed scenario.
type GroupSpec struct {
	Group   packet.GroupID
	Source  packet.NodeID
	Members []packet.NodeID
}

// PaperScenario returns the paper's §5 deployment: the Figure 4 topology
// with source 2 → {3, 5} and source 4 → {1, 7}.
func PaperScenario() Scenario {
	links := make([]Link, len(Links))
	copy(links, Links)
	positions := make(map[packet.NodeID]geom.Point, len(Positions))
	for id, p := range Positions {
		positions[id] = p
	}
	return Scenario{
		Nodes:     append([]packet.NodeID(nil), NodeIDs...),
		Positions: positions,
		Links:     links,
		Groups: []GroupSpec{
			{Group: 1, Source: 2, Members: []packet.NodeID{3, 5}},
			{Group: 2, Source: 4, Members: []packet.NodeID{1, 7}},
		},
	}
}

// The generated floor's fixed shape. The paper's floor is roughly 73 m ×
// 26 m (240 × 86 feet) for 8 nodes; a generated floor keeps that width and
// office density, so its length grows with the node count.
const (
	floorWidthM = 26.0
	// floorLinkRangeM bounds office-to-office connectivity.
	floorLinkRangeM = 30.0
	// floorLossyFraction is the target share of lossy links, matching
	// Figure 4's 4 of 12.
	floorLossyFraction = 1.0 / 3.0
)

// FloorConfig shapes a generated office-floor testbed.
type FloorConfig struct {
	// Nodes is the router count (≥ 4).
	Nodes int
	// Seed drives placement and link classification.
	Seed uint64
	// Groups is the number of multicast sessions to lay out (default 2),
	// each with one source and two members, like the paper's experiments.
	Groups int
}

// GenerateFloor builds a connected office-floor testbed scenario: nodes
// placed in a corridor-like rectangle, links between offices within range,
// and the longest links classified lossy (long indoor links cross more
// walls). Generation is deterministic per seed.
func GenerateFloor(cfg FloorConfig) (Scenario, error) {
	if cfg.Nodes < 4 {
		return Scenario{}, fmt.Errorf("testbed: floor needs at least 4 nodes, got %d", cfg.Nodes)
	}
	// Keep the paper's office density: 8 nodes per 73 m of corridor.
	lengthM := 73 * float64(cfg.Nodes) / 8
	if cfg.Groups == 0 {
		cfg.Groups = 2
	}

	rng := sim.NewRNG(cfg.Seed ^ 0xa5a5a5a55a5a5a5a)
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		sc, ok := generateFloorOnce(cfg, lengthM, rng)
		if ok {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("testbed: no connected floor found for %d nodes in %.0fx%.0f m (range %.0f m)",
		cfg.Nodes, lengthM, floorWidthM, floorLinkRangeM)
}

func generateFloorOnce(cfg FloorConfig, lengthM float64, rng *sim.RNG) (Scenario, bool) {
	sc := Scenario{Positions: make(map[packet.NodeID]geom.Point, cfg.Nodes)}
	// Offices along the corridor: jittered lattice keeps spacing realistic.
	for i := 0; i < cfg.Nodes; i++ {
		id := packet.NodeID(i + 1)
		sc.Nodes = append(sc.Nodes, id)
		sc.Positions[id] = geom.Point{
			X: (float64(i) + rng.Float64()) / float64(cfg.Nodes) * lengthM,
			Y: rng.Float64() * floorWidthM,
		}
	}
	// Candidate links: all pairs within range, sorted by distance.
	type candidate struct {
		a, b packet.NodeID
		d    float64
	}
	var cands []candidate
	for i := 0; i < cfg.Nodes; i++ {
		for j := i + 1; j < cfg.Nodes; j++ {
			a, b := sc.Nodes[i], sc.Nodes[j]
			d := sc.Positions[a].Distance(sc.Positions[b])
			if d <= floorLinkRangeM {
				cands = append(cands, candidate{a, b, d})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].d < cands[j].d })
	// The longest floorLossyFraction of links cross the most walls: lossy.
	lossyFrom := len(cands) - int(float64(len(cands))*floorLossyFraction)
	for i, c := range cands {
		class := LowLoss
		if i >= lossyFrom {
			class = Lossy
		}
		sc.Links = append(sc.Links, Link{A: c.a, B: c.b, Class: class})
	}
	if !scenarioConnected(sc) {
		return Scenario{}, false
	}
	// Sessions: distinct sources, two members each, all distinct per group.
	perm := rng.Perm(cfg.Nodes)
	if cfg.Nodes < cfg.Groups*3 {
		return Scenario{}, false
	}
	for g := 0; g < cfg.Groups; g++ {
		base := g * 3
		sc.Groups = append(sc.Groups, GroupSpec{
			Group:  packet.GroupID(g + 1),
			Source: sc.Nodes[perm[base]],
			Members: []packet.NodeID{
				sc.Nodes[perm[base+1]], sc.Nodes[perm[base+2]],
			},
		})
	}
	return sc, true
}

// scenarioConnected checks graph connectivity over all links.
func scenarioConnected(sc Scenario) bool {
	if len(sc.Nodes) == 0 {
		return true
	}
	adj := make(map[packet.NodeID][]packet.NodeID, len(sc.Nodes))
	for _, l := range sc.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	seen := map[packet.NodeID]bool{sc.Nodes[0]: true}
	stack := []packet.NodeID{sc.Nodes[0]}
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
	return len(seen) == len(sc.Nodes)
}
