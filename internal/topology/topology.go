// Package topology generates and analyses node placements for mesh network
// simulations: uniform random placement in a rectangle (the paper's 50 nodes
// in 1000 m × 1000 m), grid placement for controlled tests, and
// connectivity analysis under a disc communication range.
package topology

import (
	"errors"
	"fmt"
	"math"

	"meshcast/internal/geom"
	"meshcast/internal/sim"
)

// MaxNodes bounds a topology's size: node i runs as packet.NodeID(i), a
// uint16, so a larger network would reuse IDs.
const MaxNodes = 1 << 16

// Topology is a static node placement.
type Topology struct {
	// Positions holds one point per node; the index is the node ID.
	Positions []geom.Point
	// Area is the deployment region.
	Area geom.Rect
}

// NodeCount returns the number of nodes.
func (t *Topology) NodeCount() int { return len(t.Positions) }

// Random places n nodes uniformly at random inside area.
func Random(rng *sim.RNG, n int, area geom.Rect) *Topology {
	pos := make([]geom.Point, n)
	for i := range pos {
		pos[i] = geom.Point{
			X: area.Min.X + rng.Float64()*area.Width(),
			Y: area.Min.Y + rng.Float64()*area.Height(),
		}
	}
	return &Topology{Positions: pos, Area: area}
}

// ErrNotConnected reports that no connected random topology was found within
// the attempt budget.
var ErrNotConnected = errors.New("topology: could not generate a connected topology")

// RandomConnected repeatedly draws random placements until one is connected
// under the given communication range, trying up to maxAttempts times. The
// paper presents averages over 10 random topologies; connected instances
// keep every group member reachable so throughput differences reflect
// routing, not partitions. n outside [1, MaxNodes], an area without a
// positive, finite width and height, and a range that is not positive are
// errors.
func RandomConnected(rng *sim.RNG, n int, area geom.Rect, rangeM float64, maxAttempts int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: a topology needs at least one node, got %d", n)
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("topology: a topology holds at most %d nodes, got %d", MaxNodes, n)
	}
	// Negated so that NaN fails too.
	if w, h := area.Width(), area.Height(); !(w > 0 && h > 0) || math.IsInf(w+h, 0) {
		return nil, fmt.Errorf("topology: area %gx%g m has no positive, finite extent", w, h)
	}
	if !(rangeM > 0) {
		return nil, fmt.Errorf("topology: radio range must be positive, got %g m", rangeM)
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		t := Random(rng, n, area)
		if t.IsConnected(rangeM) {
			return t, nil
		}
	}
	return nil, fmt.Errorf("%w after %d attempts (n=%d area=%.0fx%.0f range=%.0f)",
		ErrNotConnected, maxAttempts, n, area.Width(), area.Height(), rangeM)
}

// Grid places nodes on a rows × cols lattice with the given spacing,
// starting at origin.
func Grid(rows, cols int, spacing float64) *Topology {
	pos := make([]geom.Point, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos = append(pos, geom.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return &Topology{
		Positions: pos,
		Area:      geom.Rect{Max: geom.Point{X: float64(cols-1) * spacing, Y: float64(rows-1) * spacing}},
	}
}

// Line places n nodes on a horizontal line with the given spacing. Useful
// for multi-hop chain tests.
func Line(n int, spacing float64) *Topology {
	return Grid(1, n, spacing)
}

// Neighbors returns, for every node, the IDs of nodes within rangeM.
func (t *Topology) Neighbors(rangeM float64) [][]int {
	n := t.NodeCount()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if t.Positions[i].Distance(t.Positions[j]) <= rangeM {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

// IsConnected reports whether the disc graph with the given range is a
// single connected component.
func (t *Topology) IsConnected(rangeM float64) bool {
	n := t.NodeCount()
	if n == 0 {
		return true
	}
	return len(t.component(0, rangeM)) == n
}

// component returns the IDs reachable from start in the disc graph.
func (t *Topology) component(start int, rangeM float64) []int {
	adj := t.Neighbors(rangeM)
	seen := make([]bool, t.NodeCount())
	stack := []int{start}
	seen[start] = true
	var out []int
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return out
}

// HopDistance returns the minimum hop count between nodes a and b in the
// disc graph, or -1 if unreachable.
func (t *Topology) HopDistance(a, b int, rangeM float64) int {
	if a == b {
		return 0
	}
	adj := t.Neighbors(rangeM)
	dist := make([]int, t.NodeCount())
	for i := range dist {
		dist[i] = -1
	}
	dist[a] = 0
	queue := []int{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				if w == b {
					return dist[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return -1
}

// MeanDegree returns the average neighbor count under the given range.
func (t *Topology) MeanDegree(rangeM float64) float64 {
	if t.NodeCount() == 0 {
		return 0
	}
	adj := t.Neighbors(rangeM)
	total := 0
	for _, a := range adj {
		total += len(a)
	}
	return float64(total) / float64(t.NodeCount())
}
