// Package analysis computes metric-optimal routes on analytic link-quality
// graphs — the ground truth the distributed protocol approximates. It
// implements a generalized Dijkstra over any metric.PathMetric algebra
// (every metric in this repository is monotone and isotone, so label-setting
// search is exact) and helpers to grade protocol-built trees against the
// optimum.
package analysis

import (
	"container/heap"
	"fmt"

	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/phy"
	"meshcast/internal/topology"
)

// Graph is a directed graph with per-link quality estimates.
type Graph struct {
	n   int
	est map[[2]int]metric.LinkEstimate
}

// NewGraph returns an empty graph over n nodes.
func NewGraph(n int) *Graph {
	return &Graph{n: n, est: make(map[[2]int]metric.LinkEstimate)}
}

// NodeCount returns the number of nodes.
func (g *Graph) NodeCount() int { return g.n }

// SetLink sets the estimate for the directed link from → to.
func (g *Graph) SetLink(from, to int, e metric.LinkEstimate) {
	g.est[[2]int{from, to}] = e
}

// Link returns the estimate and whether the link exists.
func (g *Graph) Link(from, to int) (metric.LinkEstimate, bool) {
	e, ok := g.est[[2]int{from, to}]
	return e, ok
}

// FromMedium builds the analytic link-quality graph of a topology under a
// medium's propagation and fading models: each directed link's delivery
// probability is the closed-form per-packet reception probability. Pair
// metrics get an idealized packet-pair estimate: the large probe's airtime
// at the channel rate, inflated by the equilibrium loss penalty, and the
// channel bandwidth scaled by df. Links below minDF are omitted.
func FromMedium(topo *topology.Topology, medium *phy.Medium, packetBytes int, minDF float64) *Graph {
	g := NewGraph(topo.NodeCount())
	params := medium.Params()
	pairAirtime := params.AirTime(1000).Seconds() // nominal large-probe size
	for i := 0; i < topo.NodeCount(); i++ {
		for j := 0; j < topo.NodeCount(); j++ {
			if i == j {
				continue
			}
			df := medium.DeliveryProbability(topo.Positions[i], topo.Positions[j])
			if df < minDF {
				continue
			}
			g.SetLink(i, j, metric.LinkEstimate{
				DeliveryProb:     df,
				PairDelaySeconds: pairAirtime / (df * df),
				BandwidthBps:     params.BitrateBps * df,
				PacketBytes:      packetBytes,
			})
		}
	}
	return g
}

// FromPositions is FromMedium for plain point sets.
func FromPositions(positions []geom.Point, medium *phy.Medium, packetBytes int, minDF float64) *Graph {
	return FromMedium(&topology.Topology{Positions: positions}, medium, packetBytes, minDF)
}

// Routes holds single-source optimal routes under one metric.
type Routes struct {
	// Source is the route tree's root.
	Source int
	// Cost[v] is the optimal path cost from Source to v (metric's Worst
	// if unreachable).
	Cost []float64
	// Prev[v] is v's predecessor on the optimal path (-1 for the source
	// and unreachable nodes).
	Prev []int

	pm metric.PathMetric
}

// costItem is a priority-queue entry.
type costItem struct {
	node  int
	cost  float64
	index int
}

// costQueue orders items by the metric's Better relation.
type costQueue struct {
	items []*costItem
	pm    metric.PathMetric
}

func (q *costQueue) Len() int { return len(q.items) }
func (q *costQueue) Less(i, j int) bool {
	return q.pm.Better(q.items[i].cost, q.items[j].cost)
}
func (q *costQueue) Swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].index = i
	q.items[j].index = j
}
func (q *costQueue) Push(x any) {
	item, ok := x.(*costItem)
	if !ok {
		return
	}
	item.index = len(q.items)
	q.items = append(q.items, item)
}
func (q *costQueue) Pop() any {
	old := q.items
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	q.items = old[:n-1]
	return it
}

// BestRoutes runs the generalized Dijkstra from source under metric kind.
// It is exact for monotone, isotone path algebras — which all six metrics
// are: extending a path never improves it, and improving a prefix never
// hurts the whole.
func BestRoutes(g *Graph, kind metric.Kind, source int) (*Routes, error) {
	pm, err := metric.New(kind)
	if err != nil {
		return nil, err
	}
	if source < 0 || source >= g.n {
		return nil, fmt.Errorf("analysis: source %d out of range [0,%d)", source, g.n)
	}
	r := &Routes{
		Source: source,
		Cost:   make([]float64, g.n),
		Prev:   make([]int, g.n),
		pm:     pm,
	}
	for i := range r.Cost {
		r.Cost[i] = pm.Worst()
		r.Prev[i] = -1
	}
	r.Cost[source] = pm.Initial()

	q := &costQueue{pm: pm}
	items := make([]*costItem, g.n)
	items[source] = &costItem{node: source, cost: pm.Initial()}
	heap.Push(q, items[source])
	settled := make([]bool, g.n)

	for q.Len() > 0 {
		popped, ok := heap.Pop(q).(*costItem)
		if !ok {
			break
		}
		u := popped.node
		if settled[u] {
			continue
		}
		settled[u] = true
		for v := 0; v < g.n; v++ {
			if settled[v] || v == u {
				continue
			}
			e, ok := g.Link(u, v)
			if !ok {
				continue
			}
			candidate := pm.Accumulate(r.Cost[u], pm.LinkCost(e))
			if !pm.Usable(candidate) {
				continue
			}
			if !pm.Better(candidate, r.Cost[v]) {
				continue
			}
			r.Cost[v] = candidate
			r.Prev[v] = u
			if items[v] == nil {
				items[v] = &costItem{node: v, cost: candidate}
				heap.Push(q, items[v])
			} else {
				items[v].cost = candidate
				heap.Fix(q, items[v].index)
			}
		}
	}
	return r, nil
}

// Reachable reports whether v has a usable optimal path.
func (r *Routes) Reachable(v int) bool {
	return v == r.Source || r.Prev[v] != -1
}

// PathTo reconstructs the optimal path source → v (inclusive); nil if
// unreachable.
func (r *Routes) PathTo(v int) []int {
	if !r.Reachable(v) {
		return nil
	}
	var rev []int
	for at := v; at != -1; at = r.Prev[at] {
		rev = append(rev, at)
		if at == r.Source {
			break
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// OptimalSPP returns, for each node, the best achievable end-to-end
// delivery probability from source — the analytic ceiling a multicast
// protocol can reach per packet transmission chain (no retransmissions).
func OptimalSPP(g *Graph, source int) ([]float64, error) {
	r, err := BestRoutes(g, metric.SPP, source)
	if err != nil {
		return nil, err
	}
	out := make([]float64, g.n)
	for v := range out {
		if r.Reachable(v) {
			out[v] = r.Cost[v]
		}
	}
	out[source] = 1
	return out, nil
}
