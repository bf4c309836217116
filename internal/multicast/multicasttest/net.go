// Package multicasttest is the test network for protocols built on the
// multicast flood-round kernel: Net, a deterministic lossless network that
// drives protocol instances without PHY/MAC noise. The white-box tests of
// every protocol package and the kernel conformance suite of package
// multicast share it.
package multicasttest

import (
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// Net is a lossless broadcast network with per-link delivery delays, letting
// protocol tests control which copy of a flood arrives first. Link qualities
// are pinned via static NEIGHBOR TABLE estimates.
type Net struct {
	Engine *sim.Engine
	nodes  map[packet.NodeID]multicast.Protocol
	tables map[packet.NodeID]*linkquality.Table
	// delays holds the one-way delay of every directed link; a broadcast
	// reaches exactly the nodes it has an entry toward.
	delays map[multicast.Edge]time.Duration
}

// NewNet returns an empty network on a fresh engine.
func NewNet(seed uint64) *Net {
	return &Net{
		Engine: sim.NewEngine(seed),
		nodes:  make(map[packet.NodeID]multicast.Protocol),
		tables: make(map[packet.NodeID]*linkquality.Table),
		delays: make(map[multicast.Edge]time.Duration),
	}
}

// NewTable returns an empty NEIGHBOR TABLE sized like the node stack's.
func NewTable() *linkquality.Table { return linkquality.NewTable(512, 10, 0) }

// Attach adds p, built against table, to the network and makes the network
// its MAC.
func (n *Net) Attach(p multicast.Protocol, table *linkquality.Table) {
	id := p.ID()
	n.nodes[id] = p
	n.tables[id] = table
	p.SetSend(func(pkt *packet.Packet) bool {
		n.Broadcast(id, pkt)
		return true
	})
}

// Broadcast delivers a copy of p to every neighbor of from after the link's
// delay, whether or not from is an attached node.
func (n *Net) Broadcast(from packet.NodeID, p *packet.Packet) {
	for edge, delay := range n.delays {
		to := n.nodes[edge.To]
		if edge.From != from || to == nil {
			continue
		}
		c := p.Clone()
		n.Engine.Schedule(delay, func() { to.Handle(c, from) })
	}
}

// Link connects a and b bidirectionally with the given one-way delay and no
// link-quality estimates (the warm-up state).
func (n *Net) Link(a, b packet.NodeID, delay time.Duration) {
	n.delays[multicast.Edge{From: a, To: b}] = delay
	n.delays[multicast.Edge{From: b, To: a}] = delay
}

// Connect is Link plus the delivery probabilities of both directions,
// recorded in each receiver's neighbor table.
func (n *Net) Connect(a, b packet.NodeID, delay time.Duration, dfAB, dfBA float64) {
	n.Link(a, b, delay)
	n.tables[b].SetStatic(uint16(a), estimate(dfAB))
	n.tables[a].SetStatic(uint16(b), estimate(dfBA))
}

func estimate(df float64) metric.LinkEstimate {
	return metric.LinkEstimate{
		DeliveryProb: df, PairDelaySeconds: 0.002 / df, BandwidthBps: 2e6 * df, PacketBytes: 512,
	}
}
