// Package odmrp implements the On-Demand Multicast Routing Protocol and the
// paper's high-throughput extensions (§3).
//
// ODMRP builds a per-group forwarding mesh: each source periodically floods
// a JOIN QUERY; group members answer with a JOIN REPLY that travels hop by
// hop back toward the source, setting the forwarding-group (FG) flag at each
// relay. Data packets are link-layer broadcast and rebroadcast by FG nodes.
//
// The original protocol effectively selects shortest-delay (min-hop) paths:
// members reply to the first query copy they hear. The modified protocol of
// the paper makes three changes:
//
//  1. Every node maintains a NEIGHBOR TABLE of link costs measured by
//     probes (package linkquality) and accumulates the cost of the traveled
//     path in the JOIN QUERY using a pluggable routing metric
//     (package metric).
//  2. A member waits δ before replying, collects duplicate queries, and
//     replies along the best-cost path seen.
//  3. Intermediate nodes re-forward duplicate queries that improve on the
//     best cost seen so far, but only within α < δ of the first copy,
//     bounding overhead while adding path diversity.
package odmrp

import (
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// The protocol's fixed timing (paper §3: refresh every 3 s, FG timeout 3 ×
// refresh).
const (
	// refreshInterval is the period between JOIN QUERY floods of an active
	// source.
	refreshInterval = 3 * time.Second
	// fgTimeout is how long a forwarding-group flag stays set after the
	// last JOIN REPLY refreshed it. ODMRP traditionally uses a small
	// multiple of the refresh interval.
	fgTimeout = 9 * time.Second
	// queryJitter is the maximum random delay added before rebroadcasting
	// a JOIN QUERY, decorrelating the flood.
	queryJitter = 4 * time.Millisecond
	// replyJitter is the maximum random delay before propagating a JOIN
	// REPLY.
	replyJitter = 2 * time.Millisecond
)

// Params configures the protocol.
type Params struct {
	// MemberDelta (δ) is how long a member accumulates duplicate JOIN
	// QUERY packets before replying along the best path. Zero selects the
	// original first-copy behavior.
	MemberDelta time.Duration
	// DupAlpha (α) is the window after the first copy of a query during
	// which improving duplicates are re-forwarded. Zero disables duplicate
	// forwarding (the original behavior).
	DupAlpha time.Duration
	// ReplyRetries enables passive-acknowledgment JOIN REPLY
	// retransmission (an ODMRP robustness mechanism beyond the paper's
	// version): after sending a reply naming an upstream next hop, the
	// node expects to overhear that neighbor's own JOIN REPLY; if it does
	// not within ReplyAckTimeout, the reply is retransmitted up to this
	// many times. Zero (the default, and the paper's behavior) disables
	// retransmission.
	ReplyRetries int
	// ReplyAckTimeout is the passive-acknowledgment wait.
	ReplyAckTimeout time.Duration
}

// DefaultParams returns the configuration used by the paper's simulations:
// δ = 30 ms, α = 20 ms.
func DefaultParams() Params {
	return Params{
		MemberDelta:     30 * time.Millisecond,
		DupAlpha:        20 * time.Millisecond,
		ReplyAckTimeout: 60 * time.Millisecond,
	}
}

// OriginalParams returns DefaultParams with the paper's modifications
// switched off: members reply to the first JOIN QUERY immediately and
// duplicates are never re-forwarded. Combined with the MinHop metric this is
// the original ODMRP baseline.
func OriginalParams() Params {
	p := DefaultParams()
	p.MemberDelta = 0
	p.DupAlpha = 0
	return p
}

// Edge is a directed link used by delivered or forwarded data, for tree
// analysis (paper Figure 5). It aliases the protocol-agnostic edge type.
type Edge = multicast.Edge

// policy is ODMRP as the flood-round kernel sees it: JOIN QUERY floods
// answered by JOIN REPLY grafts, timed by the constants above and params.
// The mesh is per source, so a source is not a forwarder of its own group by
// role (OriginRelays false).
func policy(params Params) multicast.Policy {
	return multicast.Policy{
		FloodKind:     packet.TypeJoinQuery,
		GraftKind:     packet.TypeJoinReply,
		FloodInterval: refreshInterval,
		FlagTimeout:   fgTimeout,
		Delta:         params.MemberDelta,
		Alpha:         params.DupAlpha,
		FloodJitter:   queryJitter,
		GraftJitter:   replyJitter,
	}
}

// Router is one node's ODMRP instance: the shared flood-round kernel under
// ODMRP's policy, plus passive-acknowledgment supervision of sent replies.
type Router struct {
	*multicast.Kernel
	// ReplyRetransmits counts JOIN REPLY retransmissions by this node.
	ReplyRetransmits uint64

	engine  *sim.Engine
	params  Params
	pending map[multicast.Flow]*pendingReply
}

// New creates a router for node id using path metric pm and neighbor table
// table. For the original ODMRP baseline pass metric.MustNew(metric.MinHop)
// and OriginalParams().
func New(engine *sim.Engine, id packet.NodeID, pm metric.PathMetric, table *linkquality.Table, params Params) *Router {
	r := &Router{
		Kernel:  multicast.NewKernel(engine, id, pm, table, policy(params)),
		engine:  engine,
		params:  params,
		pending: make(map[multicast.Flow]*pendingReply),
	}
	r.OnGraftSent = r.armReplyAck
	return r
}

// Reset purges all of the router's soft state, modeling a node crash: the
// kernel's rounds, flags, duplicate windows and source floods, and pending
// reply-ack supervision. A source stopped here must be re-registered via
// StartSource after restart.
func (r *Router) Reset() {
	r.Kernel.Reset()
	for flow, p := range r.pending {
		p.timer.Stop()
		delete(r.pending, flow)
	}
}

// StartSource begins periodic JOIN QUERY floods for group, making this node
// an active multicast source. The first flood is sent immediately.
func (r *Router) StartSource(group packet.GroupID) { r.StartFlood(group) }

// StopSource halts the query floods for group.
func (r *Router) StopSource(group packet.GroupID) { r.StopFlood(group) }

// Handle processes a received ODMRP packet. It reports whether the packet
// kind belonged to ODMRP.
func (r *Router) Handle(p *packet.Packet, from packet.NodeID) bool {
	switch p.Kind {
	case packet.TypeJoinQuery:
		r.HandleFlood(p, from, false)
	case packet.TypeJoinReply:
		// Any overheard reply from our chosen upstream confirms it took
		// over propagation (passive acknowledgment).
		for _, entry := range p.Replies {
			r.confirmReplyAck(multicast.Flow{Group: p.Group, Origin: entry.Source}, p.Seq, from)
		}
		r.HandleGraft(p, from)
	case packet.TypeData:
		r.HandleData(p, from)
	default:
		return false
	}
	return true
}

// pendingReply tracks a JOIN REPLY awaiting passive acknowledgment.
type pendingReply struct {
	seq      uint32
	nextHop  packet.NodeID
	attempts int
	timer    *sim.Event
	pkt      *packet.Packet
}

// armReplyAck schedules passive-ack supervision of a sent reply. The
// confirmation is overhearing nextHop's own JOIN REPLY for the same source
// at the same (or newer) round.
func (r *Router) armReplyAck(flow multicast.Flow, seq uint32, nextHop packet.NodeID, pkt *packet.Packet) {
	if r.params.ReplyRetries <= 0 || nextHop == flow.Origin {
		// A reply whose next hop is the source itself has no downstream
		// reply to overhear; the source's data flow is the implicit ack.
		return
	}
	p := r.pending[flow]
	if p == nil || p.seq != seq {
		if p != nil {
			p.timer.Stop()
		}
		p = &pendingReply{seq: seq, nextHop: nextHop, pkt: pkt}
		r.pending[flow] = p
	}
	p.timer = r.engine.Schedule(r.params.ReplyAckTimeout, func() { r.replyAckTimeout(flow, p) })
}

func (r *Router) replyAckTimeout(flow multicast.Flow, p *pendingReply) {
	if r.pending[flow] != p {
		return // superseded
	}
	if p.attempts >= r.params.ReplyRetries {
		delete(r.pending, flow)
		return
	}
	p.attempts++
	// The clone keeps the reply's trace ID: in a trace a retransmission is a
	// second mac-tx of the same packet at this node.
	if r.Transmit(p.pkt.Clone()) {
		r.ReplyRetransmits++
	}
	p.timer = r.engine.Schedule(r.params.ReplyAckTimeout, func() { r.replyAckTimeout(flow, p) })
}

// confirmReplyAck cancels supervision when the expected upstream reply is
// overheard.
func (r *Router) confirmReplyAck(flow multicast.Flow, seq uint32, from packet.NodeID) {
	p := r.pending[flow]
	if p == nil || from != p.nextHop || seq < p.seq {
		return
	}
	p.timer.Stop()
	delete(r.pending, flow)
}
