package multicast

import (
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
	"meshcast/internal/trace"
)

// Policy is everything the flood-round kernel takes from the protocol that
// embeds it. The kernel implements the paper's §3 mechanism once — a flooded
// control packet accumulating a link-quality path cost, a δ wait before
// answering along the best-cost upstream, an α window for re-flooding
// improving duplicates, a reverse-path graft that sets forwarder flags — and
// a protocol says which packets carry it and how it is timed. The kernel
// never asks which protocol it serves.
type Policy struct {
	// FloodKind is the periodically originated, cost-accumulating flood
	// (JOIN QUERY, CORE ANNOUNCE); GraftKind the hop-by-hop answer naming an
	// upstream next hop (JOIN REPLY, TREE JOIN).
	FloodKind, GraftKind packet.Type
	// FloodInterval is the origination period of an active origin;
	// FlagTimeout how long a forwarder flag outlives the graft that set it.
	FloodInterval, FlagTimeout time.Duration
	// Delta (δ) is how long a node that wants a route collects flood copies
	// before grafting along the best one; zero grafts on the first copy.
	// Alpha (α) is the window after the first copy in which improving
	// duplicates are re-flooded; zero disables re-flooding.
	Delta, Alpha time.Duration
	// FloodJitter and GraftJitter are the maximum random delays before
	// rebroadcasting a flood and sending a graft.
	FloodJitter, GraftJitter time.Duration
	// OriginRelays says whether a flood's origin belongs to its own data
	// plane. A tree core does: it relays by role and sets its flag when a
	// graft names it, because the shared tree carries other senders' data
	// through it. A mesh source does not: the mesh is per source and
	// nothing it has not sent itself is routed through it by its own
	// flood.
	OriginRelays bool
}

// The kernel's fixed limits, the same under every policy.
const (
	// ttl bounds floods and data in hops.
	ttl = 32
	// dataJitter is the maximum random delay before relaying data.
	dataJitter = time.Millisecond
)

// KernelCounters is the kernel's part of a protocol's counter export table,
// handed to Register: every field of Stats under "<name>.", with the flood
// and graft counters named by the protocol's nouns —
// "<name>.<floodNoun>_originated", "_forwarded",
// "<name>.dup_<floodNoun>_forwarded" and "<name>.<graftNoun>_sent".
func KernelCounters(name, floodNoun, graftNoun string) []Counter {
	stat := func(what string, read func(Stats) uint64) Counter {
		return Counter{Name: name + "." + what, Read: func(pr Protocol) uint64 { return read(pr.Counters()) }}
	}
	return []Counter{
		stat(floodNoun+"_originated", func(s Stats) uint64 { return s.FloodsOriginated }),
		stat(floodNoun+"_forwarded", func(s Stats) uint64 { return s.FloodsForwarded }),
		stat("dup_"+floodNoun+"_forwarded", func(s Stats) uint64 { return s.DupFloodsForwarded }),
		stat(graftNoun+"_sent", func(s Stats) uint64 { return s.GraftsSent }),
		stat("control_bytes", func(s Stats) uint64 { return s.ControlBytesSent }),
		stat("data_originated", func(s Stats) uint64 { return s.DataOriginated }),
		stat("data_forwarded", func(s Stats) uint64 { return s.DataForwarded }),
		stat("data_delivered", func(s Stats) uint64 { return s.DataDelivered }),
		stat("dup_suppressed", func(s Stats) uint64 { return s.DataDuplicates }),
	}
}

// Flow keys per-(group, origin) state: a flood round by its origin, a data
// duplicate window by its source.
type Flow struct {
	Group  packet.GroupID
	Origin packet.NodeID
}

// round is the state of the latest flood round seen for one flow.
type round struct {
	seq       uint32
	firstSeen time.Duration
	// firstUpstream is the previous hop of the first copy received; the
	// fallback path when no copy has a usable (fully measured) cost yet.
	firstUpstream packet.NodeID
	// bestCost / bestUpstream track the best path offered by any copy of
	// this round's flood.
	bestCost     float64
	bestUpstream packet.NodeID
	// bestForwarded is the best cost this node has re-flooded for this
	// round; duplicates must beat it to be forwarded again.
	bestForwarded float64
	forwardedAny  bool
	// graftScheduled marks a pending δ timer; grafted marks that a graft
	// (own or propagated) has been sent for this round already.
	graftScheduled bool
	grafted        bool
}

// Kernel is one node's flood-round, reverse-path and data-plane machinery.
// A protocol embeds it, which supplies most of the Protocol method set, and
// adds Name, StartSource, StopSource, Handle and whatever state is its own.
type Kernel struct {
	// Send broadcasts a packet via the node's MAC; reports acceptance.
	Send func(p *packet.Packet) bool
	// OnDeliver is called for every data packet delivered to this node as
	// a group member (first copy only).
	OnDeliver func(p *packet.Packet, from packet.NodeID)
	// Tracer, when non-nil, receives the packet-journey spans of the
	// routing steps.
	Tracer *trace.Tracer
	// OnGraftSent, when non-nil, is called after the MAC accepted a graft
	// this node sent for flow's round seq toward nextHop.
	OnGraftSent func(flow Flow, seq uint32, nextHop packet.NodeID, graft *packet.Packet)
	// Stats accumulates protocol counters.
	Stats Stats

	id     packet.NodeID
	engine *sim.Engine
	rng    *sim.RNG
	policy Policy
	pm     metric.PathMetric
	table  *linkquality.Table

	members  map[packet.GroupID]bool
	floods   map[packet.GroupID]*sim.Ticker
	floodSeq map[packet.GroupID]uint32
	dataSeq  map[packet.GroupID]uint32

	rounds    map[Flow]*round
	flagUntil map[packet.GroupID]time.Duration
	dups      map[Flow]*DupWindow

	// edgeUse counts data packets carried per directed link into this node
	// (delivered or forwarded), for tree analysis.
	edgeUse map[Edge]uint64

	// sends recycles the records of jittered sends (jitterSend).
	sends []*pendingSend
}

// NewKernel creates the kernel of node id. It takes the node's one RNG
// sub-stream from the engine, so a protocol embedding it must not split
// another.
func NewKernel(engine *sim.Engine, id packet.NodeID, pm metric.PathMetric, table *linkquality.Table, policy Policy) *Kernel {
	return &Kernel{
		id:        id,
		engine:    engine,
		rng:       engine.RNG().Split(),
		policy:    policy,
		pm:        pm,
		table:     table,
		members:   make(map[packet.GroupID]bool),
		floods:    make(map[packet.GroupID]*sim.Ticker),
		floodSeq:  make(map[packet.GroupID]uint32),
		dataSeq:   make(map[packet.GroupID]uint32),
		rounds:    make(map[Flow]*round),
		flagUntil: make(map[packet.GroupID]time.Duration),
		dups:      make(map[Flow]*DupWindow),
		edgeUse:   make(map[Edge]uint64),
	}
}

// ID returns the node ID.
func (k *Kernel) ID() packet.NodeID { return k.id }

// Metric returns the path metric.
func (k *Kernel) Metric() metric.PathMetric { return k.pm }

// JoinGroup registers this node as a receiver member of group.
func (k *Kernel) JoinGroup(group packet.GroupID) { k.members[group] = true }

// LeaveGroup removes receiver membership.
func (k *Kernel) LeaveGroup(group packet.GroupID) { delete(k.members, group) }

// IsMember reports receiver membership.
func (k *Kernel) IsMember(group packet.GroupID) bool { return k.members[group] }

// IsForwarder reports whether this node currently relays data for group:
// its forwarder flag is set, or it originates the group's flood under a
// policy whose origin relays.
func (k *Kernel) IsForwarder(group packet.GroupID) bool {
	if k.policy.OriginRelays && k.Originating(group) {
		return true
	}
	return k.engine.Now() < k.flagUntil[group]
}

// SetSend installs the broadcast function (the node's MAC).
func (k *Kernel) SetSend(send func(p *packet.Packet) bool) { k.Send = send }

// SetOnDeliver installs the member delivery callback.
func (k *Kernel) SetOnDeliver(fn func(p *packet.Packet, from packet.NodeID)) { k.OnDeliver = fn }

// SetTracer installs the span tracer (nil disables).
func (k *Kernel) SetTracer(t *trace.Tracer) { k.Tracer = t }

// Counters returns the counter snapshot.
func (k *Kernel) Counters() Stats { return k.Stats }

// EdgeUse returns a copy of the per-link data usage counters.
func (k *Kernel) EdgeUse() map[Edge]uint64 {
	out := make(map[Edge]uint64, len(k.edgeUse))
	for e, n := range k.edgeUse {
		out[e] = n
	}
	return out
}

// RoundCount returns the number of live flood-round entries — the main
// soft-state table, exposed for table-size gauges.
func (k *Kernel) RoundCount() int { return len(k.rounds) }

// DupWindowCount returns the number of per-flow duplicate windows held.
func (k *Kernel) DupWindowCount() int { return len(k.dups) }

// Reset purges the kernel's soft state, modeling a node crash: flood
// rounds, forwarder flags, duplicate windows and active originations are
// discarded. Group membership survives (it is configuration, reloaded on
// restart), and so do the sequence counters: a restarted origin must not
// reuse round or data numbers its neighbors' state has already seen — real
// implementations derive them from stable storage or a clock.
func (k *Kernel) Reset() {
	for g, t := range k.floods {
		t.Stop()
		delete(k.floods, g)
	}
	k.rounds = make(map[Flow]*round)
	k.flagUntil = make(map[packet.GroupID]time.Duration)
	k.dups = make(map[Flow]*DupWindow)
}

// Originating reports whether this node is periodically flooding group.
func (k *Kernel) Originating(group packet.GroupID) bool {
	_, ok := k.floods[group]
	return ok
}

// StartFlood begins periodic flood origination for group. The first flood
// is sent immediately. Starting an active origination is a no-op.
func (k *Kernel) StartFlood(group packet.GroupID) {
	if k.Originating(group) {
		return
	}
	k.originate(group)
	k.floods[group] = sim.NewTicker(k.engine, k.policy.FloodInterval, k.policy.FloodInterval/10, k.rng,
		func() { k.originate(group) })
}

// StopFlood halts flood origination for group.
func (k *Kernel) StopFlood(group packet.GroupID) {
	if t, ok := k.floods[group]; ok {
		t.Stop()
		delete(k.floods, group)
	}
}

func (k *Kernel) originate(group packet.GroupID) {
	seq := k.floodSeq[group]
	k.floodSeq[group] = seq + 1
	f := &packet.Packet{
		Kind:    k.policy.FloodKind,
		Src:     k.id,
		PrevHop: k.id,
		Group:   group,
		Seq:     seq,
		TTL:     ttl,
		Cost:    k.pm.Initial(),
		SentAt:  k.engine.Now(),
		TraceID: k.Tracer.NewTraceID(k.id),
	}
	if k.Transmit(f) {
		k.Stats.FloodsOriginated++
		k.Tracer.Span(trace.SpanOriginate, k.id, k.id, f)
	}
}

// SendData multicasts one application payload of payloadBytes to group.
// The node must be a registered source (StartSource) for routes to exist,
// but SendData does not enforce that.
func (k *Kernel) SendData(group packet.GroupID, payloadBytes int) {
	seq := k.dataSeq[group]
	k.dataSeq[group] = seq + 1
	p := &packet.Packet{
		Kind:         packet.TypeData,
		Src:          k.id,
		PrevHop:      k.id,
		Group:        group,
		Seq:          seq,
		TTL:          ttl,
		PayloadBytes: payloadBytes,
		SentAt:       k.engine.Now(),
		TraceID:      k.Tracer.NewTraceID(k.id),
	}
	// Mark our own packet as seen so an echoed copy is not re-forwarded.
	k.dupFor(Flow{group, k.id}).Seen(seq)
	if k.Transmit(p) {
		k.Stats.DataOriginated++
		k.Tracer.Span(trace.SpanOriginate, k.id, k.id, p)
	}
}

func (k *Kernel) dupFor(flow Flow) *DupWindow {
	w, ok := k.dups[flow]
	if !ok {
		w = &DupWindow{}
		k.dups[flow] = w
	}
	return w
}

// Transmit hands p to the MAC and reports acceptance. It is the one place
// control bytes are accounted: every control packet a protocol sends —
// originated, forwarded, jittered or retransmitted — goes through it.
func (k *Kernel) Transmit(p *packet.Packet) bool {
	if k.Send == nil || !k.Send(p) {
		return false
	}
	if p.Kind != packet.TypeData {
		k.Stats.ControlBytesSent += uint64(p.SizeBytes())
	}
	return true
}

// sentKind says what a pending send records once the MAC accepts its packet.
type sentKind uint8

const (
	sentData       sentKind = iota + 1 // a relayed data copy
	sentFirstFlood                     // the first copy of a flood round relayed
	sentDupFlood                       // an improving duplicate re-flooded within α
	sentGraft                          // a graft, own or propagated
)

// pendingSend is one jittered send: the packet, and what to record once the
// MAC accepts it — the previous hop of a relayed copy, the round a graft
// answers. The kernel recycles the records and the engine fires them
// through ScheduleArgPooled, so a jittered send allocates nothing of its own.
type pendingSend struct {
	k    *Kernel
	pkt  *packet.Packet
	kind sentKind
	from packet.NodeID // previous hop of a relayed data or flood copy
	// flow, seq and nextHop are a graft's, for OnGraftSent.
	flow    Flow
	seq     uint32
	nextHop packet.NodeID
}

// jitterSend sends s after a uniform random delay in [0, jitter), at once
// when jitter is not positive. The delay is drawn and the send's sequence
// number taken here, as a Schedule at this point would have.
func (k *Kernel) jitterSend(s pendingSend, jitter time.Duration) {
	if jitter <= 0 {
		s.send()
		return
	}
	d := time.Duration(k.rng.Float64() * float64(jitter))
	var rec *pendingSend
	if last := len(k.sends) - 1; last >= 0 {
		rec = k.sends[last]
		k.sends[last] = nil
		k.sends = k.sends[:last]
	} else {
		rec = new(pendingSend)
	}
	*rec = s
	k.engine.ScheduleArgPooled(d, firePendingSend, rec)
}

// firePendingSend is the engine callback of a jittered send. The record goes
// back to its kernel's pool before the send runs.
func firePendingSend(arg any) {
	rec := arg.(*pendingSend)
	s := *rec
	*rec = pendingSend{}
	s.k.sends = append(s.k.sends, rec)
	s.send()
}

// send hands the packet to the MAC and, if it was accepted, records the send.
func (s *pendingSend) send() {
	k := s.k
	if !k.Transmit(s.pkt) {
		return
	}
	if s.kind == sentGraft {
		k.Stats.GraftsSent++
		k.Tracer.Span(trace.SpanOriginate, k.id, k.id, s.pkt)
		if k.OnGraftSent != nil {
			k.OnGraftSent(s.flow, s.seq, s.nextHop, s.pkt)
		}
		return
	}
	switch s.kind {
	case sentData:
		k.Stats.DataForwarded++
	case sentFirstFlood:
		k.Stats.FloodsForwarded++
	}
	k.Tracer.Span(trace.SpanForward, k.id, s.from, s.pkt)
}

// HandleFlood processes a received flood copy. wantsRoute makes this node
// graft toward the origin even when it is not a receiver member (a sender
// joining a shared tree). The protocol filters floods it does not accept
// before calling.
func (k *Kernel) HandleFlood(p *packet.Packet, from packet.NodeID, wantsRoute bool) {
	if p.Src == k.id {
		return // our own flood echoed back
	}
	now := k.engine.Now()
	flow := Flow{p.Group, p.Src}

	// Accumulate the cost of the link we just traversed (from → us), as
	// measured by our NEIGHBOR TABLE.
	linkCost := k.pm.LinkCost(k.table.Estimate(uint16(from), now))
	newCost := k.pm.Accumulate(p.Cost, linkCost)

	r, ok := k.rounds[flow]
	if ok && p.Seq < r.seq {
		return // stale round
	}
	first := !ok || p.Seq > r.seq
	if first {
		// A newer round overwrites the flow's record in place: only the
		// table holds a round across calls.
		if !ok {
			r = new(round)
			k.rounds[flow] = r
		}
		*r = round{
			seq:           p.Seq,
			firstSeen:     now,
			firstUpstream: from,
			bestCost:      k.pm.Worst(),
			bestForwarded: k.pm.Worst(),
		}
	}

	// Track the best candidate path for this round.
	if k.pm.Better(newCost, r.bestCost) {
		r.bestCost = newCost
		r.bestUpstream = from
	}

	// The δ timer is scheduled before any re-flood below; fixed-seed output
	// depends on that order.
	if k.members[p.Group] || wantsRoute {
		if k.policy.Delta <= 0 {
			// Original behavior: graft immediately on the first copy.
			if first {
				k.sendGraft(flow, p.Seq, from)
				r.grafted = true
			}
		} else if !r.graftScheduled {
			r.graftScheduled = true
			k.engine.Schedule(k.policy.Delta, func() {
				cur := k.rounds[flow]
				if cur == nil || cur.seq != p.Seq || cur.grafted {
					return
				}
				cur.grafted = true
				k.sendGraft(flow, p.Seq, k.upstreamOf(cur))
			})
		}
	}

	// Rebroadcast the first copy; within α, also rebroadcast duplicates
	// that improve on the best cost forwarded so far.
	if p.TTL <= 1 {
		return
	}
	wasFirst := !r.forwardedAny
	if !wasFirst {
		if k.policy.Alpha <= 0 || now > r.firstSeen+k.policy.Alpha || !k.pm.Better(newCost, r.bestForwarded) {
			return
		}
		k.Stats.DupFloodsForwarded++
	}
	r.forwardedAny = true
	r.bestForwarded = newCost

	fwd := p.Clone()
	fwd.PrevHop = k.id
	fwd.Cost = newCost
	fwd.HopCount = p.HopCount + 1
	fwd.TTL = p.TTL - 1
	kind := sentDupFlood
	if wasFirst {
		kind = sentFirstFlood
	}
	k.jitterSend(pendingSend{k: k, pkt: fwd, kind: kind, from: from}, k.policy.FloodJitter)
}

// upstreamOf returns the next hop toward the origin for a round: the
// best-cost upstream when a usable (fully measured) path was seen, otherwise
// the first copy's upstream (the original behavior), which keeps routes
// bootstrapping while probes warm up.
func (k *Kernel) upstreamOf(r *round) packet.NodeID {
	if k.pm.Usable(r.bestCost) {
		return r.bestUpstream
	}
	return r.firstUpstream
}

// sendGraft broadcasts a graft naming nextHop as the upstream relay toward
// flow's origin for round seq.
func (k *Kernel) sendGraft(flow Flow, seq uint32, nextHop packet.NodeID) {
	if nextHop == k.id {
		return
	}
	graft := &packet.Packet{
		Kind:    k.policy.GraftKind,
		Src:     k.id,
		PrevHop: k.id,
		Group:   flow.Group,
		Seq:     seq,
		SentAt:  k.engine.Now(),
		Replies: []packet.ReplyEntry{{Source: flow.Origin, NextHop: nextHop}},
		TraceID: k.Tracer.NewTraceID(k.id),
	}
	k.jitterSend(pendingSend{k: k, pkt: graft, kind: sentGraft, flow: flow, seq: seq, nextHop: nextHop}, k.policy.GraftJitter)
}

// HandleGraft processes a received graft: for every entry naming this node
// as next hop it refreshes the forwarder flag and then propagates its own
// graft one hop further toward the origin, once per round. Fixed-seed
// output depends on the refresh preceding the propagation.
func (k *Kernel) HandleGraft(p *packet.Packet, from packet.NodeID) {
	for _, entry := range p.Replies {
		if entry.NextHop != k.id {
			continue
		}
		reached := entry.Source == k.id // the branch is complete
		if reached && !k.policy.OriginRelays {
			continue
		}
		now := k.engine.Now()
		if until := now + k.policy.FlagTimeout; until > k.flagUntil[p.Group] {
			if now >= k.flagUntil[p.Group] {
				k.Tracer.Span(trace.SpanFlagSet, k.id, from, p)
			}
			k.flagUntil[p.Group] = until
		}
		if reached {
			continue
		}
		flow := Flow{p.Group, entry.Source}
		r := k.rounds[flow]
		if r == nil || r.grafted {
			continue
		}
		r.grafted = true
		k.sendGraft(flow, r.seq, k.upstreamOf(r))
	}
}

// HandleData processes a received data packet: suppress duplicates, deliver
// to a member, relay as a forwarder, and record the edge it arrived over.
func (k *Kernel) HandleData(p *packet.Packet, from packet.NodeID) {
	if p.Src == k.id {
		return
	}
	if k.dupFor(Flow{p.Group, p.Src}).Seen(p.Seq) {
		k.Stats.DataDuplicates++
		k.Tracer.Span(trace.SpanDupSuppress, k.id, from, p)
		return
	}
	carried := false
	if k.members[p.Group] {
		k.Stats.DataDelivered++
		carried = true
		k.Tracer.Span(trace.SpanDeliver, k.id, from, p)
		if k.OnDeliver != nil {
			k.OnDeliver(p, from)
		}
	}
	if k.IsForwarder(p.Group) && p.TTL > 1 {
		fwd := p.Clone()
		fwd.PrevHop = k.id
		fwd.HopCount = p.HopCount + 1
		fwd.TTL = p.TTL - 1
		carried = true
		k.jitterSend(pendingSend{k: k, pkt: fwd, kind: sentData, from: from}, dataJitter)
	}
	if carried {
		k.edgeUse[Edge{From: from, To: k.id}]++
	}
}
