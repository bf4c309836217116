package multicasttest

import (
	"testing"
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// The paper's timing, which both in-tree protocols default to.
const (
	defaultDelta = 30 * time.Millisecond
	defaultAlpha = 20 * time.Millisecond
	defaultTTL   = 32
)

// Harness describes one protocol to the kernel conformance behaviours. Every
// behaviour is a method taking *testing.T; a protocol package calls each
// from a test of its own.
type Harness struct {
	// New builds an instance with the protocol's default parameters except
	// δ, α and the TTL, which the behaviours vary.
	New func(engine *sim.Engine, id packet.NodeID, pm metric.PathMetric, table *linkquality.Table,
		delta, alpha time.Duration, ttl uint8) multicast.Protocol
	// FloodKind is the protocol's flood packet, for crafted stale rounds.
	FloodKind packet.Type
	// FlagTimeout is the protocol's default forwarder-flag lifetime.
	FlagTimeout time.Duration
}

// net is a Net whose nodes all run the harness's protocol.
type net struct {
	*Net
	h     Harness
	kind  metric.Kind
	delta time.Duration
	alpha time.Duration
	ttl   uint8
}

func (h Harness) net(seed uint64, kind metric.Kind, delta, alpha time.Duration, ttl uint8) *net {
	return &net{Net: NewNet(seed), h: h, kind: kind, delta: delta, alpha: alpha, ttl: ttl}
}

func (h Harness) defaultNet(seed uint64) *net {
	return h.net(seed, metric.SPP, defaultDelta, defaultAlpha, defaultTTL)
}

func (n *net) add(id packet.NodeID) multicast.Protocol {
	table := NewTable()
	p := n.h.New(n.Engine, id, metric.MustNew(n.kind), table, n.delta, n.alpha, n.ttl)
	n.Attach(p, table)
	return p
}

// chain builds S(0) — F(1) — M(2) over clean links.
func (n *net) chain() (s, fw, m multicast.Protocol) {
	s, fw, m = n.add(0), n.add(1), n.add(2)
	n.Connect(0, 1, time.Millisecond, 0.9, 0.9)
	n.Connect(1, 2, time.Millisecond, 0.9, 0.9)
	return s, fw, m
}

// counter installs a delivery callback on p counting packets accepted by
// keep (nil keeps all) and returns the count.
func counter(p multicast.Protocol, keep func(*packet.Packet) bool) *int {
	n := new(int)
	p.SetOnDeliver(func(pkt *packet.Packet, _ packet.NodeID) {
		if keep == nil || keep(pkt) {
			*n++
		}
	})
	return n
}

// refloodNet builds S(0) — {X(1), Y(2)} — F(3) — M(4): F first hears the
// flood along the lossy branch via X, then cleanDelay later along the clean
// branch via Y.
func (h Harness) refloodNet(delta, alpha, cleanDelay time.Duration) (n *net, s, y, fw multicast.Protocol) {
	n = h.net(4, metric.SPP, delta, alpha, defaultTTL)
	s = n.add(0)
	n.add(1)
	y = n.add(2)
	fw = n.add(3)
	m := n.add(4)
	n.Connect(0, 1, time.Millisecond, 1, 1)
	n.Connect(0, 2, time.Millisecond, 1, 1)
	n.Connect(1, 3, time.Millisecond, 0.5, 0.5) // lossy, fast overall
	n.Connect(2, 3, cleanDelay, 0.9, 0.9)       // clean, later
	n.Connect(3, 4, time.Millisecond, 0.9, 0.9)
	m.JoinGroup(1)
	return n, s, y, fw
}

// RefloodWithinAlpha: a duplicate that improves on the forwarded cost and
// arrives within α of the first copy is re-flooded, and the member learns
// the better path through it.
func (h Harness) RefloodWithinAlpha(t *testing.T) {
	n, s, y, fw := h.refloodNet(50*time.Millisecond, 20*time.Millisecond, 10*time.Millisecond)
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	n.Engine.Run(time.Second)
	if fw.Counters().DupFloodsForwarded == 0 {
		t.Fatal("improving duplicate within α was not re-forwarded")
	}
	// The member should have learned the better cost via the duplicate.
	if !y.IsForwarder(1) {
		t.Fatal("clean relay Y should be on the selected path")
	}
}

// NoRefloodBeyondAlpha: the same improving duplicate arriving after α has
// closed is not re-flooded.
func (h Harness) NoRefloodBeyondAlpha(t *testing.T) {
	n, s, _, fw := h.refloodNet(100*time.Millisecond, 5*time.Millisecond, 30*time.Millisecond)
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	n.Engine.Run(time.Second)
	if got := fw.Counters().DupFloodsForwarded; got != 0 {
		t.Fatalf("duplicate beyond α forwarded %d times, want 0", got)
	}
}

// StaleRoundIgnored: a flood older than the round already seen is not
// forwarded — not even as an improving duplicate inside α — and does not
// regress the round.
func (h Harness) StaleRoundIgnored(t *testing.T) {
	n := h.defaultNet(5)
	r := n.add(1)
	n.tables[1].SetStatic(0, metric.LinkEstimate{DeliveryProb: 0.5})
	n.tables[1].SetStatic(7, metric.LinkEstimate{DeliveryProb: 0.9})
	sent := 0
	r.SetSend(func(*packet.Packet) bool { sent++; return true })
	flood := func(seq uint32) *packet.Packet {
		return &packet.Packet{Kind: h.FloodKind, Src: 0, PrevHop: 0, Group: 1, Seq: seq, TTL: 8, Cost: r.Metric().Initial()}
	}
	// The stale copy arrives at once, over a better link: were it taken for
	// a copy of round 5 it would be re-flooded.
	r.Handle(flood(5), 0)
	r.Handle(flood(3), 7)
	n.Engine.Run(time.Second)
	if sent != 1 {
		t.Fatalf("round 5 then stale round 3: %d floods forwarded, want 1", sent)
	}
	// Had the stale copy regressed the round to 3, seq 4 would now count as
	// a new round and be forwarded.
	r.Handle(flood(4), 0)
	n.Engine.Run(2 * time.Second)
	if sent != 1 || r.RoundCount() != 1 {
		t.Fatalf("stale flood regressed the round: %d sends, %d rounds", sent, r.RoundCount())
	}
}

// FloodTTLBound: a flood dies where its TTL runs out.
func (h Harness) FloodTTLBound(t *testing.T) {
	n := h.net(6, metric.SPP, defaultDelta, defaultAlpha, 3)
	var nodes []multicast.Protocol
	for i := packet.NodeID(0); i < 5; i++ {
		nodes = append(nodes, n.add(i))
	}
	for i := packet.NodeID(0); i < 4; i++ {
		n.Connect(i, i+1, time.Millisecond, 0.9, 0.9)
	}
	nodes[4].JoinGroup(1)
	n.Engine.Schedule(0, func() { nodes[0].StartSource(1) })
	n.Engine.Run(time.Second)
	// TTL 3: the flood reaches nodes 1, 2, 3; node 3 must not forward.
	if nodes[3].Counters().FloodsForwarded != 0 {
		t.Fatal("node at TTL boundary forwarded the flood")
	}
	if nodes[3].RoundCount() != 1 || nodes[4].RoundCount() != 0 {
		t.Fatal("flood escaped the TTL bound")
	}
}

// DataTTLBound: a data packet dies where its TTL runs out, even along a
// chain of forwarders.
func (h Harness) DataTTLBound(t *testing.T) {
	n := h.defaultNet(13)
	var nodes []multicast.Protocol
	for i := packet.NodeID(0); i < 6; i++ {
		nodes = append(nodes, n.add(i))
	}
	for i := packet.NodeID(0); i < 5; i++ {
		n.Connect(i, i+1, time.Millisecond, 0.9, 0.9)
	}
	nodes[5].JoinGroup(1)
	n.Engine.Schedule(0, func() { nodes[0].StartSource(1) })
	n.Engine.Run(time.Second)
	for i, r := range nodes[1:5] {
		if !r.IsForwarder(1) {
			t.Fatalf("precondition: node %d is not a forwarder", i+1)
		}
	}
	delivered := counter(nodes[5], nil)
	// SendData uses the configured TTL; craft a low-TTL packet instead.
	low := &packet.Packet{
		Kind: packet.TypeData, Src: 0, PrevHop: 0, Group: 1, Seq: 999,
		TTL: 3, PayloadBytes: 64, SentAt: n.Engine.Now(),
	}
	n.Engine.Schedule(0, func() { n.Broadcast(0, low) })
	n.Engine.Run(n.Engine.Now() + time.Second)
	if *delivered != 0 {
		t.Fatalf("TTL-3 data crossed a 5-hop chain")
	}
	// Node 3 received it with TTL 1 and must not have forwarded it.
	if nodes[3].Counters().DataForwarded != 0 || nodes[4].Counters().DataDuplicates != 0 {
		t.Fatal("data forwarded past its TTL")
	}
}

// selectionDiamond builds S(0) — {A(1), B(2)} — M(3) where the path via B is
// fast and lossy and the path via A slow and clean.
func (n *net) selectionDiamond() (s, a, b multicast.Protocol) {
	s, a, b = n.add(0), n.add(1), n.add(2)
	m := n.add(3)
	n.Connect(0, 1, 2*time.Millisecond, 0.9, 0.9) // slow, clean
	n.Connect(1, 3, 2*time.Millisecond, 0.9, 0.9)
	n.Connect(0, 2, time.Millisecond, 0.5, 0.5) // fast, lossy
	n.Connect(2, 3, time.Millisecond, 0.5, 0.5)
	m.JoinGroup(1)
	return s, a, b
}

// BestPathAfterDelta: with the δ wait the member grafts along the clean
// path although the lossy one delivered the flood first.
func (h Harness) BestPathAfterDelta(t *testing.T) {
	n := h.defaultNet(3)
	s, a, b := n.selectionDiamond()
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	n.Engine.Run(time.Second)
	if !a.IsForwarder(1) {
		t.Fatal("clean relay A should hold the forwarder flag under SPP")
	}
	if b.IsForwarder(1) {
		t.Fatal("lossy relay B should not hold the forwarder flag under SPP")
	}
}

// FirstCopyAtZeroDelta: with δ = 0 and α = 0 (the original protocol) the
// member grafts along the first copy, which travels the fast lossy path.
func (h Harness) FirstCopyAtZeroDelta(t *testing.T) {
	n := h.net(3, metric.MinHop, 0, 0, defaultTTL)
	s, a, b := n.selectionDiamond()
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	n.Engine.Run(time.Second)
	if !b.IsForwarder(1) {
		t.Fatal("first-copy mode should route along the first (fast) copy via B")
	}
	if a.IsForwarder(1) {
		t.Fatal("first-copy mode should not select the slower relay A")
	}
}

// WarmupFallback: with every link unmeasured, metric costs are unusable and
// routes must still bootstrap along first-copy paths — whether the metric's
// unusable cost still beats its worst (SPP) or not (ETX), in which case no
// best upstream is ever recorded.
func (h Harness) WarmupFallback(t *testing.T) {
	for _, kind := range []metric.Kind{metric.SPP, metric.ETX} {
		n := h.net(7, kind, defaultDelta, defaultAlpha, defaultTTL)
		s, fw, m := n.add(0), n.add(1), n.add(2)
		n.Link(0, 1, time.Millisecond)
		n.Link(1, 2, time.Millisecond)
		m.JoinGroup(1)
		delivered := counter(m, nil)
		n.Engine.Schedule(0, func() { s.StartSource(1) })
		n.Engine.Run(time.Second)
		if !fw.IsForwarder(1) {
			t.Fatalf("%v: warmup fallback did not establish the forwarding state", kind)
		}
		n.Engine.Schedule(0, func() { s.SendData(1, 512) })
		n.Engine.Run(n.Engine.Now() + time.Second)
		if *delivered != 1 {
			t.Fatalf("%v: delivered = %d, want 1", kind, *delivered)
		}
	}
}

// FlagExpires: once floods stop, the forwarder flag lapses after
// FlagTimeout and data no longer crosses the relay.
func (h Harness) FlagExpires(t *testing.T) {
	n := h.defaultNet(1)
	s, fw, m := n.chain()
	m.JoinGroup(1)
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	n.Engine.Run(time.Second)
	if !fw.IsForwarder(1) {
		t.Fatal("forwarder flag not set")
	}
	s.StopSource(1)
	n.Engine.Run(n.Engine.Now() + h.FlagTimeout + time.Second)
	if fw.IsForwarder(1) {
		t.Fatal("forwarder flag did not expire")
	}
	delivered := counter(m, nil)
	n.Engine.Schedule(0, func() { s.SendData(1, 512) })
	n.Engine.Run(n.Engine.Now() + time.Second)
	if *delivered != 0 {
		t.Fatalf("data delivered through expired forwarding state")
	}
}

// FlagRefreshExtends: across several refresh periods the flag stays
// continuously set although each individual grant would have expired.
func (h Harness) FlagRefreshExtends(t *testing.T) {
	n := h.defaultNet(1)
	s, fw, m := n.chain()
	m.JoinGroup(1)
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	for at := time.Second; at < 4*h.FlagTimeout; at += time.Second {
		n.Engine.Run(at)
		if n.Engine.Now() > h.FlagTimeout && !fw.IsForwarder(1) {
			t.Fatalf("forwarder flag lapsed at %v despite periodic refreshes", n.Engine.Now())
		}
	}
}

// OwnEchoIgnored: a source that is also a member neither delivers its own
// packets to itself nor counts their echo as a duplicate.
func (h Harness) OwnEchoIgnored(t *testing.T) {
	n := h.defaultNet(1)
	s, _, m := n.chain()
	s.JoinGroup(1)
	m.JoinGroup(1)
	own := counter(s, func(p *packet.Packet) bool { return p.Src == s.ID() })
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	n.Engine.Run(time.Second)
	n.Engine.Schedule(0, func() { s.SendData(1, 512) })
	n.Engine.Run(n.Engine.Now() + time.Second)
	if *own != 0 {
		t.Fatalf("source delivered %d of its own packets", *own)
	}
	if got := s.Counters().DataDuplicates; got != 0 {
		t.Fatalf("echoed own packet counted as duplicate: %d", got)
	}
}
