package multicast_test

// Kernel conformance: every registered protocol, built by the registry with
// its own defaults, shows the flood-round kernel's behaviours on
// multicasttest.Net, a lossless network whose link delays and qualities the
// test sets. A newly registered protocol is held to them with no code of
// its own.

import (
	"testing"
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/multicast/multicasttest"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

func TestKernelConformance(t *testing.T) {
	behaviours := []struct {
		name string
		run  func(t *testing.T, protocol string)
	}{
		{"RefloodWithinAlpha", refloodWithinAlpha},
		{"NoRefloodBeyondAlpha", noRefloodBeyondAlpha},
		{"StaleRoundIgnored", staleRoundIgnored},
		{"FloodTTLBound", floodTTLBound},
		{"DataTTLBound", dataTTLBound},
		{"BestPathAfterDelta", bestPathAfterDelta},
		{"FirstCopyAtZeroDelta", firstCopyAtZeroDelta},
		{"WarmupFallback", warmupFallback},
		{"FlagExpires", flagExpires},
		{"FlagRefreshExtends", flagRefreshExtends},
		{"OwnEchoIgnored", ownEchoIgnored},
	}
	for _, protocol := range multicast.Names() {
		t.Run(protocol, func(t *testing.T) {
			for _, b := range behaviours {
				t.Run(b.name, func(t *testing.T) { b.run(t, protocol) })
			}
		})
	}
}

// TestTimingFollowsMetric: each protocol's registry default grafts on the
// first copy and never re-floods under MinHop, and waits δ = 30 ms with an
// α = 20 ms window under every link-quality metric (paper §4.1).
func TestTimingFollowsMetric(t *testing.T) {
	for _, protocol := range multicast.Names() {
		for _, kind := range metric.All() {
			p := newProtocol(t, protocol, sim.NewEngine(1), 1, kind, multicasttest.NewTable())
			pol := multicast.PolicyOf(p)
			delta, alpha := 30*time.Millisecond, 20*time.Millisecond
			if kind == metric.MinHop {
				delta, alpha = 0, 0
			}
			if pol.Delta != delta || pol.Alpha != alpha {
				t.Errorf("%s under %v: δ = %v, α = %v; want %v, %v", protocol, kind, pol.Delta, pol.Alpha, delta, alpha)
			}
		}
	}
}

func newProtocol(t *testing.T, protocol string, engine *sim.Engine, id packet.NodeID, kind metric.Kind,
	table *linkquality.Table) multicast.Protocol {
	t.Helper()
	p, err := multicast.New(protocol, multicast.Env{Engine: engine, ID: id, Metric: metric.MustNew(kind), Table: table}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// net is a multicasttest.Net whose nodes all run one protocol under one
// metric.
type net struct {
	*multicasttest.Net
	t        *testing.T
	protocol string
	kind     metric.Kind
}

func newNet(t *testing.T, protocol string, seed uint64, kind metric.Kind) *net {
	return &net{Net: multicasttest.NewNet(seed), t: t, protocol: protocol, kind: kind}
}

func (n *net) add(id packet.NodeID) multicast.Protocol {
	table := multicasttest.NewTable()
	p := newProtocol(n.t, n.protocol, n.Engine, id, n.kind, table)
	n.Attach(p, table)
	return p
}

// line builds nodes 0 … count-1 in a row over clean links.
func (n *net) line(count int) []multicast.Protocol {
	nodes := make([]multicast.Protocol, count)
	for i := range nodes {
		nodes[i] = n.add(packet.NodeID(i))
		if i > 0 {
			n.Connect(packet.NodeID(i-1), packet.NodeID(i), time.Millisecond, 0.9, 0.9)
		}
	}
	return nodes
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

// refloodNet builds S(0) — {X(1), Y(2)} — F(3) — M(4), starts S's flood and
// runs a second: F first hears the flood along the lossy branch via X, then
// cleanDelay later along the clean branch via Y. The protocols' α is 20 ms.
func refloodNet(t *testing.T, protocol string, cleanDelay time.Duration) (y, fw multicast.Protocol) {
	n := newNet(t, protocol, 4, metric.SPP)
	s := n.add(0)
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
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	n.Engine.Run(time.Second)
	return y, fw
}

// refloodWithinAlpha: a duplicate that improves on the forwarded cost and
// arrives within α of the first copy is re-flooded, and the member learns
// the better path through it.
func refloodWithinAlpha(t *testing.T, protocol string) {
	y, fw := refloodNet(t, protocol, 10*time.Millisecond)
	if fw.Counters().DupFloodsForwarded == 0 {
		t.Fatal("improving duplicate within α was not re-forwarded")
	}
	if !y.IsForwarder(1) {
		t.Fatal("clean relay Y should be on the selected path")
	}
}

// noRefloodBeyondAlpha: the same improving duplicate arriving after α has
// closed is not re-flooded.
func noRefloodBeyondAlpha(t *testing.T, protocol string) {
	_, fw := refloodNet(t, protocol, 30*time.Millisecond)
	if got := fw.Counters().DupFloodsForwarded; got != 0 {
		t.Fatalf("duplicate beyond α forwarded %d times, want 0", got)
	}
}

// staleRoundIgnored: a flood older than the round already seen is not
// forwarded — not even as an improving duplicate inside α — and does not
// regress the round.
func staleRoundIgnored(t *testing.T, protocol string) {
	engine := sim.NewEngine(5)
	table := multicasttest.NewTable()
	table.SetStatic(0, metric.LinkEstimate{DeliveryProb: 0.5})
	table.SetStatic(7, metric.LinkEstimate{DeliveryProb: 0.9})
	r := newProtocol(t, protocol, engine, 1, metric.SPP, table)
	sent := 0
	r.SetSend(func(*packet.Packet) bool { sent++; return true })
	flood := func(seq uint32) *packet.Packet {
		return &packet.Packet{Kind: multicast.PolicyOf(r).FloodKind, Src: 0, PrevHop: 0, Group: 1, Seq: seq, TTL: 8,
			Cost: r.Metric().Initial()}
	}
	// The stale copy arrives at once, over a better link: were it taken for
	// a copy of round 5 it would be re-flooded.
	r.Handle(flood(5), 0)
	r.Handle(flood(3), 7)
	engine.Run(time.Second)
	if sent != 1 {
		t.Fatalf("round 5 then stale round 3: %d floods forwarded, want 1", sent)
	}
	// Had the stale copy regressed the round to 3, seq 4 would now count as
	// a new round and be forwarded.
	r.Handle(flood(4), 0)
	engine.Run(2 * time.Second)
	if sent != 1 || r.RoundCount() != 1 {
		t.Fatalf("stale flood regressed the round: %d sends, %d rounds", sent, r.RoundCount())
	}
}

// floodTTLBound: a flood dies where its TTL runs out.
func floodTTLBound(t *testing.T, protocol string) {
	n := newNet(t, protocol, 6, metric.SPP)
	nodes := n.line(5)
	nodes[4].JoinGroup(1)
	// Origination uses the kernel's TTL; craft a TTL-3 flood instead.
	low := &packet.Packet{Kind: multicast.PolicyOf(nodes[0]).FloodKind, Src: 0, PrevHop: 0, Group: 1, TTL: 3,
		Cost: nodes[0].Metric().Initial()}
	n.Engine.Schedule(0, func() { n.Broadcast(0, low) })
	n.Engine.Run(time.Second)
	// TTL 3: the flood reaches nodes 1, 2, 3; node 3 must not forward.
	if nodes[3].Counters().FloodsForwarded != 0 {
		t.Fatal("node at TTL boundary forwarded the flood")
	}
	if nodes[3].RoundCount() != 1 || nodes[4].RoundCount() != 0 {
		t.Fatal("flood escaped the TTL bound")
	}
}

// dataTTLBound: a data packet dies where its TTL runs out, even along a
// chain of forwarders.
func dataTTLBound(t *testing.T, protocol string) {
	n := newNet(t, protocol, 13, metric.SPP)
	nodes := n.line(6)
	nodes[5].JoinGroup(1)
	n.Engine.Schedule(0, func() { nodes[0].StartSource(1) })
	n.Engine.Run(time.Second)
	for i, r := range nodes[1:5] {
		if !r.IsForwarder(1) {
			t.Fatalf("precondition: node %d is not a forwarder", i+1)
		}
	}
	delivered := counter(nodes[5], nil)
	// SendData uses the kernel's TTL; craft a TTL-3 packet instead.
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

// selectionDiamond builds S(0) — {A(1), B(2)} — M(3), where the path via B
// is fast and lossy and the path via A slow and clean, and runs S's flood
// for a second.
func selectionDiamond(t *testing.T, protocol string, kind metric.Kind) (a, b multicast.Protocol) {
	n := newNet(t, protocol, 3, kind)
	s, a, b, m := n.add(0), n.add(1), n.add(2), n.add(3)
	n.Connect(0, 1, 2*time.Millisecond, 0.9, 0.9) // slow, clean
	n.Connect(1, 3, 2*time.Millisecond, 0.9, 0.9)
	n.Connect(0, 2, time.Millisecond, 0.5, 0.5) // fast, lossy
	n.Connect(2, 3, time.Millisecond, 0.5, 0.5)
	m.JoinGroup(1)
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	n.Engine.Run(time.Second)
	return a, b
}

// bestPathAfterDelta: with the δ wait the member grafts along the clean
// path although the lossy one delivered the flood first.
func bestPathAfterDelta(t *testing.T, protocol string) {
	a, b := selectionDiamond(t, protocol, metric.SPP)
	if !a.IsForwarder(1) {
		t.Fatal("clean relay A should hold the forwarder flag under SPP")
	}
	if b.IsForwarder(1) {
		t.Fatal("lossy relay B should not hold the forwarder flag under SPP")
	}
}

// firstCopyAtZeroDelta: under MinHop, where δ = 0 and α = 0 (the original
// protocol), the member grafts along the first copy, which travels the
// fast lossy path.
func firstCopyAtZeroDelta(t *testing.T, protocol string) {
	a, b := selectionDiamond(t, protocol, metric.MinHop)
	if !b.IsForwarder(1) {
		t.Fatal("first-copy mode should route along the first (fast) copy via B")
	}
	if a.IsForwarder(1) {
		t.Fatal("first-copy mode should not select the slower relay A")
	}
}

// warmupFallback: with every link unmeasured, metric costs are unusable and
// routes must still bootstrap along first-copy paths — whether the metric's
// unusable cost still beats its worst (SPP) or not (ETX), in which case no
// best upstream is ever recorded.
func warmupFallback(t *testing.T, protocol string) {
	for _, kind := range []metric.Kind{metric.SPP, metric.ETX} {
		n := newNet(t, protocol, 7, kind)
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

// chain builds S(0) — F(1) — M(2) over clean links, M a member, and starts
// S's flood.
func chain(t *testing.T, protocol string) (n *net, s, fw, m multicast.Protocol) {
	n = newNet(t, protocol, 1, metric.SPP)
	nodes := n.line(3)
	s, fw, m = nodes[0], nodes[1], nodes[2]
	m.JoinGroup(1)
	n.Engine.Schedule(0, func() { s.StartSource(1) })
	return n, s, fw, m
}

// flagExpires: once floods stop, the forwarder flag lapses after the
// policy's FlagTimeout and data no longer crosses the relay.
func flagExpires(t *testing.T, protocol string) {
	n, s, fw, m := chain(t, protocol)
	n.Engine.Run(time.Second)
	if !fw.IsForwarder(1) {
		t.Fatal("forwarder flag not set")
	}
	s.StopSource(1)
	n.Engine.Run(n.Engine.Now() + multicast.PolicyOf(fw).FlagTimeout + time.Second)
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

// flagRefreshExtends: across several refresh periods the flag stays
// continuously set although each individual grant would have expired.
func flagRefreshExtends(t *testing.T, protocol string) {
	n, _, fw, _ := chain(t, protocol)
	timeout := multicast.PolicyOf(fw).FlagTimeout
	for at := time.Second; at < 4*timeout; at += time.Second {
		n.Engine.Run(at)
		if n.Engine.Now() > timeout && !fw.IsForwarder(1) {
			t.Fatalf("forwarder flag lapsed at %v despite periodic refreshes", n.Engine.Now())
		}
	}
}

// ownEchoIgnored: a source that is also a member neither delivers its own
// packets to itself nor counts their echo as a duplicate.
func ownEchoIgnored(t *testing.T, protocol string) {
	n, s, _, _ := chain(t, protocol)
	s.JoinGroup(1)
	own := counter(s, func(p *packet.Packet) bool { return p.Src == s.ID() })
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
