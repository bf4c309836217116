package odmrp

import (
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/multicast/multicasttest"
	"meshcast/internal/packet"
)

// fakeNet is the shared lossless test network building ODMRP routers.
type fakeNet struct{ *multicasttest.Net }

func newFakeNet(seed uint64) *fakeNet { return &fakeNet{multicasttest.NewNet(seed)} }

// addNode creates a router with the given metric and params.
func (f *fakeNet) addNode(id packet.NodeID, kind metric.Kind, params Params) *Router {
	table := multicasttest.NewTable()
	r := New(f.Engine, id, metric.MustNew(kind), table, params)
	f.Attach(r, table)
	return r
}

// chain builds S(0) — F(1) — M(2) and runs one query round.
func chain(t *testing.T, kind metric.Kind, params Params) (*fakeNet, *Router, *Router, *Router) {
	t.Helper()
	f := newFakeNet(1)
	s := f.addNode(0, kind, params)
	fw := f.addNode(1, kind, params)
	m := f.addNode(2, kind, params)
	f.Connect(0, 1, time.Millisecond, 0.9, 0.9)
	f.Connect(1, 2, time.Millisecond, 0.9, 0.9)
	return f, s, fw, m
}

func TestTreeFormationChain(t *testing.T) {
	for _, kind := range metric.All() {
		t.Run(kind.String(), func(t *testing.T) {
			params := DefaultParams()
			if kind == metric.MinHop {
				params = OriginalParams()
			}
			f, s, fw, m := chain(t, kind, params)
			m.JoinGroup(1)
			f.Engine.Schedule(0, func() { s.StartSource(1) })
			f.Engine.Run(time.Second)
			if !fw.IsForwarder(1) {
				t.Fatal("middle node did not acquire the FG flag")
			}
			if m.IsForwarder(1) {
				t.Fatal("leaf member should not be a forwarder")
			}
			delivered := 0
			m.OnDeliver = func(*packet.Packet, packet.NodeID) { delivered++ }
			f.Engine.Schedule(0, func() { s.SendData(1, 512) })
			f.Engine.Run(2 * time.Second)
			if delivered != 1 {
				t.Fatalf("delivered = %d, want 1", delivered)
			}
			if fw.Stats.DataForwarded != 1 {
				t.Fatalf("forwarder forwarded %d, want 1", fw.Stats.DataForwarded)
			}
		})
	}
}

func TestDataDuplicateSuppression(t *testing.T) {
	// Diamond S(0) — {A(1), B(2)} — M(3): if both relays hold the FG flag,
	// M receives two copies but delivers once.
	f := newFakeNet(2)
	params := DefaultParams()
	s := f.addNode(0, metric.SPP, params)
	a := f.addNode(1, metric.SPP, params)
	b := f.addNode(2, metric.SPP, params)
	m := f.addNode(3, metric.SPP, params)
	f.Connect(0, 1, time.Millisecond, 0.9, 0.9)
	f.Connect(0, 2, time.Millisecond, 0.9, 0.9)
	f.Connect(1, 3, time.Millisecond, 0.9, 0.9)
	f.Connect(2, 3, time.Millisecond, 0.9, 0.9)
	m.JoinGroup(1)
	// Force both relays into the forwarding group.
	f.Engine.Schedule(0, func() { s.StartSource(1) })
	f.Engine.Run(time.Second)
	for _, relay := range []*Router{a, b} {
		relay.Handle(&packet.Packet{
			Kind: packet.TypeJoinReply, Src: 3, Group: 1,
			Replies: []packet.ReplyEntry{{Source: 9, NextHop: relay.ID()}},
		}, 3)
		if !relay.IsForwarder(1) {
			t.Fatal("a reply naming the relay did not set its FG flag")
		}
	}
	delivered := 0
	m.OnDeliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	f.Engine.Schedule(0, func() { s.SendData(1, 512) })
	f.Engine.Run(2 * time.Second)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want exactly 1 (duplicate suppression)", delivered)
	}
	if m.Stats.DataDuplicates == 0 {
		t.Fatal("expected the second copy to be counted as duplicate")
	}
}

func TestNonForwarderDoesNotForwardData(t *testing.T) {
	f, s, fw, m := chain(t, metric.SPP, DefaultParams())
	// No membership, no query flood: nothing should be forwarded.
	f.Engine.Schedule(0, func() { s.SendData(1, 512) })
	f.Engine.Run(time.Second)
	if fw.Stats.DataForwarded != 0 {
		t.Fatal("non-FG node forwarded data")
	}
	if m.Stats.DataDelivered != 0 {
		t.Fatal("non-member delivered data")
	}
}

func TestEdgeUseRecordsTree(t *testing.T) {
	f, s, fw, m := chain(t, metric.SPP, DefaultParams())
	m.JoinGroup(1)
	f.Engine.Schedule(0, func() { s.StartSource(1) })
	f.Engine.Run(time.Second)
	for i := 0; i < 5; i++ {
		f.Engine.Schedule(time.Duration(i)*50*time.Millisecond, func() { s.SendData(1, 512) })
	}
	f.Engine.Run(f.Engine.Now() + time.Second)
	fwUse := fw.EdgeUse()
	if fwUse[Edge{From: 0, To: 1}] != 5 {
		t.Fatalf("edge S->F use = %d, want 5", fwUse[Edge{From: 0, To: 1}])
	}
	mUse := m.EdgeUse()
	if mUse[Edge{From: 1, To: 2}] != 5 {
		t.Fatalf("edge F->M use = %d, want 5", mUse[Edge{From: 1, To: 2}])
	}
}

func TestMultipleSourcesShareForwardingGroup(t *testing.T) {
	// §4.3: forwarding groups are per group, not per source. A node made a
	// forwarder by source A's query also forwards source B's data.
	f := newFakeNet(8)
	params := DefaultParams()
	s1 := f.addNode(0, metric.SPP, params)
	fw := f.addNode(1, metric.SPP, params)
	m := f.addNode(2, metric.SPP, params)
	s2 := f.addNode(3, metric.SPP, params)
	f.Connect(0, 1, time.Millisecond, 0.9, 0.9)
	f.Connect(1, 2, time.Millisecond, 0.9, 0.9)
	f.Connect(3, 1, time.Millisecond, 0.9, 0.9) // s2 also adjacent to fw
	m.JoinGroup(1)
	f.Engine.Schedule(0, func() { s1.StartSource(1) })
	f.Engine.Run(time.Second)
	if !fw.IsForwarder(1) {
		t.Fatal("FG flag not set by source 1's flood")
	}
	// Source 2 never flooded a query, yet its data flows through the FG.
	delivered := 0
	m.OnDeliver = func(p *packet.Packet, _ packet.NodeID) {
		if p.Src == 3 {
			delivered++
		}
	}
	f.Engine.Schedule(0, func() { s2.SendData(1, 512) })
	f.Engine.Run(f.Engine.Now() + time.Second)
	if delivered != 1 {
		t.Fatalf("source-2 data delivered = %d, want 1 via shared FG", delivered)
	}
}

func TestJoinLeaveGroup(t *testing.T) {
	f, s, _, m := chain(t, metric.SPP, DefaultParams())
	m.JoinGroup(1)
	if !m.IsMember(1) {
		t.Fatal("JoinGroup did not register membership")
	}
	f.Engine.Schedule(0, func() { s.StartSource(1) })
	f.Engine.Run(time.Second)
	m.LeaveGroup(1)
	delivered := 0
	m.OnDeliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	f.Engine.Schedule(0, func() { s.SendData(1, 512) })
	f.Engine.Run(f.Engine.Now() + time.Second)
	if delivered != 0 {
		t.Fatal("data delivered after LeaveGroup")
	}
}
