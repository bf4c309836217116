package mcst

import (
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/multicast/multicasttest"
	"meshcast/internal/packet"
)

// fakeNet is the shared lossless test network building MCST routers.
type fakeNet struct{ *multicasttest.Net }

func newFakeNet(seed uint64) *fakeNet { return &fakeNet{multicasttest.NewNet(seed)} }

// addNode adds an SPP router.
func (f *fakeNet) addNode(id packet.NodeID) *Router {
	table := multicasttest.NewTable()
	r := New(f.Engine, id, metric.MustNew(metric.SPP), table)
	f.Attach(r, table)
	return r
}

// chain builds 1 — 2 — 3 with uniform good links.
func chain(t *testing.T) (*fakeNet, *Router, *Router, *Router) {
	t.Helper()
	f := newFakeNet(7)
	r1 := f.addNode(1)
	r2 := f.addNode(2)
	r3 := f.addNode(3)
	f.Connect(1, 2, time.Millisecond, 0.9, 0.9)
	f.Connect(2, 3, time.Millisecond, 0.9, 0.9)
	return f, r1, r2, r3
}

func TestCoreElectionLowestID(t *testing.T) {
	f, r1, _, r3 := chain(t)

	// The higher-ID source starts first and assumes the core role.
	r3.StartSource(1)
	if !r3.Originating(1) {
		t.Fatal("first source did not assume the core role")
	}
	f.Engine.Run(time.Second)

	// A lower-ID source then elects itself; on hearing its announce the
	// higher-ID core steps down, suppressed.
	r1.StartSource(1)
	f.Engine.Run(2 * time.Second)
	if !r1.Originating(1) {
		t.Fatal("lower-ID source did not take the core role")
	}
	if r3.Originating(1) {
		t.Fatal("higher-ID core did not step down on hearing the lower ID")
	}
	if b := r3.cores[1]; b == nil || b.core != 1 {
		t.Fatalf("suppressed source adopted core %+v, want 1", b)
	}
}

func TestTreeFormationAndDelivery(t *testing.T) {
	f, r1, r2, r3 := chain(t)
	r3.JoinGroup(1)
	r1.StartSource(1)
	f.Engine.Run(2 * time.Second)

	// The member's join named node 2 as parent; 2 is on-tree, and the core
	// itself forwards by role.
	if !r2.IsForwarder(1) {
		t.Fatal("middle node not on the shared tree")
	}
	if !r1.IsForwarder(1) {
		t.Fatal("acting core must report IsForwarder")
	}
	if r3.IsForwarder(1) {
		t.Fatal("leaf member should not be on-tree (nobody named it parent)")
	}

	var got int
	r3.OnDeliver = func(*packet.Packet, packet.NodeID) { got++ }
	for i := 0; i < 10; i++ {
		r1.SendData(1, 256)
		f.Engine.Run(f.Engine.Now() + 50*time.Millisecond)
	}
	if got != 10 {
		t.Fatalf("member delivered %d/10 packets over the tree", got)
	}
	if r2.Stats.DataForwarded == 0 {
		t.Fatal("tree relay forwarded nothing")
	}
}

// TestBidirectionalTree grafts a suppressed sender at one end of the chain
// and a member at the other: the sender's data travels toward the core and
// the shared tree carries it down the member branch.
func TestBidirectionalTree(t *testing.T) {
	f, r1, _, r3 := chain(t)
	r1.JoinGroup(1)
	r1.StartSource(1) // core at node 1, also a member for this test
	r3.StartSource(1) // suppressed sender at the far end
	f.Engine.Run(4 * time.Second)
	if r3.Originating(1) {
		t.Fatal("far sender was not suppressed by the lower-ID core")
	}

	var got int
	r1.OnDeliver = func(*packet.Packet, packet.NodeID) { got++ }
	for i := 0; i < 5; i++ {
		r3.SendData(1, 256)
		f.Engine.Run(f.Engine.Now() + 50*time.Millisecond)
	}
	if got != 5 {
		t.Fatalf("core-side member delivered %d/5 packets from the grafted sender", got)
	}
}

func TestCoreFailover(t *testing.T) {
	f, r1, _, r3 := chain(t)
	r3.StartSource(1)
	f.Engine.Run(time.Second)
	r1.StartSource(1)
	f.Engine.Run(f.Engine.Now() + 2*time.Second)
	if r3.Originating(1) {
		t.Fatal("precondition: node 3 should be suppressed")
	}

	// The core crashes. The suppressed source's watchdog must reclaim the
	// role within coreTimeout of the last announce heard.
	r1.Reset()
	f.Engine.Run(f.Engine.Now() + coreTimeout + 2*announceInterval)
	if !r3.Originating(1) {
		t.Fatal("suppressed source never reclaimed the core role after the core died")
	}
	if r3.CoreHandovers == 0 {
		t.Fatal("failover did not count a core handover")
	}
}

func TestResetPurgesSoftState(t *testing.T) {
	f, r1, r2, r3 := chain(t)
	r3.JoinGroup(1)
	r1.StartSource(1)
	f.Engine.Run(2 * time.Second)
	r1.SendData(1, 256)
	f.Engine.Run(f.Engine.Now() + 100*time.Millisecond)

	// Every announce the lossless net accepted took one sequence number.
	seqBefore := uint32(r1.Stats.FloodsOriginated)
	if seqBefore == 0 {
		t.Fatal("precondition: core announced at least once")
	}
	for _, r := range []*Router{r1, r2, r3} {
		r.Reset()
		if r.RoundCount() != 0 || r.DupWindowCount() != 0 || r.IsForwarder(1) ||
			len(r.cores) != 0 || len(r.sources) != 0 || r.Originating(1) {
			t.Fatalf("node %v retains soft state after Reset", r.ID())
		}
	}
	// Sequence counters survive the crash so a restarted core cannot reuse
	// round numbers its neighbors may remember: the first announce after the
	// restart continues the numbering.
	var announced []uint32
	r1.Send = func(p *packet.Packet) bool {
		if p.Kind == packet.TypeCoreAnnounce {
			announced = append(announced, p.Seq)
		}
		return true
	}
	r1.StartSource(1)
	if len(announced) != 1 || announced[0] != seqBefore {
		t.Fatalf("announces after restart = %v, want [%d] — stale-round detection would break", announced, seqBefore)
	}
	if !r3.IsMember(1) {
		t.Fatal("membership is configuration and must survive Reset")
	}
}
