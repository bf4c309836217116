package mcst

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

// fakeNet is the shared lossless test network building MCST routers.
type fakeNet struct{ *multicasttest.Net }

func newFakeNet(seed uint64) *fakeNet { return &fakeNet{multicasttest.NewNet(seed)} }

func (f *fakeNet) addNode(id packet.NodeID, kind metric.Kind, params Params) *Router {
	table := multicasttest.NewTable()
	r := New(f.Engine, id, metric.MustNew(kind), table, params)
	f.Attach(r, table)
	return r
}

// conformance runs the kernel behaviours under MCST's packets and timing.
var conformance = multicasttest.Harness{
	New: func(engine *sim.Engine, id packet.NodeID, pm metric.PathMetric, table *linkquality.Table,
		delta, alpha time.Duration, ttl uint8) multicast.Protocol {
		params := DefaultParams()
		params.JoinDelta, params.DupAlpha, params.TTL = delta, alpha, ttl
		return New(engine, id, pm, table, params)
	},
	FloodKind:   packet.TypeCoreAnnounce,
	FlagTimeout: treeTimeout,
}

func TestBestParentSelectionSPP(t *testing.T)                   { conformance.BestPathAfterDelta(t) }
func TestFirstCopyModePicksFirstAnnounce(t *testing.T)          { conformance.FirstCopyAtZeroDelta(t) }
func TestDuplicateAnnounceForwardingWithinAlpha(t *testing.T)   { conformance.RefloodWithinAlpha(t) }
func TestDuplicateAnnounceBeyondAlphaNotForwarded(t *testing.T) { conformance.NoRefloodBeyondAlpha(t) }
func TestStaleAnnounceIgnored(t *testing.T)                     { conformance.StaleRoundIgnored(t) }
func TestAnnounceTTLBoundsFlood(t *testing.T)                   { conformance.FloodTTLBound(t) }
func TestDataTTLBoundsForwarding(t *testing.T)                  { conformance.DataTTLBound(t) }
func TestTreeStateExpires(t *testing.T)                         { conformance.FlagExpires(t) }
func TestTreeRefreshExtendsExpiry(t *testing.T)                 { conformance.FlagRefreshExtends(t) }
func TestWarmupFallsBackToFirstCopy(t *testing.T)               { conformance.WarmupFallback(t) }
func TestSourceDoesNotDeliverOwnData(t *testing.T)              { conformance.OwnEchoIgnored(t) }

// chain builds 1 — 2 — 3 with uniform good links.
func chain(t *testing.T, params Params) (*fakeNet, *Router, *Router, *Router) {
	t.Helper()
	f := newFakeNet(7)
	r1 := f.addNode(1, metric.SPP, params)
	r2 := f.addNode(2, metric.SPP, params)
	r3 := f.addNode(3, metric.SPP, params)
	f.Connect(1, 2, time.Millisecond, 0.9, 0.9)
	f.Connect(2, 3, time.Millisecond, 0.9, 0.9)
	return f, r1, r2, r3
}

func TestCoreElectionLowestID(t *testing.T) {
	f, r1, _, r3 := chain(t, DefaultParams())

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
	f, r1, r2, r3 := chain(t, DefaultParams())
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
	f, r1, _, r3 := chain(t, DefaultParams())
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
	p := DefaultParams()
	f, r1, _, r3 := chain(t, p)
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
	f, r1, r2, r3 := chain(t, DefaultParams())
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

func TestParamsForMetric(t *testing.T) {
	if p := ParamsFor(metric.MinHop); p.JoinDelta != 0 || p.DupAlpha != 0 {
		t.Fatalf("MinHop params = %+v, want first-copy (δ=0, α=0)", p)
	}
	if p := ParamsFor(metric.SPP); p.JoinDelta == 0 || p.DupAlpha == 0 {
		t.Fatalf("link-quality params = %+v, want δ/α enabled", p)
	}
}
