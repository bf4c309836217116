package faults

// Integration tests for ODMRP's soft-state self-healing: when a forwarding
// relay crashes, the periodic JOIN QUERY refresh floods rebuild the
// forwarding group around it within the 3 s refresh interval (to discover a
// new path) plus the 9 s FG timeout (for the stale flag to matter at all) —
// the protocol's own repair bound.

import (
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/node"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
)

// repairBound is ODMRP's refresh interval plus its FG timeout.
const repairBound = 3*time.Second + 9*time.Second

// buildDiamond assembles S(0) — {R1(1), R2(2)} — M(3): the source and the
// member are out of range of each other and of nothing else, so delivery
// needs exactly one of the two relays in the forwarding group. The link
// oracle gives every permitted pair a perfectly decodable signal.
func buildDiamond(t *testing.T) (*sim.Engine, []*node.Node) {
	t.Helper()
	engine := sim.NewEngine(11)
	params := phy.DefaultParams()
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, params)
	allowed := map[[2]packet.NodeID]bool{}
	link := func(a, b packet.NodeID) {
		allowed[[2]packet.NodeID{a, b}] = true
		allowed[[2]packet.NodeID{b, a}] = true
	}
	link(0, 1)
	link(0, 2)
	link(1, 3)
	link(2, 3)
	medium.SetLinkFunc(func(tx, rx packet.NodeID, _ time.Duration, _ *sim.RNG) float64 {
		if allowed[[2]packet.NodeID{tx, rx}] {
			return params.RxThresholdW * 100
		}
		return 0
	})
	nodes := make([]*node.Node, 4)
	for i := range nodes {
		nd, err := node.New(engine, medium, packet.NodeID(i), geom.Point{X: float64(i) * 10}, node.DefaultConfig(metric.SPP))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		nd.Start()
	}
	return engine, nodes
}

func TestSelfHealingAfterRelayCrash(t *testing.T) {
	engine, nodes := buildDiamond(t)
	group := packet.GroupID(4)
	nodes[3].Router.JoinGroup(group)
	delivered := 0
	nodes[3].Router.SetOnDeliver(func(*packet.Packet, packet.NodeID) { delivered++ })
	engine.Schedule(20*time.Second, func() { nodes[0].Router.StartSource(group) })
	send := sim.NewTicker(engine, 100*time.Millisecond, 0, nil, func() {
		nodes[0].Router.SendData(group, 256)
	})
	defer send.Stop()
	engine.Run(40 * time.Second)
	if delivered == 0 {
		t.Fatal("no delivery over the healthy diamond")
	}

	fg1 := nodes[1].Router.IsForwarder(group)
	fg2 := nodes[2].Router.IsForwarder(group)
	if !fg1 && !fg2 {
		t.Fatal("neither diamond relay is a forwarder")
	}
	relay, other := nodes[1], nodes[2]
	if !fg1 {
		relay, other = nodes[2], nodes[1]
	}
	soleRelay := fg1 != fg2

	// Crash the active relay and require delivery to resume within ODMRP's
	// own repair bound.
	crashAt := engine.Now()
	relay.Fail()
	beforeCrash := delivered
	engine.Run(crashAt + repairBound)
	if delivered == beforeCrash {
		t.Fatalf("delivery did not resume within %v of the relay crash", repairBound)
	}
	if soleRelay && !other.Router.IsForwarder(group) {
		t.Fatal("the surviving relay never joined the forwarding group")
	}

	// Restart the crashed relay: it must come back with a clean neighbor
	// table and the mesh must keep delivering around (or through) it.
	relay.Restore()
	if got := len(relay.Table.Neighbors(engine.Now())); got != 0 {
		t.Fatalf("restarted relay has %d neighbor estimates, want 0", got)
	}
	beforeRestore := delivered
	engine.Run(engine.Now() + 10*time.Second)
	if delivered == beforeRestore {
		t.Fatal("delivery stalled after the crashed relay restarted")
	}
}

// TestSelfHealingSchedulerDriven runs the same diamond under the fault
// scheduler instead of manual Fail/Restore calls: a scripted outage of relay
// 1 long enough that, if delivery survives, it must have been rerouted.
func TestSelfHealingSchedulerDriven(t *testing.T) {
	engine, nodes := buildDiamond(t)
	group := packet.GroupID(4)
	nodes[3].Router.JoinGroup(group)
	var deliveredAt []time.Duration
	nodes[3].Router.SetOnDeliver(func(*packet.Packet, packet.NodeID) {
		deliveredAt = append(deliveredAt, engine.Now())
	})
	engine.Schedule(20*time.Second, func() { nodes[0].Router.StartSource(group) })
	send := sim.NewTicker(engine, 100*time.Millisecond, 0, nil, func() {
		nodes[0].Router.SendData(group, 256)
	})
	defer send.Stop()

	// Both relays get a scripted outage, staggered so one of the two is
	// always alive: 1 is down 40–70 s, 2 is down 80–110 s. Whichever relay
	// carries the tree, one of the outages hits it.
	plan := Plan{Outages: []Outage{
		{Node: 1, Start: 40 * time.Second, Duration: 30 * time.Second},
		{Node: 2, Start: 80 * time.Second, Duration: 30 * time.Second},
	}}
	targets := make([]Target, len(nodes))
	for i, n := range nodes {
		targets[i] = n
	}
	sched, err := NewScheduler(engine, 3, plan, targets, 130*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	sched.Start()
	engine.Run(130 * time.Second)

	for _, onset := range sched.Onsets() {
		resumed := false
		for _, at := range deliveredAt {
			if at > onset && at <= onset+repairBound {
				resumed = true
				break
			}
		}
		if !resumed {
			t.Fatalf("no delivery within %v after the fault at %v", repairBound, onset)
		}
	}
}
