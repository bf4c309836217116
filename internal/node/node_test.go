package node

import (
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/odmrp"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
)

// buildChain assembles a full-stack chain of nodes spaced 150 m apart over a
// non-fading medium (every adjacent link is perfect, non-adjacent links are
// out of range is false — 150m spacing keeps 2-hop neighbors at 300m > 250m).
func buildChain(t *testing.T, k metric.Kind, n int) (*sim.Engine, []*Node) {
	t.Helper()
	engine := sim.NewEngine(99)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd, err := New(engine, medium, packet.NodeID(i), geom.Point{X: float64(i) * 200, Y: 0}, DefaultConfig(k))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		nd.Start()
	}
	return engine, nodes
}

func TestFullStackProbesPopulateNeighborTables(t *testing.T) {
	engine, nodes := buildChain(t, metric.SPP, 3)
	engine.Run(60 * time.Second)
	// Node 1 hears probes from both neighbors; after 60s the windows are
	// full and the links are perfect.
	for _, nb := range []uint16{0, 2} {
		est := nodes[1].Table.Estimate(nb, engine.Now())
		if est.DeliveryProb < 0.9 {
			t.Fatalf("node 1's estimate for n%d = %v, want ~1.0", nb, est.DeliveryProb)
		}
	}
	// Node 0 must not have an estimate for node 2 (out of range).
	if est := nodes[0].Table.Estimate(2, engine.Now()); est.DeliveryProb != 0 {
		t.Fatalf("node 0 has estimate %v for out-of-range node 2", est.DeliveryProb)
	}
}

func TestFullStackPairProbesFeedETT(t *testing.T) {
	engine, nodes := buildChain(t, metric.ETT, 2)
	engine.Run(120 * time.Second)
	est := nodes[1].Table.Estimate(0, engine.Now())
	if est.DeliveryProb < 0.9 {
		t.Fatalf("pair-probe delivery = %v", est.DeliveryProb)
	}
	if est.BandwidthBps <= 0 {
		t.Fatal("no bandwidth estimate from packet pairs")
	}
	// The pair-estimated bandwidth should be within a factor ~2 of the
	// 2 Mbps channel (MAC gaps between the pair halves reduce it).
	if est.BandwidthBps < 0.5e6 || est.BandwidthBps > 2.5e6 {
		t.Fatalf("bandwidth estimate = %.0f bps, implausible for a 2 Mbps channel", est.BandwidthBps)
	}
	if est.PairDelaySeconds <= 0 {
		t.Fatal("no pair delay estimate")
	}
}

func TestFullStackMulticastDelivery(t *testing.T) {
	engine, nodes := buildChain(t, metric.SPP, 4)
	nodes[3].Router.JoinGroup(1)
	delivered := 0
	nodes[3].Router.SetOnDeliver(func(*packet.Packet, packet.NodeID) { delivered++ })
	engine.Run(30 * time.Second) // probe warmup
	nodes[0].Router.StartSource(1)
	engine.Run(engine.Now() + 2*time.Second)
	for i := 0; i < 20; i++ {
		engine.Schedule(time.Duration(i)*50*time.Millisecond, func() { nodes[0].Router.SendData(1, 512) })
	}
	engine.Run(engine.Now() + 5*time.Second)
	if delivered < 18 {
		t.Fatalf("delivered %d of 20 over a clean 3-hop chain", delivered)
	}
	// Intermediate nodes must both be forwarders.
	if !nodes[1].Router.IsForwarder(1) || !nodes[2].Router.IsForwarder(1) {
		t.Fatal("chain intermediates are not forwarders")
	}
}

func TestFullStackMinHopNoProbes(t *testing.T) {
	engine, nodes := buildChain(t, metric.MinHop, 2)
	engine.Run(30 * time.Second)
	if nodes[0].Prober.Stats.ProbesSent != 0 {
		t.Fatal("MinHop configuration sent probes")
	}
	_ = nodes
}

func TestDefaultConfigPerMetric(t *testing.T) {
	for _, k := range metric.All() {
		cfg := DefaultConfig(k)
		if cfg.Metric != k {
			t.Fatalf("config metric = %v", cfg.Metric)
		}
		switch k {
		case metric.MinHop:
			if cfg.Probe.Mode != linkquality.ModeNone {
				t.Fatalf("%v probe mode = %v, want none", k, cfg.Probe.Mode)
			}
			if odmrp.ParamsFor(k).MemberDelta != 0 {
				t.Fatalf("%v should use original ODMRP (δ=0)", k)
			}
		case metric.PP, metric.ETT:
			if cfg.Probe.Mode != linkquality.ModePair {
				t.Fatalf("%v probe mode = %v, want pair", k, cfg.Probe.Mode)
			}
		default:
			if cfg.Probe.Mode != linkquality.ModeSingle {
				t.Fatalf("%v probe mode = %v, want single", k, cfg.Probe.Mode)
			}
		}
	}
}

func TestNewRejectsUnknownMetric(t *testing.T) {
	engine := sim.NewEngine(1)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())
	cfg := DefaultConfig(metric.SPP)
	cfg.Metric = metric.Kind(99)
	if _, err := New(engine, medium, 0, geom.Point{}, cfg); err == nil {
		t.Fatal("expected error for unknown metric")
	}
}

func TestFailRestoreLifecycle(t *testing.T) {
	engine, nodes := buildChain(t, metric.SPP, 3)
	group := packet.GroupID(7)
	nodes[2].Router.JoinGroup(group)
	delivered := 0
	nodes[2].Router.SetOnDeliver(func(*packet.Packet, packet.NodeID) { delivered++ })
	engine.Schedule(10*time.Second, func() { nodes[0].Router.StartSource(group) })
	send := sim.NewTicker(engine, 100*time.Millisecond, 0, nil, func() {
		nodes[0].Router.SendData(group, 256)
	})
	defer send.Stop()
	engine.Run(60 * time.Second)
	if delivered == 0 {
		t.Fatal("no delivery before failure")
	}
	if !nodes[1].Router.IsForwarder(group) {
		t.Fatal("middle node is not the forwarding relay")
	}
	if len(nodes[1].Table.Neighbors(engine.Now())) == 0 {
		t.Fatal("middle node has no neighbor estimates before crash")
	}

	// Crash the relay: soft state is gone and nothing flows through it.
	nodes[1].Fail()
	if !nodes[1].Down() {
		t.Fatal("Down() false after Fail")
	}
	if nodes[1].Router.IsForwarder(group) {
		t.Fatal("FG flag survived the crash")
	}
	if nodes[1].MAC.QueueLen() != 0 {
		t.Fatal("MAC queue survived the crash")
	}
	before := delivered
	engine.Run(engine.Now() + 30*time.Second)
	if delivered != before {
		t.Fatalf("%d packets delivered through a dead relay", delivered-before)
	}

	// Restart: neighbor table starts clean and delivery eventually resumes.
	nodes[1].Restore()
	if nodes[1].Down() {
		t.Fatal("Down() true after Restore")
	}
	if got := len(nodes[1].Table.Neighbors(engine.Now())); got != 0 {
		t.Fatalf("restarted node has %d neighbor estimates, want 0", got)
	}
	engine.Run(engine.Now() + 60*time.Second)
	if delivered == before {
		t.Fatal("delivery did not resume after restore")
	}
	// Idempotence.
	nodes[1].Restore()
	nodes[1].Fail()
	nodes[1].Fail()
	nodes[1].Restore()
	if nodes[1].Down() {
		t.Fatal("lifecycle not idempotent")
	}
}

// BenchmarkRelayForward measures one relayed data copy through the whole
// stack on a small medium: the middle node of a three-node chain, a
// forwarder for the group, clones the copy its upstream sent, jitters it,
// contends for the channel and broadcasts it, and the member downstream
// decodes and delivers it. The query floods that keep the forwarder flag set
// run alongside, as in a real run. With -benchmem, allocs/op is the relay
// path's budget: the clone, plus the amortised share of the floods.
func BenchmarkRelayForward(b *testing.B) {
	engine := sim.NewEngine(7)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())
	var nodes []*Node
	for i := 0; i < 3; i++ {
		nd, err := New(engine, medium, packet.NodeID(i), geom.Point{X: float64(i) * 200}, DefaultConfig(metric.MinHop))
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	relay, member := nodes[1], nodes[2]
	member.Router.JoinGroup(1)
	delivered := 0
	member.Router.SetOnDeliver(func(*packet.Packet, packet.NodeID) { delivered++ })
	nodes[0].Router.StartSource(1)
	engine.Run(time.Second)
	if !relay.Router.IsForwarder(1) {
		b.Fatal("the middle node did not become a forwarder")
	}
	copies := make([]packet.Packet, b.N)
	for i := range copies {
		copies[i] = packet.Packet{Kind: packet.TypeData, Src: 0, PrevHop: 0, Group: 1, Seq: uint32(i), TTL: 8, PayloadBytes: 512}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range copies {
		relay.Router.Handle(&copies[i], 0)
		// Past the data jitter, DIFS, the longest backoff and the airtime.
		engine.Run(engine.Now() + 5*time.Millisecond)
	}
	b.StopTimer()
	if delivered != b.N {
		b.Fatalf("member got %d of %d relayed copies", delivered, b.N)
	}
}
