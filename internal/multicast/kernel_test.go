package multicast

// White-box tests of the flood-round kernel under a policy that belongs to
// no protocol: what is asserted on rounds, flags and counters here holds for
// every protocol that embeds the kernel. Black-box behaviour per protocol is
// in multicasttest; the protocols' own policy is tested in their packages.

import (
	"testing"
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

const (
	testFlood = packet.TypeCoreAnnounce
	testGraft = packet.TypeTreeJoin
)

func testPolicy(originRelays bool) Policy {
	return Policy{
		FloodKind: testFlood, GraftKind: testGraft,
		FloodInterval: 3 * time.Second, FlagTimeout: 9 * time.Second,
		Delta: 30 * time.Millisecond, Alpha: 20 * time.Millisecond, TTL: 32,
		FloodJitter: 4 * time.Millisecond, GraftJitter: 2 * time.Millisecond, DataJitter: time.Millisecond,
		OriginRelays: originRelays,
	}
}

// testKernel returns a kernel whose sends are captured, with a measured link
// from neighbor 0.
func testKernel(engine *sim.Engine, id packet.NodeID, originRelays bool) (*Kernel, *[]*packet.Packet) {
	table := linkquality.NewTable(512, 10, 0)
	table.SetStatic(0, metric.LinkEstimate{DeliveryProb: 0.9})
	k := NewKernel(engine, id, metric.MustNew(metric.SPP), table, testPolicy(originRelays))
	var sent []*packet.Packet
	k.Send = func(p *packet.Packet) bool {
		sent = append(sent, p)
		return true
	}
	return k, &sent
}

func flood(k *Kernel, origin packet.NodeID, seq uint32) *packet.Packet {
	return &packet.Packet{Kind: testFlood, Src: origin, PrevHop: origin, Group: 1, Seq: seq, TTL: 8, Cost: k.pm.Initial()}
}

func graft(src packet.NodeID, origin, nextHop packet.NodeID) *packet.Packet {
	return &packet.Packet{Kind: testGraft, Src: src, PrevHop: src, Group: 1,
		Replies: []packet.ReplyEntry{{Source: origin, NextHop: nextHop}}}
}

func TestKernelStaleFloodLeavesRound(t *testing.T) {
	engine := sim.NewEngine(3)
	k, _ := testKernel(engine, 2, false)
	k.HandleFlood(flood(k, 0, 5), 0, false)
	if got := k.rounds[Flow{1, 0}].seq; got != 5 {
		t.Fatalf("round seq = %d, want 5", got)
	}
	k.HandleFlood(flood(k, 0, 3), 0, false)
	if got := k.rounds[Flow{1, 0}].seq; got != 5 {
		t.Fatalf("stale flood regressed round to %d", got)
	}
}

func TestKernelResetKeepsSequenceCounters(t *testing.T) {
	engine := sim.NewEngine(1)
	k, _ := testKernel(engine, 1, false)
	k.JoinGroup(1)
	k.StartFlood(1)
	k.SendData(1, 64)
	k.HandleFlood(flood(k, 0, 0), 0, false)
	k.HandleGraft(graft(2, 0, 1), 2)
	k.HandleData(&packet.Packet{Kind: packet.TypeData, Src: 0, Group: 1, TTL: 4}, 0)
	engine.Run(time.Second)
	if len(k.rounds) == 0 || len(k.flagUntil) == 0 || len(k.dups) == 0 || len(k.floods) == 0 {
		t.Fatal("precondition: soft state populated")
	}
	k.Reset()
	if len(k.rounds) != 0 || len(k.flagUntil) != 0 || len(k.dups) != 0 || len(k.floods) != 0 {
		t.Fatal("Reset left soft state")
	}
	if k.floodSeq[1] != 1 || k.dataSeq[1] != 1 {
		t.Fatalf("sequence counters after Reset = %d/%d, want 1/1", k.floodSeq[1], k.dataSeq[1])
	}
	if !k.IsMember(1) {
		t.Fatal("membership is configuration and must survive Reset")
	}
}

// TestKernelControlBytesOneSite drives every control send path — originated
// flood, jittered flood forward, jittered own and propagated graft, a direct
// Transmit — and requires the node counter to equal the bytes the MAC was
// handed, data excluded.
func TestKernelControlBytesOneSite(t *testing.T) {
	engine := sim.NewEngine(1)
	k, sent := testKernel(engine, 1, false)
	k.JoinGroup(1)
	k.StartFlood(2)                         // originate
	k.HandleFlood(flood(k, 0, 0), 0, false) // forward + δ graft
	k.HandleFlood(flood(k, 3, 0), 0, false)
	k.HandleGraft(graft(2, 3, 1), 2) // flag + propagated graft
	k.SendData(1, 512)
	engine.Run(time.Second)
	k.Transmit(graft(1, 0, 0)) // a protocol's own retransmission
	var want uint64
	kinds := map[packet.Type]int{}
	for _, p := range *sent {
		kinds[p.Kind]++
		if p.Kind != packet.TypeData {
			want += uint64(p.SizeBytes())
		}
	}
	if kinds[testFlood] != 3 || kinds[testGraft] != 3 || kinds[packet.TypeData] != 1 {
		t.Fatalf("sent kinds = %v, want 3 floods, 3 grafts, 1 data", kinds)
	}
	if k.Stats.ControlBytesSent != want {
		t.Fatalf("Stats.ControlBytesSent = %d, want %d", k.Stats.ControlBytesSent, want)
	}
	if k.Stats.GraftsSent != 2 {
		t.Fatalf("GraftsSent = %d, want 2", k.Stats.GraftsSent)
	}
}

// TestKernelOriginRelays pins the one data-plane difference between a mesh
// source and a tree core.
func TestKernelOriginRelays(t *testing.T) {
	for _, relays := range []bool{false, true} {
		engine := sim.NewEngine(1)
		k, _ := testKernel(engine, 1, relays)
		k.StartFlood(1)
		if k.IsForwarder(1) != relays {
			t.Fatalf("OriginRelays=%v: originating node IsForwarder = %v", relays, k.IsForwarder(1))
		}
		k.HandleGraft(graft(2, 1, 1), 2) // a branch reaching its origin
		_, flagged := k.flagUntil[1]
		if flagged != relays {
			t.Fatalf("OriginRelays=%v: graft reaching the origin set its flag = %v", relays, flagged)
		}
		k.StopFlood(1)
		if k.IsForwarder(1) != relays {
			t.Fatalf("OriginRelays=%v: after StopFlood IsForwarder = %v (flag only)", relays, k.IsForwarder(1))
		}
	}
}

// TestKernelDataRelayCountsHops pins that a relayed data packet leaves one
// hop deeper and one TTL shorter than it arrived, as a relayed flood does.
func TestKernelDataRelayCountsHops(t *testing.T) {
	engine := sim.NewEngine(1)
	k, sent := testKernel(engine, 1, false)
	k.HandleFlood(flood(k, 0, 0), 0, false)
	k.HandleGraft(graft(2, 0, 1), 2) // node 1 becomes a forwarder for group 1
	k.HandleData(&packet.Packet{Kind: packet.TypeData, Src: 0, PrevHop: 3, Group: 1, Seq: 7, TTL: 4, HopCount: 2}, 3)
	engine.Run(time.Second)
	for _, p := range *sent {
		if p.Kind != packet.TypeData {
			continue
		}
		if p.HopCount != 3 || p.TTL != 3 || p.PrevHop != 1 {
			t.Fatalf("relayed data has hop %d ttl %d prev %v, want 3, 3, 1", p.HopCount, p.TTL, p.PrevHop)
		}
		return
	}
	t.Fatal("forwarder did not relay the data packet")
}

// TestKernelSendAllocations pins the allocation budget of the kernel's
// sends, each jittered through a pooled pending-send record: a relayed data
// copy and a relayed flood copy allocate their clone and nothing else, and a
// graft its packet — the Packet and its one Replies entry. The MAC is a
// counter here; its own budget is pinned in package mac.
func TestKernelSendAllocations(t *testing.T) {
	engine := sim.NewEngine(1)
	k, _ := testKernel(engine, 1, false)
	sent := 0
	k.Send = func(*packet.Packet) bool { sent++; return true }
	k.HandleFlood(flood(k, 0, 0), 0, false)
	k.HandleGraft(graft(2, 0, 1), 2) // node 1 becomes a forwarder for group 1, and grafts on
	engine.RunAll()

	const runs = 100
	data := make([]*packet.Packet, runs+1)
	floods := make([]*packet.Packet, runs+1)
	for i := range data {
		data[i] = &packet.Packet{Kind: packet.TypeData, Src: 0, PrevHop: 3, Group: 1, Seq: uint32(i), TTL: 4}
		floods[i] = flood(k, 0, uint32(i+1))
	}
	for _, tc := range []struct {
		name string
		want float64
		send func(i int)
	}{
		{"data forward", 1, func(i int) { k.HandleData(data[i], 3) }},
		{"flood forward", 1, func(i int) { k.HandleFlood(floods[i], 0, false) }},
		{"graft", 2, func(i int) { k.sendGraft(Flow{1, 0}, uint32(i), 3) }},
	} {
		i, before := 0, sent
		allocs := testing.AllocsPerRun(runs, func() {
			tc.send(i)
			i++
			engine.RunAll()
		})
		if allocs != tc.want {
			t.Errorf("%s allocates %.1f, want %.0f", tc.name, allocs, tc.want)
		}
		if sent-before != runs+1 {
			t.Errorf("%s: %d of %d sends reached the MAC", tc.name, sent-before, runs+1)
		}
	}
	if k.Stats.DataForwarded != runs+1 || k.Stats.FloodsForwarded != runs+2 || k.Stats.GraftsSent != runs+2 {
		t.Fatalf("counted %d data, %d flood forwards and %d grafts", k.Stats.DataForwarded, k.Stats.FloodsForwarded, k.Stats.GraftsSent)
	}
}
