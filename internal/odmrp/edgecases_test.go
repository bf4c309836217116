package odmrp

import (
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
)

func TestReplyForUnknownSourceIgnored(t *testing.T) {
	f := newFakeNet(14)
	r := f.addNode(1, metric.SPP, DefaultParams())
	sent := 0
	r.Send = func(*packet.Packet) bool { sent++; return true }
	reply := &packet.Packet{
		Kind: packet.TypeJoinReply, Src: 2, Group: 1, Seq: 0,
		Replies: []packet.ReplyEntry{{Source: 9, NextHop: 1}},
	}
	r.Handle(reply, 2)
	f.Engine.Run(time.Second)
	// No query round for source 9 exists: the node sets its FG flag (it is
	// named next hop) but cannot propagate a reply.
	if sent != 0 {
		t.Fatalf("propagated %d replies without a query round", sent)
	}
	if !r.IsForwarder(1) {
		t.Fatal("FG flag should still be set; data forwarding is safe")
	}
}

func TestHandleRejectsUnknownKinds(t *testing.T) {
	f := newFakeNet(15)
	r := f.addNode(1, metric.SPP, DefaultParams())
	if r.Handle(&packet.Packet{Kind: packet.TypeProbe}, 2) {
		t.Fatal("probe packets are not ODMRP's to handle")
	}
	if !r.Handle(&packet.Packet{Kind: packet.TypeData, Src: 2, Group: 1}, 2) {
		t.Fatal("data packets are ODMRP's to handle")
	}
}

func TestStopSourceIdempotent(t *testing.T) {
	f, s, _, _ := chain(t, metric.SPP, DefaultParams())
	f.Engine.Schedule(0, func() {
		s.StartSource(1)
		s.StartSource(1) // duplicate start is a no-op
	})
	f.Engine.Run(100 * time.Millisecond)
	if s.Stats.FloodsOriginated != 1 {
		t.Fatalf("duplicate StartSource flooded %d queries, want 1", s.Stats.FloodsOriginated)
	}
	s.StopSource(1)
	s.StopSource(1) // double stop must not panic
	f.Engine.Run(10 * time.Second)
	if s.Stats.FloodsOriginated != 1 {
		t.Fatal("queries flooded after StopSource")
	}
}
