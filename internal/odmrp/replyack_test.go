package odmrp

import (
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
)

// lossyChain builds S(0) — F(1) — M(2) where F's reply broadcasts can be
// suppressed selectively, to exercise the passive-ack machinery.
func lossyChain(t *testing.T, params Params) (*fakeNet, *Router, *Router, *Router, *bool) {
	t.Helper()
	f := newFakeNet(42)
	s := f.addNode(0, metric.SPP, params)
	fw := f.addNode(1, metric.SPP, params)
	m := f.addNode(2, metric.SPP, params)
	f.Connect(0, 1, time.Millisecond, 0.9, 0.9)
	f.Connect(1, 2, time.Millisecond, 0.9, 0.9)

	// Wrap the forwarder's Send so its JOIN REPLY transmissions can be
	// dropped while a flag is set.
	dropReplies := false
	inner := fw.Send
	fw.Send = func(p *packet.Packet) bool {
		if dropReplies && p.Kind == packet.TypeJoinReply {
			return true // "sent" but lost on the air
		}
		return inner(p)
	}
	return f, s, fw, m, &dropReplies
}

func TestReplyRetransmissionRecoversBranch(t *testing.T) {
	params := DefaultParams()
	params.ReplyRetries = 3
	params.ReplyAckTimeout = 10 * time.Millisecond
	f, s, fw, m, dropReplies := lossyChain(t, params)
	m.JoinGroup(1)

	// Drop the forwarder's first reply transmissions; the member's
	// passive-ack timer must kick in and retransmit its own reply —
	// and once we stop dropping, the forwarder's retransmitted reply
	// establishes the branch.
	*dropReplies = true
	f.Engine.Schedule(0, func() { s.StartSource(1) })
	// Member replies at ~δ(30ms)+jitter; first ack timeout ~10ms later.
	f.Engine.Run(100 * time.Millisecond)
	// Member sent its reply but never overheard the forwarder's: it should
	// be retransmitting.
	if m.ReplyRetransmits == 0 {
		t.Fatal("member did not retransmit unacknowledged reply")
	}
	*dropReplies = false
	f.Engine.Run(400 * time.Millisecond)
	if !fw.IsForwarder(1) {
		t.Fatal("branch not recovered after reply retransmission")
	}
}

func TestReplyAckConfirmedNoRetransmit(t *testing.T) {
	params := DefaultParams()
	params.ReplyRetries = 3
	params.ReplyAckTimeout = 10 * time.Millisecond
	f, s, fw, m, _ := lossyChain(t, params)
	m.JoinGroup(1)
	f.Engine.Schedule(0, func() { s.StartSource(1) })
	f.Engine.Run(time.Second)
	if !fw.IsForwarder(1) {
		t.Fatal("branch not built")
	}
	if m.ReplyRetransmits != 0 {
		t.Fatalf("member retransmitted %d times despite overhearing the ack", m.ReplyRetransmits)
	}
}

func TestReplyRetriesDisabledByDefault(t *testing.T) {
	params := DefaultParams()
	if params.ReplyRetries != 0 {
		t.Fatal("paper behavior must be the default: no reply retransmission")
	}
	f, s, _, m, dropReplies := lossyChain(t, params)
	m.JoinGroup(1)
	*dropReplies = true
	f.Engine.Schedule(0, func() { s.StartSource(1) })
	f.Engine.Run(500 * time.Millisecond)
	if m.ReplyRetransmits != 0 {
		t.Fatal("retransmissions occurred with ReplyRetries = 0")
	}
}

func TestReplyRetransmitBounded(t *testing.T) {
	params := DefaultParams()
	params.ReplyRetries = 2
	params.ReplyAckTimeout = 5 * time.Millisecond
	f, s, _, m, dropReplies := lossyChain(t, params)
	m.JoinGroup(1)
	*dropReplies = true // forwarder never acks
	f.Engine.Schedule(0, func() { s.StartSource(1) })
	f.Engine.Run(200 * time.Millisecond)
	if m.ReplyRetransmits > 2 {
		t.Fatalf("retransmits = %d, want <= 2 per round", m.ReplyRetransmits)
	}
}
