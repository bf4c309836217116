package mac

import (
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
)

// testNet builds n nodes at the given positions over a non-fading two-ray
// medium and returns their MACs.
func testNet(t *testing.T, seed uint64, positions ...geom.Point) (*sim.Engine, []*MAC) {
	t.Helper()
	engine := sim.NewEngine(seed)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())
	macs := make([]*MAC, len(positions))
	for i, pos := range positions {
		radio := medium.AttachRadio(packet.NodeID(i), pos)
		macs[i] = New(engine, radio, DefaultParams())
	}
	return engine, macs
}

func dataPkt(src packet.NodeID, seq uint32, bytes int) *packet.Packet {
	return &packet.Packet{Kind: packet.TypeData, Src: src, Seq: seq, PayloadBytes: bytes}
}

func TestBroadcastDeliveredToNeighbors(t *testing.T) {
	engine, macs := testNet(t, 1,
		geom.Point{X: 0, Y: 0}, geom.Point{X: 150, Y: 0}, geom.Point{X: 0, Y: 150})
	var got1, got2 []*packet.Packet
	var from1 packet.NodeID
	macs[1].Deliver = func(p *packet.Packet, tx packet.NodeID) { got1 = append(got1, p); from1 = tx }
	macs[2].Deliver = func(p *packet.Packet, tx packet.NodeID) { got2 = append(got2, p) }
	engine.Schedule(0, func() { macs[0].SendBroadcast(dataPkt(0, 1, 512)) })
	engine.Run(time.Second)
	if len(got1) != 1 || len(got2) != 1 {
		t.Fatalf("deliveries = (%d, %d), want (1, 1)", len(got1), len(got2))
	}
	if from1 != 0 {
		t.Fatalf("transmitter = %v, want n0", from1)
	}
	if macs[0].Stats.BroadcastsSent != 1 {
		t.Fatalf("BroadcastsSent = %d", macs[0].Stats.BroadcastsSent)
	}
}

func TestBroadcastNotRetransmitted(t *testing.T) {
	// Broadcast has exactly one transmission even when nobody receives it.
	engine, macs := testNet(t, 1, geom.Point{X: 0, Y: 0}, geom.Point{X: 1200, Y: 0})
	engine.Schedule(0, func() { macs[0].SendBroadcast(dataPkt(0, 1, 512)) })
	engine.Run(time.Second)
	if macs[0].Stats.BroadcastsSent != 1 {
		t.Fatalf("BroadcastsSent = %d, want 1 (no retries for broadcast)", macs[0].Stats.BroadcastsSent)
	}
	if macs[0].QueueLen() != 0 {
		t.Fatal("queue should drain after the single transmission")
	}
}

func TestCarrierSensePreventsCollision(t *testing.T) {
	// Both senders are within carrier-sense range of each other; the second
	// defers and both frames arrive at the receiver.
	engine, macs := testNet(t, 7,
		geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0}, geom.Point{X: 50, Y: 100})
	delivered := 0
	macs[2].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	engine.Schedule(0, func() { macs[0].SendBroadcast(dataPkt(0, 1, 512)) })
	// Enqueue on node 1 while node 0's frame is (likely) on the air.
	engine.Schedule(time.Millisecond, func() { macs[1].SendBroadcast(dataPkt(1, 1, 512)) })
	engine.Run(time.Second)
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (carrier sense should serialize)", delivered)
	}
}

func TestBackoffSeparatesSimultaneousSenders(t *testing.T) {
	// Two senders become ready at the same instant. Random backoff should
	// usually separate them; across 20 rounds the receiver must see most
	// frames (a MAC without backoff would lose nearly all of them).
	engine, macs := testNet(t, 99,
		geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0}, geom.Point{X: 50, Y: 100})
	delivered := 0
	macs[2].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	const rounds = 20
	for i := 0; i < rounds; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		engine.At(at, func() { macs[0].SendBroadcast(dataPkt(0, uint32(i), 512)) })
		engine.At(at, func() { macs[1].SendBroadcast(dataPkt(1, uint32(i), 512)) })
	}
	engine.Run(10 * time.Second)
	if delivered < 2*rounds*8/10 {
		t.Fatalf("delivered = %d of %d frames; backoff is not separating senders", delivered, 2*rounds)
	}
}

func TestHiddenTerminalCausesLoss(t *testing.T) {
	// With the default thresholds the carrier-sense range (550 m) is more
	// than twice the receive range (250 m), so two senders that can both
	// reach a middle node always hear each other. To create a true hidden
	// pair, shrink carrier sense to the receive threshold: A and C are
	// 480 m apart (mutually deaf) and both 240 m from B.
	engine := sim.NewEngine(5)
	params := phy.DefaultParams()
	params.CSThresholdW = params.RxThresholdW
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, params)
	positions := []geom.Point{{X: 0, Y: 0}, {X: 240, Y: 0}, {X: 480, Y: 0}}
	macs := make([]*MAC, len(positions))
	for i, pos := range positions {
		macs[i] = New(engine, medium.AttachRadio(packet.NodeID(i), pos), DefaultParams())
	}
	delivered := 0
	macs[1].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	const rounds = 50
	for i := 0; i < rounds; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		engine.At(at, func() { macs[0].SendBroadcast(dataPkt(0, uint32(i), 512)) })
		engine.At(at, func() { macs[2].SendBroadcast(dataPkt(2, uint32(i), 512)) })
	}
	engine.Run(time.Minute)
	// Equal power, same slot-ish start: essentially everything should
	// collide (no capture at equal power).
	if delivered > rounds {
		t.Fatalf("delivered = %d of %d; hidden terminals should collide heavily", delivered, 2*rounds)
	}
	if medium.Radios()[1].Stats.Collisions == 0 {
		t.Fatal("no collisions recorded at the middle node")
	}
}

func TestQueueCapDrops(t *testing.T) {
	engine, macs := testNet(t, 1, geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0})
	engine.Schedule(0, func() {
		for i := 0; i < 100; i++ {
			macs[0].SendBroadcast(dataPkt(0, uint32(i), 512))
		}
	})
	engine.Run(10 * time.Second)
	if macs[0].Stats.QueueDrops == 0 {
		t.Fatal("expected queue drops when enqueueing 100 packets at once")
	}
	if macs[0].Stats.Enqueued != uint64(DefaultParams().QueueCap) {
		t.Fatalf("Enqueued = %d, want %d", macs[0].Stats.Enqueued, DefaultParams().QueueCap)
	}
	// Everything accepted must eventually be transmitted.
	if macs[0].Stats.BroadcastsSent != macs[0].Stats.Enqueued {
		t.Fatalf("BroadcastsSent = %d, want %d", macs[0].Stats.BroadcastsSent, macs[0].Stats.Enqueued)
	}
}

func TestQueueDrainsInFIFOOrder(t *testing.T) {
	engine, macs := testNet(t, 1, geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0})
	var seqs []uint32
	macs[1].Deliver = func(p *packet.Packet, _ packet.NodeID) { seqs = append(seqs, p.Seq) }
	engine.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			macs[0].SendBroadcast(dataPkt(0, uint32(i), 64))
		}
	})
	engine.Run(time.Second)
	if len(seqs) != 10 {
		t.Fatalf("delivered %d of 10", len(seqs))
	}
	for i, s := range seqs {
		if s != uint32(i) {
			t.Fatalf("out-of-order delivery: %v", seqs)
		}
	}
}

// TestUnicastAcknowledged runs the exchange both ways: the receiver's ACK,
// sent a SIFS after the decoded frame is gone, must still name the sender
// (the frame is valid only during the PHY's callback; a copy of its Src is
// kept, and a dangling one would read node 0's ID).
func TestUnicastAcknowledged(t *testing.T) {
	for _, tx := range []packet.NodeID{0, 1} {
		rx := 1 - tx
		engine, macs := testNet(t, 1, geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0})
		delivered := 0
		macs[rx].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
		engine.Schedule(0, func() { macs[tx].SendUnicast(dataPkt(tx, 1, 100), rx) })
		engine.Run(time.Second)
		if delivered != 1 {
			t.Fatalf("n%d→n%d: delivered = %d, want 1", tx, rx, delivered)
		}
		if macs[tx].Stats.UnicastsDelivered != 1 {
			t.Fatalf("n%d→n%d: UnicastsDelivered = %d, want 1", tx, rx, macs[tx].Stats.UnicastsDelivered)
		}
		if macs[tx].Stats.AckTimeouts != 0 {
			t.Fatalf("n%d→n%d: AckTimeouts = %d, want 0", tx, rx, macs[tx].Stats.AckTimeouts)
		}
	}
}

func TestUnicastRetriesThenDrops(t *testing.T) {
	// Receiver out of range: no ACK ever comes back. Small payload keeps
	// the exchange below the RTS threshold so we exercise the ACK path.
	engine, macs := testNet(t, 1, geom.Point{X: 0, Y: 0}, geom.Point{X: 600, Y: 0})
	engine.Schedule(0, func() { macs[0].SendUnicast(dataPkt(0, 1, 10), 1) })
	engine.Run(10 * time.Second)
	wantTx := uint64(DefaultParams().RetryLimit + 1)
	if macs[0].Stats.UnicastsSent != wantTx {
		t.Fatalf("UnicastsSent = %d, want %d", macs[0].Stats.UnicastsSent, wantTx)
	}
	if macs[0].Stats.RetryDrops != 1 {
		t.Fatalf("RetryDrops = %d, want 1", macs[0].Stats.RetryDrops)
	}
	if macs[0].QueueLen() != 0 {
		t.Fatal("queue should drain after retry drop")
	}
}

// TestUnicastRTSCTSForLargeFrames runs the exchange both ways, so the CTS
// and the ACK must each name the sender of a frame the PHY has already
// recycled (see TestUnicastAcknowledged).
func TestUnicastRTSCTSForLargeFrames(t *testing.T) {
	for _, tx := range []packet.NodeID{0, 1} {
		rx := 1 - tx
		engine, macs := testNet(t, 1, geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0})
		delivered := 0
		macs[rx].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
		engine.Schedule(0, func() { macs[tx].SendUnicast(dataPkt(tx, 1, 512), rx) })
		engine.Run(time.Second)
		if delivered != 1 {
			t.Fatalf("n%d→n%d: delivered = %d, want 1", tx, rx, delivered)
		}
		// RTS (20) + DATA + our ACK share of bytes must all be counted at the
		// sender; the receiver sends CTS + ACK.
		if macs[rx].Stats.BytesSent == 0 {
			t.Fatalf("n%d→n%d: receiver sent no control frames; RTS/CTS path not exercised", tx, rx)
		}
		if macs[tx].Stats.CTSTimeouts != 0 || macs[tx].Stats.AckTimeouts != 0 {
			t.Fatalf("n%d→n%d: CTSTimeouts = %d, AckTimeouts = %d, want 0", tx, rx, macs[tx].Stats.CTSTimeouts, macs[tx].Stats.AckTimeouts)
		}
	}
}

func TestUnicastCTSTimeoutOutOfRange(t *testing.T) {
	engine, macs := testNet(t, 1, geom.Point{X: 0, Y: 0}, geom.Point{X: 600, Y: 0})
	engine.Schedule(0, func() { macs[0].SendUnicast(dataPkt(0, 1, 512), 1) })
	engine.Run(10 * time.Second)
	if macs[0].Stats.CTSTimeouts == 0 {
		t.Fatal("expected CTS timeouts for out-of-range RTS")
	}
	if macs[0].Stats.RetryDrops != 1 {
		t.Fatalf("RetryDrops = %d, want 1", macs[0].Stats.RetryDrops)
	}
}

func TestNAVDefersThirdParty(t *testing.T) {
	// Node 2 overhears node 0's RTS (NAV) and must defer its own broadcast
	// until the unicast exchange finishes; everything still gets through.
	engine, macs := testNet(t, 3,
		geom.Point{X: 0, Y: 0}, geom.Point{X: 150, Y: 0}, geom.Point{X: 75, Y: 100})
	delivered := 0
	macs[1].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	engine.Schedule(0, func() { macs[0].SendUnicast(dataPkt(0, 1, 512), 1) })
	engine.Schedule(500*time.Microsecond, func() { macs[2].SendBroadcast(dataPkt(2, 1, 512)) })
	engine.Run(time.Second)
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2 (unicast + overheard broadcast)", delivered)
	}
	if macs[0].Stats.UnicastsDelivered != 1 {
		t.Fatal("unicast was not acknowledged under contention")
	}
}

func TestBytesSentAccounted(t *testing.T) {
	engine, macs := testNet(t, 1, geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0})
	engine.Schedule(0, func() { macs[0].SendBroadcast(dataPkt(0, 1, 512)) })
	engine.Run(time.Second)
	p := dataPkt(0, 1, 512)
	f := packet.Frame{Kind: packet.FrameData, Payload: p}
	if macs[0].Stats.BytesSent != uint64(f.SizeBytes()) {
		t.Fatalf("BytesSent = %d, want %d", macs[0].Stats.BytesSent, f.SizeBytes())
	}
}

func TestNAVExpiryResumesContention(t *testing.T) {
	// A node that overhears an RTS sets its NAV; once the NAV expires it
	// must resume and transmit without any further channel activity.
	engine, macs := testNet(t, 11,
		geom.Point{X: 0, Y: 0}, geom.Point{X: 150, Y: 0}, geom.Point{X: 75, Y: 100})
	delivered := 0
	macs[1].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	// Node 0 starts an RTS/CTS unicast to a nonexistent... no — to node 1,
	// but node 1 is real so the exchange completes; node 2's broadcast
	// queued mid-exchange must still get out afterwards.
	engine.Schedule(0, func() { macs[0].SendUnicast(dataPkt(0, 1, 512), 1) })
	engine.Schedule(200*time.Microsecond, func() { macs[2].SendBroadcast(dataPkt(2, 9, 256)) })
	engine.Run(2 * time.Second)
	if delivered != 2 {
		t.Fatalf("delivered = %d, want unicast + post-NAV broadcast", delivered)
	}
	if macs[2].Stats.BroadcastsSent != 1 {
		t.Fatal("broadcast never left after NAV")
	}
}

func TestEnqueueWhileBusyDefers(t *testing.T) {
	// Enqueueing while another node's frame is on the air must defer, not
	// collide: the receiver gets both frames.
	engine, macs := testNet(t, 12,
		geom.Point{X: 0, Y: 0}, geom.Point{X: 100, Y: 0}, geom.Point{X: 50, Y: 80})
	delivered := 0
	macs[2].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	engine.Schedule(0, func() { macs[0].SendBroadcast(dataPkt(0, 1, 1400)) })
	// 1400B takes ~5.9ms; enqueue at 2ms, mid-flight.
	engine.Schedule(2*time.Millisecond, func() { macs[1].SendBroadcast(dataPkt(1, 1, 256)) })
	engine.Run(time.Second)
	if delivered != 2 {
		t.Fatalf("delivered = %d, want 2", delivered)
	}
}

func TestPowerDownUnblocksDeferringMAC(t *testing.T) {
	// Regression for the SetDown carrier-sense bug: a MAC deferring on a
	// neighbor's frame whose radio is powered down mid-frame must learn the
	// (now unsensed) channel is idle immediately. Pre-fix, SetDown flipped
	// only the down flag, so the MAC kept lastBusy=true and stayed deferring
	// until the neighbor's frame-end event — this test fails there because
	// the broadcast has not left by the 5 ms horizon.
	engine, macs := testNet(t, 21,
		geom.Point{X: 0, Y: 0},   // blocker
		geom.Point{X: 400, Y: 0}) // sender: CS range of blocker, beyond decode
	sender := macs[1]
	// The blocker's frame goes straight onto the air (no MAC contention, so
	// its start time is exact): 2000 B payload is on air ~8.3 ms.
	blockFrame := &packet.Frame{
		Kind: packet.FrameData, Src: 0, Dst: packet.Broadcast, Payload: dataPkt(0, 1, 2000),
	}
	engine.Schedule(0, func() { macs[0].radio.Transmit(blockFrame) })
	// Sender enqueues mid-frame and defers on carrier sense.
	engine.Schedule(time.Millisecond, func() { sender.SendBroadcast(dataPkt(1, 1, 64)) })
	// Sender's radio dies at 2 ms: carrier sense must re-derive to idle and
	// release the MAC. (The radio then drops the frame on the floor, but the
	// MAC-level send completes — that is the unblock under test.)
	engine.Schedule(2*time.Millisecond, func() { sender.radio.SetDown(true) })
	// 5 ms is well past DIFS + max backoff (~0.7 ms after the unblock) and
	// well before the blocker's frame ends (~8.3 ms).
	engine.Run(5 * time.Millisecond)
	if sender.Stats.BroadcastsSent != 1 {
		t.Fatalf("BroadcastsSent = %d at 5 ms; MAC still deferring on a powered-down radio's stale carrier sense",
			sender.Stats.BroadcastsSent)
	}
}

// TestBackoffCountdownAllocatesNothing: a backoff counts down on the MAC's
// own slot timer, so arming it, pausing it on a busy channel and resuming it
// after DIFS allocate nothing (a slot used to cost an Event and a closure —
// three quarters of a run's allocations). A pause that lands exactly on a slot
// boundary takes that slot off when the busy edge was reserved less than a
// slot earlier, as a PHY edge is (the slot's tick would have fired first), and
// leaves it when the pausing event was armed long before.
func TestBackoffCountdownAllocatesNothing(t *testing.T) {
	engine, macs := testNet(t, 3, geom.Point{})
	m := macs[0]
	slot := m.params.SlotTime
	m.SendBroadcast(dataPkt(0, 1, 64))
	m.backoffSlots = 1000 // long enough to pause inside many times
	engine.Run(m.params.DIFS)
	if m.state != stateBackoff {
		t.Fatalf("state = %d after DIFS, want backoff", m.state)
	}
	busy := engine.NewTimer(func() { m.onBusyChanged(true) })
	// pauseAt pauses the countdown at its third boundary with a busy edge
	// reserved lead before it, then lets the channel go idle and resumes.
	pauseAt := func(lead time.Duration) {
		at := engine.Now() + 3*slot
		engine.Run(at - lead)
		busy.ArmReserved(at, engine.ReserveSeq(1), engine.Now())
		engine.Run(at)
		m.onBusyChanged(false)
		engine.Run(engine.Now() + m.params.DIFS)
	}
	pauseAt(2 * time.Microsecond)
	if m.backoffSlots != 997 {
		t.Fatalf("%d slots left after a PHY-edge pause on the third boundary, want 997", m.backoffSlots)
	}
	engine.At(engine.Now()+3*slot, func() { m.onBusyChanged(true) })
	pauseAt(2 * time.Microsecond) // the long-armed pause fires first at that boundary
	if m.backoffSlots != 995 {
		t.Fatalf("%d slots left after a long-armed pause on the third boundary, want 995", m.backoffSlots)
	}
	before := m.backoffSlots
	allocs := testing.AllocsPerRun(100, func() { pauseAt(2 * time.Microsecond) })
	if allocs != 0 {
		t.Fatalf("a pause and resume of the backoff allocates %.1f, want 0", allocs)
	}
	if m.state != stateBackoff || before-m.backoffSlots != 3*101 {
		t.Fatalf("counted down %d slots in state %d; the measurement did not stay inside one backoff",
			before-m.backoffSlots, m.state)
	}
}

// TestResetStopsOwnedTimersAndNodeContendsAgain crashes a MAC at each point
// of a broadcast — waiting out DIFS, counting down slots, frame on the air —
// and requires that Reset leaves nothing of the MAC's on the event queue and
// that the same MAC, with the same timers, sends its next frame normally.
func TestResetStopsOwnedTimersAndNodeContendsAgain(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		name    string
		crashAt time.Duration
		state   macState
	}{
		{"during DIFS", p.DIFS / 2, stateDeferring},
		{"during backoff", p.DIFS + p.SlotTime/2, stateBackoff},
		{"frame on the air", p.DIFS + time.Duration(p.CWMin+1)*p.SlotTime + 100*time.Microsecond, stateTx},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine, macs := testNet(t, 9, geom.Point{}, geom.Point{X: 100})
			m := macs[0]
			delivered := 0
			macs[1].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
			m.SendBroadcast(dataPkt(0, 1, 512))
			m.SendBroadcast(dataPkt(0, 2, 512))
			engine.Run(tc.crashAt)
			if m.state != tc.state {
				t.Fatalf("state = %d at the crash, want %d", m.state, tc.state)
			}
			m.Reset()
			if m.slotTimer.Pending() || m.difsTimer.Pending() || m.txDoneTimer.Pending() {
				t.Fatal("Reset left an owned timer armed")
			}
			// What is still queued belongs to the PHY (a frame already on the
			// air finishes); once it drains nothing may touch the MAC again.
			engine.RunAll()
			if m.state != stateIdle || m.QueueLen() != 0 {
				t.Fatalf("after Reset: state %d, %d queued; a stale timer fired", m.state, m.QueueLen())
			}
			sent, got := m.Stats.BroadcastsSent, delivered
			m.SendBroadcast(dataPkt(0, 3, 512))
			engine.RunAll()
			if m.Stats.BroadcastsSent != sent+1 || delivered != got+1 {
				t.Fatalf("restarted MAC sent %d and delivered %d frames, want 1 and 1",
					m.Stats.BroadcastsSent-sent, delivered-got)
			}
			if m.state != stateIdle {
				t.Fatalf("state = %d after the restarted send, want idle", m.state)
			}
		})
	}
}

// TestQueueFIFOAcrossCycles fills the interface queue past its cap and drains
// it, many times over: the frames go on the air in the order they were
// accepted, the ones over the cap are dropped, and the queue keeps one backing
// array instead of creeping forward through fresh ones. Reset then empties a
// full queue and releases every packet it held.
func TestQueueFIFOAcrossCycles(t *testing.T) {
	engine, macs := testNet(t, 5, geom.Point{}, geom.Point{X: 100})
	m := macs[0]
	qcap := m.params.QueueCap
	var got []uint32
	macs[1].Deliver = func(p *packet.Packet, _ packet.NodeID) { got = append(got, p.Seq) }
	seq := uint32(0)
	var backing *outgoing
	for cycle := 0; cycle < 20; cycle++ {
		got = got[:0]
		var want []uint32
		for i, drops := 0, 0; drops < 3; i++ {
			if m.SendBroadcast(dataPkt(0, seq, 64)) {
				want = append(want, seq)
			} else {
				drops++
			}
			seq++
			// Send a frame or two mid-fill now and then, so the head moves
			// while the tail grows.
			if i%17 == 16 {
				engine.Run(engine.Now() + 2*time.Millisecond)
			}
		}
		if m.QueueLen() != qcap {
			t.Fatalf("cycle %d: %d queued after overfilling, want the cap %d", cycle, m.QueueLen(), qcap)
		}
		engine.RunAll()
		if len(got) != len(want) {
			t.Fatalf("cycle %d: %d frames delivered, want %d", cycle, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cycle %d: frame %d is seq %d, want %d (FIFO order)", cycle, i, got[i], want[i])
			}
		}
		if cycle == 0 {
			backing = &m.queue[:1][0]
		} else if &m.queue[:1][0] != backing {
			t.Fatalf("cycle %d: the queue moved to a new backing array", cycle)
		}
	}
	if m.Stats.QueueDrops == 0 {
		t.Fatal("no frame was dropped at the cap; the test never reached it")
	}

	for m.QueueLen() < qcap {
		m.SendBroadcast(dataPkt(0, seq, 64))
		seq++
	}
	m.Reset()
	if m.QueueLen() != 0 || cap(m.queue) < qcap {
		t.Fatalf("%d queued and room for %d after Reset, want 0 and the cap %d kept", m.QueueLen(), cap(m.queue), qcap)
	}
	for i, o := range m.queue[:cap(m.queue)] {
		if o != (outgoing{}) {
			t.Fatalf("slot %d still holds %+v after Reset; the packet is not released", i, o)
		}
	}
}

// TestBroadcastCycleAllocatesNothing pins the MAC's share of a relayed copy:
// an enqueue, its DIFS and backoff, the broadcast on the air (a stack frame
// the PHY copies), the neighbor's decode and the transmit-end dequeue
// allocate nothing once the queue, the PHY's records and the engine's pool
// are warm.
func TestBroadcastCycleAllocatesNothing(t *testing.T) {
	engine, macs := testNet(t, 11, geom.Point{}, geom.Point{X: 100})
	m := macs[0]
	delivered := 0
	macs[1].Deliver = func(*packet.Packet, packet.NodeID) { delivered++ }
	p := dataPkt(0, 1, 512)
	allocs := testing.AllocsPerRun(100, func() {
		m.SendBroadcast(p)
		engine.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("an enqueue → broadcast → tx-done cycle allocates %.1f, want 0", allocs)
	}
	if delivered != 101 || m.Stats.BroadcastsSent != 101 {
		t.Fatalf("%d sent, %d delivered over 101 cycles; the cycle did not complete", m.Stats.BroadcastsSent, delivered)
	}
}
