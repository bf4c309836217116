// Package mac implements an IEEE 802.11-style DCF MAC layer on top of the
// phy package.
//
// Two transmission services are provided, mirroring the distinction the paper
// builds on (§2.1):
//
//   - Broadcast: carrier sense + DIFS + random backoff, then a single
//     transmission. No RTS/CTS, no acknowledgment, no retransmission — a
//     packet has exactly one chance per hop. Multicast data and all ODMRP
//     control packets use this service.
//   - Unicast: optional RTS/CTS exchange (above a size threshold), data,
//     and an ACK, with binary-exponential-backoff retransmissions up to a
//     retry limit. No product path and no example sends unicast; only tests
//     and the benchmark's mac.unicast kernel do.
//
// The MAC always draws a backoff from the contention window before
// transmitting (GloMoSim-style), which is important for flooding protocols
// where many nodes become ready to rebroadcast at the same instant. The
// backoff counts down on one timer (sim.Event.ResetSlots), armed for all the
// remaining slots once the channel has been idle for DIFS; a busy channel
// pauses it and takes the slots that ended off the backoff, as ns-2's 802.11
// MAC does. It fires in the order, and counts the events, of one tick per
// slot.
package mac

import (
	"time"

	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/sim"
	"meshcast/internal/telemetry"
	"meshcast/internal/trace"
)

// Params holds 802.11 DCF timing and behavior constants.
type Params struct {
	// SlotTime is the backoff slot duration.
	SlotTime time.Duration
	// SIFS separates a frame from its control response (CTS/ACK).
	SIFS time.Duration
	// DIFS is the idle time required before contention resumes.
	DIFS time.Duration
	// CWMin and CWMax bound the contention window (slots-1).
	CWMin, CWMax int
	// RetryLimit is the number of unicast (re)transmissions before a frame
	// is dropped.
	RetryLimit int
	// RTSThresholdBytes: unicast frames at least this large are preceded by
	// RTS/CTS. Broadcast never uses RTS/CTS.
	RTSThresholdBytes int
	// QueueCap bounds the interface queue; excess enqueues are dropped.
	QueueCap int
}

// DefaultParams returns 802.11 (DSSS) DCF defaults.
func DefaultParams() Params {
	return Params{
		SlotTime:          20 * time.Microsecond,
		SIFS:              10 * time.Microsecond,
		DIFS:              50 * time.Microsecond,
		CWMin:             31,
		CWMax:             1023,
		RetryLimit:        7,
		RTSThresholdBytes: 256,
		QueueCap:          64,
	}
}

// Stats counts MAC-level outcomes.
type Stats struct {
	// Enqueued counts packets accepted into the interface queue.
	Enqueued uint64
	// QueueDrops counts packets rejected because the queue was full.
	QueueDrops uint64
	// BroadcastsSent counts broadcast data transmissions.
	BroadcastsSent uint64
	// UnicastsSent counts unicast data transmissions (including retries).
	UnicastsSent uint64
	// UnicastsDelivered counts unicast frames positively acknowledged.
	UnicastsDelivered uint64
	// RetryDrops counts unicast frames dropped after exhausting retries.
	RetryDrops uint64
	// AckTimeouts counts missing ACKs; CTSTimeouts counts missing CTSs.
	AckTimeouts, CTSTimeouts uint64
	// BytesSent counts all bytes put on the air, including MAC framing and
	// control frames.
	BytesSent uint64
	// Backoffs counts fresh backoff draws; Retries counts unicast
	// retransmission attempts.
	Backoffs, Retries uint64
}

type macState int

const (
	stateIdle macState = iota + 1
	stateDeferring
	stateBackoff
	stateTx
	stateWaitCTS
	stateWaitACK
)

type outgoing struct {
	pkt *packet.Packet
	dst packet.NodeID
}

// MAC is one node's 802.11 DCF instance.
type MAC struct {
	// Deliver is the upcall for received network packets. transmitter is
	// the MAC-level previous hop.
	Deliver func(p *packet.Packet, transmitter packet.NodeID)
	// Stats accumulates counters.
	Stats Stats
	// QueueDepth, when non-nil, observes the queue length after every
	// successful enqueue; every MAC on a run shares one histogram.
	QueueDepth *telemetry.Histogram
	// Tracer emits packet-journey spans for MAC transmissions and drops
	// (nil disables).
	Tracer *trace.Tracer

	engine *sim.Engine
	radio  *phy.Radio
	rng    *sim.RNG
	params Params

	state        macState
	queue        []outgoing
	cw           int
	retries      int
	backoffSlots int
	navUntil     time.Duration

	// The fixed-callback timers are owned and re-armed (sim.NewTimer), so a
	// backoff or a DIFS wait allocates nothing; each is pending exactly while
	// its wait is in progress.
	slotTimer   *sim.Event // end of the backoff countdown (ResetSlots)
	difsTimer   *sim.Event // end-of-DIFS check
	txDoneTimer *sim.Event // end of a broadcast's airtime
	// The CTS/ACK timeout and the NAV re-check are scheduled per use; nil
	// when not pending.
	timerEvent *sim.Event
	navEvent   *sim.Event
}

// New creates a MAC bound to radio, drawing randomness from a sub-stream of
// the engine's RNG. It panics unless DIFS is longer than a slot, as in every
// 802.11 PHY (DIFS = SIFS + 2·slot): the backoff countdown keeps the per-slot
// order only when the DIFS wait that starts it was armed more than a slot
// before (see package sim).
func New(engine *sim.Engine, radio *phy.Radio, params Params) *MAC {
	if params.DIFS <= params.SlotTime {
		panic("mac: DIFS must be longer than SlotTime")
	}
	m := &MAC{
		engine: engine,
		radio:  radio,
		rng:    engine.RNG().Split(),
		params: params,
		state:  stateIdle,
		cw:     params.CWMin,
	}
	m.slotTimer = engine.NewTimer(m.slotTick)
	m.difsTimer = engine.NewTimer(m.afterDIFS)
	m.txDoneTimer = engine.NewTimer(m.dequeueHead)
	radio.ReceiveFrame = m.onFrame
	radio.BusyChanged = m.onBusyChanged
	return m
}

// ID returns the node ID of the underlying radio.
func (m *MAC) ID() packet.NodeID { return m.radio.ID }

// Reset returns the MAC to idle, dropping every queued frame and canceling
// all pending contention/timeout timers — the volatile-state loss of a node
// crash or power cycle. Counters in Stats are preserved (they model an
// external observer, not on-node state). The owned timers are stopped, not
// discarded: the restarted node re-arms them. That includes the
// end-of-broadcast timer — a frame the crash cut off must not come back and
// dequeue whatever the node queues next.
func (m *MAC) Reset() {
	m.slotTimer.Stop()
	m.difsTimer.Stop()
	m.txDoneTimer.Stop()
	m.timerEvent.Stop()
	m.navEvent.Stop()
	m.timerEvent, m.navEvent = nil, nil
	clear(m.queue) // release the packets; the backing array stays for reuse
	m.queue = m.queue[:0]
	m.state = stateIdle
	m.cw = m.params.CWMin
	m.retries = 0
	m.backoffSlots = 0
	m.navUntil = 0
}

// QueueLen returns the current interface queue length.
func (m *MAC) QueueLen() int { return len(m.queue) }

// SendBroadcast queues p for link-layer broadcast. It reports whether the
// packet was accepted (false means the interface queue was full).
func (m *MAC) SendBroadcast(p *packet.Packet) bool {
	return m.enqueue(outgoing{pkt: p, dst: packet.Broadcast})
}

// SendUnicast queues p for acknowledged unicast delivery to dst.
func (m *MAC) SendUnicast(p *packet.Packet, dst packet.NodeID) bool {
	return m.enqueue(outgoing{pkt: p, dst: dst})
}

func (m *MAC) enqueue(o outgoing) bool {
	if len(m.queue) >= m.params.QueueCap {
		m.Stats.QueueDrops++
		m.Tracer.Span(trace.SpanMACDrop, m.radio.ID, m.radio.ID, o.pkt)
		return false
	}
	m.Stats.Enqueued++
	m.queue = append(m.queue, o)
	m.QueueDepth.Observe(float64(len(m.queue)))
	if m.state == stateIdle {
		m.startContention()
	}
	return true
}

// channelBusy combines physical carrier sense with the NAV (virtual carrier
// sense).
func (m *MAC) channelBusy() bool {
	return m.radio.CarrierBusy() || m.engine.Now() < m.navUntil
}

// startContention begins the DIFS + backoff procedure for the head-of-queue
// frame. A fresh backoff is drawn only when none is pending (a paused
// countdown resumes where it left off, per 802.11).
func (m *MAC) startContention() {
	if len(m.queue) == 0 {
		m.state = stateIdle
		return
	}
	if m.backoffSlots == 0 {
		m.backoffSlots = 1 + m.rng.Intn(m.cw)
		m.Stats.Backoffs++
	}
	if m.channelBusy() {
		m.state = stateDeferring
		m.armNAVCheck()
		return
	}
	m.state = stateDeferring
	m.difsTimer.Reset(m.params.DIFS)
}

func (m *MAC) afterDIFS() {
	if m.state != stateDeferring {
		return
	}
	if m.channelBusy() {
		m.armNAVCheck()
		return
	}
	m.state = stateBackoff
	m.slotTimer.ResetSlots(m.backoffSlots, m.params.SlotTime)
}

// slotTick ends the backoff countdown. The channel is idle: a busy carrier
// stops the countdown (onBusyChanged), and the NAV is only set by decoding a
// frame, during which the carrier was busy and the countdown already paused.
func (m *MAC) slotTick() {
	m.backoffSlots = 0
	m.transmitHead()
}

// armNAVCheck ensures progress when the channel is busy only due to the NAV:
// the radio will not emit a BusyChanged transition for NAV expiry, so
// schedule a re-check.
func (m *MAC) armNAVCheck() {
	if m.navEvent != nil || m.engine.Now() >= m.navUntil {
		return
	}
	until := m.navUntil - m.engine.Now()
	m.navEvent = m.engine.Schedule(until, func() {
		m.navEvent = nil
		m.resumeIfIdle()
	})
}

// resumeIfIdle starts the DIFS wait of a deferring MAC once both carrier
// senses read idle, unless the wait is already running: a NAV that expires at
// the instant the channel falls idle reaches here twice.
func (m *MAC) resumeIfIdle() {
	if m.state == stateDeferring && !m.difsTimer.Pending() && !m.channelBusy() {
		m.difsTimer.Reset(m.params.DIFS)
	}
}

func (m *MAC) onBusyChanged(busy bool) {
	if busy {
		// Cancel any DIFS wait and pause the countdown: the slots that ended
		// come off backoffSlots, the rest resume after the next DIFS.
		m.difsTimer.Stop()
		m.backoffSlots -= m.slotTimer.StopSlots()
		if m.state == stateBackoff {
			m.state = stateDeferring
		}
		return
	}
	// Channel became idle: resume contention after DIFS.
	m.resumeIfIdle()
}

func (m *MAC) transmitHead() {
	if len(m.queue) == 0 {
		m.state = stateIdle
		return
	}
	head := m.queue[0]
	if head.dst == packet.Broadcast {
		m.transmitBroadcast(head)
		return
	}
	m.transmitUnicast(head)
}

func (m *MAC) transmitBroadcast(o outgoing) {
	m.state = stateTx
	f := packet.Frame{Kind: packet.FrameData, Src: m.radio.ID, Dst: packet.Broadcast, Payload: o.pkt}
	airtime := m.radio.Transmit(&f)
	m.Tracer.Span(trace.SpanMACTx, m.radio.ID, m.radio.ID, o.pkt)
	m.Stats.BroadcastsSent++
	m.Stats.BytesSent += uint64(f.SizeBytes())
	// One shot: done regardless of reception anywhere.
	m.txDoneTimer.Reset(airtime)
}

// dequeueHead drops the head frame. The rest shift down in place, so the
// queue keeps its backing array and enqueue appends without reallocating.
func (m *MAC) dequeueHead() {
	if n := len(m.queue); n > 0 {
		copy(m.queue, m.queue[1:])
		m.queue[n-1] = outgoing{}
		m.queue = m.queue[:n-1]
	}
	m.retries = 0
	m.cw = m.params.CWMin
	m.backoffSlots = 0
	m.startContention()
}

func (m *MAC) transmitUnicast(o outgoing) {
	dataFrame := packet.Frame{Kind: packet.FrameData, Src: m.radio.ID, Dst: o.dst, Payload: o.pkt}
	if dataFrame.SizeBytes() >= m.params.RTSThresholdBytes {
		m.state = stateWaitCTS
		// NAV covers CTS + DATA + ACK + 3×SIFS.
		nav := 3*m.params.SIFS +
			m.airtime(packet.CTSBytes) + m.airtime(dataFrame.SizeBytes()) + m.airtime(packet.ACKBytes)
		rts := packet.Frame{Kind: packet.FrameRTS, Src: m.radio.ID, Dst: o.dst, DurationNAV: nav}
		at := m.radio.Transmit(&rts)
		m.Stats.BytesSent += uint64(rts.SizeBytes())
		timeout := at + m.params.SIFS + m.airtime(packet.CTSBytes) + 2*m.params.SlotTime
		m.timerEvent = m.engine.Schedule(timeout, func() {
			m.timerEvent = nil
			if m.state == stateWaitCTS {
				m.Stats.CTSTimeouts++
				m.retryHead()
			}
		})
		return
	}
	m.sendUnicastData(o)
}

func (m *MAC) sendUnicastData(o outgoing) {
	m.state = stateWaitACK
	f := packet.Frame{Kind: packet.FrameData, Src: m.radio.ID, Dst: o.dst, Payload: o.pkt}
	at := m.radio.Transmit(&f)
	m.Tracer.Span(trace.SpanMACTx, m.radio.ID, m.radio.ID, o.pkt)
	m.Stats.UnicastsSent++
	m.Stats.BytesSent += uint64(f.SizeBytes())
	timeout := at + m.params.SIFS + m.airtime(packet.ACKBytes) + 2*m.params.SlotTime
	m.timerEvent = m.engine.Schedule(timeout, func() {
		m.timerEvent = nil
		if m.state == stateWaitACK {
			m.Stats.AckTimeouts++
			m.retryHead()
		}
	})
}

// retryHead doubles the contention window and re-contends for the head
// frame, dropping it once the retry limit is reached.
func (m *MAC) retryHead() {
	m.retries++
	m.Stats.Retries++
	if m.retries > m.params.RetryLimit {
		m.Stats.RetryDrops++
		if len(m.queue) > 0 {
			m.Tracer.Span(trace.SpanMACDrop, m.radio.ID, m.radio.ID, m.queue[0].pkt)
		}
		m.dequeueHead()
		return
	}
	if m.cw < m.params.CWMax {
		m.cw = min(2*(m.cw+1)-1, m.params.CWMax)
	}
	m.backoffSlots = 0 // draw a fresh, larger backoff
	m.startContention()
}

func (m *MAC) airtime(bytes int) time.Duration {
	return m.radio.AirTime(bytes)
}

// onFrame handles every frame the radio decodes. f is the PHY's and valid
// only during the call (phy.Radio.ReceiveFrame): a response scheduled for
// later copies the fields it needs.
func (m *MAC) onFrame(f *packet.Frame) {
	switch f.Kind {
	case packet.FrameData:
		m.onData(f)
	case packet.FrameRTS:
		m.onRTS(f)
	case packet.FrameCTS:
		m.onCTS(f)
	case packet.FrameACK:
		m.onACK(f)
	}
}

func (m *MAC) onData(f *packet.Frame) {
	if f.Dst != packet.Broadcast && f.Dst != m.radio.ID {
		// Overheard unicast for somebody else; nothing to do (the NAV was
		// set by the RTS/CTS if there was one).
		return
	}
	if f.Dst == m.radio.ID {
		// Acknowledge after SIFS. Control responses do not contend.
		src := f.Src
		m.engine.Schedule(m.params.SIFS, func() {
			ack := packet.Frame{Kind: packet.FrameACK, Src: m.radio.ID, Dst: src}
			m.radio.Transmit(&ack)
			m.Stats.BytesSent += uint64(ack.SizeBytes())
		})
	}
	if m.Deliver != nil && f.Payload != nil {
		m.Deliver(f.Payload, f.Src)
	}
}

func (m *MAC) onRTS(f *packet.Frame) {
	if f.Dst != m.radio.ID {
		m.setNAV(f.DurationNAV)
		return
	}
	if m.engine.Now() < m.navUntil {
		return // our own NAV forbids responding
	}
	src, nav := f.Src, f.DurationNAV-m.params.SIFS-m.airtime(packet.CTSBytes)
	m.engine.Schedule(m.params.SIFS, func() {
		cts := packet.Frame{Kind: packet.FrameCTS, Src: m.radio.ID, Dst: src, DurationNAV: nav}
		m.radio.Transmit(&cts)
		m.Stats.BytesSent += uint64(cts.SizeBytes())
	})
}

func (m *MAC) onCTS(f *packet.Frame) {
	if f.Dst != m.radio.ID {
		m.setNAV(f.DurationNAV)
		return
	}
	if m.state != stateWaitCTS || len(m.queue) == 0 {
		return
	}
	if m.timerEvent != nil {
		m.timerEvent.Stop()
		m.timerEvent = nil
	}
	head := m.queue[0]
	m.engine.Schedule(m.params.SIFS, func() {
		if m.state == stateWaitCTS {
			m.sendUnicastData(head)
		}
	})
}

func (m *MAC) onACK(f *packet.Frame) {
	if f.Dst != m.radio.ID || m.state != stateWaitACK {
		return
	}
	if m.timerEvent != nil {
		m.timerEvent.Stop()
		m.timerEvent = nil
	}
	m.Stats.UnicastsDelivered++
	m.dequeueHead()
}

// setNAV extends the virtual carrier sense until now+d if that is later than
// the current NAV.
func (m *MAC) setNAV(d time.Duration) {
	until := m.engine.Now() + d
	if until > m.navUntil {
		m.navUntil = until
	}
}
