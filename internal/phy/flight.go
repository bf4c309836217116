package phy

import (
	"time"

	"meshcast/internal/packet"
)

// Frames in flight.
//
// Every surviving (frame, receiver) pair needs two callbacks: the signal's
// leading edge at t0 + propDelay (beginArrival) and its trailing edge one
// airtime later (endArrival). Scheduling both for every receiver at transmit
// time put 2·k entries per frame on the event queue — the bulk of all events
// on every workload. Instead a frame is one pooled record holding its arrivals
// in delivery order, (propDelay, list order), and two cursors, one walking the
// leading edges and one the trailing edges.
//
// The keys are the ones per-receiver scheduling in list order would have
// assigned: transmit reserves 2·k consecutive sequence numbers and the
// arrival that survived rank-th in list order fires its begin under base +
// 2·rank and its end under base + 2·rank + 1. Within a cursor the arrivals are
// sorted by exactly that key, so the cursor always stands on its earliest
// remaining one.
//
// The medium merges the cursors of every frame on the air in one small
// min-heap on those keys (Medium.air) and owns the only engine event of the
// PHY's delivery path, armed at the heap's root. When it fires, deliver takes
// the earliest edge, then keeps taking the next for as long as the engine
// confirms (sim.Engine.StepReserved) that nothing on its queue comes first —
// frames that collide or share a backoff slot interleave their edges within a
// propagation delay, and no MAC timer falls between most of them — and arms
// the event again when something does. Since keys are unique every callback
// runs at the instant and in the order it would have were all 2·k queued up
// front.

// arrival is one frame's signal as seen by one receiver. The zero arrival is
// an empty slot of a flight record. It is 24 bytes and, like link, holds no
// pointer (TestRecordLayout): the collector never scans a record's slots, and
// the two stores per arrival — filling its slot in transmit, clearing it in
// deliverRoot — need no write barrier.
type arrival struct {
	power     float64
	delay     int32  // propagation delay in ns when the frame was sent (link.propDelay)
	rank      uint32 // position among the frame's survivors in list order
	rx        int32  // the receiver's attach index plus one; zero in an empty slot
	corrupted bool
}

// receiver returns the radio of an occupied slot's arrival.
func (m *Medium) receiver(a *arrival) *Radio { return m.radios[a.rx-1] }

// flight is the record of one frame on the air. It holds its own copy of the
// frame, so a transmitter's frame can live on its stack; receivers are handed
// &frame, valid for the call (Radio.ReceiveFrame). arrivals has one slot per
// candidate of the transmitter, in delivery order; slots of candidates the
// frame did not reach (faded below the floor, dropped by an impairment) stay
// empty and the cursors step over them. An arrival's slot is cleared when it
// ends, so a record goes back to the pool all zero.
type flight struct {
	medium   *Medium
	frame    packet.Frame
	t0       time.Duration // transmit time
	airtime  time.Duration
	base     uint64 // first of the frame's reserved sequence numbers
	arrivals []arrival
	// beginAt and endAt are the slots the two cursors deliver next.
	beginAt, endAt int
}

// cursor is one entry of the medium's merge heap: the key of the next edge a
// flight's begin (or end) cursor delivers.
type cursor struct {
	at  time.Duration
	seq uint64
	fl  *flight
	end bool
}

// beginCursor and endCursor key the flight's cursors at their current slots.
func (fl *flight) beginCursor() cursor {
	a := &fl.arrivals[fl.beginAt]
	return cursor{at: fl.t0 + time.Duration(a.delay), seq: fl.base + 2*uint64(a.rank), fl: fl}
}

func (fl *flight) endCursor() cursor {
	a := &fl.arrivals[fl.endAt]
	return cursor{at: fl.t0 + time.Duration(a.delay) + fl.airtime, seq: fl.base + 2*uint64(a.rank) + 1, fl: fl, end: true}
}

// newFlight takes a record from the pool (or allocates one) and copies f into
// it; transmit sizes its arrivals once the candidate list is known.
func (m *Medium) newFlight(f *packet.Frame, t0, airtime time.Duration) *flight {
	var fl *flight
	if last := len(m.flightPool) - 1; last >= 0 {
		fl = m.flightPool[last]
		m.flightPool[last] = nil
		m.flightPool = m.flightPool[:last]
	} else {
		fl = &flight{medium: m}
	}
	fl.frame, fl.t0, fl.airtime = *f, t0, airtime
	return fl
}

// size gives the record one empty arrival slot per candidate, n in all.
func (fl *flight) size(n int) {
	if cap(fl.arrivals) < n {
		fl.arrivals = make([]arrival, n)
	}
	fl.arrivals = fl.arrivals[:n]
}

// launch starts the cursors of a record transmit has filled with k arrivals,
// reserving the sequence numbers 2·k per-receiver events would have consumed.
// A frame nobody hears goes straight back to the pool. Inside a delivery the
// loop in deliver arms the event once it is done; outside one the event moves
// if the new frame's first edge is now the earliest in the air.
func (fl *flight) launch(k int) {
	if k == 0 {
		fl.free()
		return
	}
	m := fl.medium
	fl.base = m.engine.ReserveSeq(2 * k)
	fl.beginAt = fl.next(0)
	fl.endAt = fl.beginAt
	begin := fl.beginCursor()
	m.pushCursor(begin)
	m.pushCursor(fl.endCursor())
	if !m.delivering && m.air[0].seq == begin.seq {
		m.edge.ArmReserved(begin.at, begin.seq, fl.t0)
	}
}

// free returns the record, every slot of which has been cleared, to the pool.
func (fl *flight) free() {
	fl.frame = packet.Frame{}
	fl.medium.flightPool = append(fl.medium.flightPool, fl)
}

// next returns the first occupied slot at or after i, or len(arrivals).
func (fl *flight) next(i int) int {
	for i < len(fl.arrivals) && fl.arrivals[i].rx == 0 {
		i++
	}
	return i
}

// deliver is the callback of the medium's event: the edge the event was armed
// for, then every further edge the engine lets through in place.
func (m *Medium) deliver() {
	m.delivering = true
	for {
		m.deliverRoot()
		if len(m.air) == 0 {
			break
		}
		if next := &m.air[0]; !m.engine.StepReserved(next.at, next.seq, next.fl.t0) {
			m.edge.ArmReserved(next.at, next.seq, next.fl.t0)
			break
		}
	}
	m.delivering = false
}

// deliverRoot delivers the edge at the root of the merge heap. The cursor
// moves on to its flight's next arrival (or leaves the heap) first, so the
// heap is in order when the receiver's callbacks run: a MAC answering a
// decoded frame may transmit from inside them, which pushes two cursors.
func (m *Medium) deliverRoot() {
	fl := m.air[0].fl
	if !m.air[0].end {
		a := &fl.arrivals[fl.beginAt]
		if fl.beginAt = fl.next(fl.beginAt + 1); fl.beginAt < len(fl.arrivals) {
			m.replaceRoot(fl.beginCursor())
		} else {
			m.popRoot()
		}
		m.receiver(a).beginArrival(a)
		return
	}
	// A trailing edge; after the last one the record is done. The begin
	// cursor is always ahead (an arrival begins an airtime before it ends),
	// so clearing the slot here cannot hide an arrival from it.
	a := &fl.arrivals[fl.endAt]
	fl.endAt = fl.next(fl.endAt + 1)
	last := fl.endAt == len(fl.arrivals)
	if last {
		m.popRoot()
	} else {
		m.replaceRoot(fl.endCursor())
	}
	m.receiver(a).endArrival(a, &fl.frame)
	*a = arrival{}
	if last {
		fl.free()
	}
}

// The merge heap: a binary min-heap of cursors by (at, seq), held by value.
// It has as many entries as two per frame on the air — a handful on the
// 50-node topology, tens in a 1000-node city — and only ever loses its root,
// so entries need no back-pointers.

func (c *cursor) before(d *cursor) bool {
	return c.at < d.at || (c.at == d.at && c.seq < d.seq)
}

func (m *Medium) pushCursor(c cursor) {
	m.air = append(m.air, c)
	h := m.air
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
}

// replaceRoot puts c, the root cursor's next key, in the root's place.
func (m *Medium) replaceRoot(c cursor) {
	h := m.air
	n := len(h)
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(&h[l]) {
			l = r
		}
		if !h[l].before(&c) {
			break
		}
		h[i] = h[l]
		i = l
	}
	h[i] = c
}

// popRoot drops the root cursor, whose flight has no further edge of its kind.
func (m *Medium) popRoot() {
	n := len(m.air) - 1
	last := m.air[n]
	m.air[n] = cursor{}
	m.air = m.air[:n]
	if n > 0 {
		m.replaceRoot(last)
	}
}
