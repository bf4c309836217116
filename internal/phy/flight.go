package phy

import (
	"time"

	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// A frame in flight.
//
// Every surviving (frame, receiver) pair needs two callbacks: the signal's
// leading edge at t0 + propDelay (beginArrival) and its trailing edge one
// airtime later (endArrival). Scheduling both for every receiver at transmit
// time put 2·k entries per frame on the event queue — the bulk of all events
// on every workload. Instead a frame is one pooled record holding its arrivals
// in delivery order, (propDelay, list order), and two cursor events: each
// delivers one arrival per firing and re-arms itself at the next arrival's
// key, so the queue holds two entries per frame on the air.
//
// The keys are the ones per-receiver scheduling in list order would have
// assigned: transmit reserves 2·k consecutive sequence numbers and the
// arrival that survived rank-th in list order fires its begin under base +
// 2·rank and its end under base + 2·rank + 1. Within a cursor the arrivals are
// sorted by exactly that key, so the cursor always holds its earliest
// remaining one, and since keys are unique the engine pops the same callbacks
// in the same order as if all 2·k had been queued up front.

// arrival is one frame's signal as seen by one receiver. The zero arrival is
// an empty slot of a flight record.
type arrival struct {
	rx        *Radio
	power     float64
	delay     time.Duration // propagation delay when the frame was sent
	rank      uint32        // position among the frame's survivors in list order
	corrupted bool
}

// flight is the record of one frame on the air. arrivals has one slot per
// candidate of the transmitter, in delivery order; slots of candidates the
// frame did not reach (faded below the floor, dropped by an impairment) stay
// empty and the cursors step over them. An arrival's slot is cleared when it
// ends, so a record goes back to the pool all zero.
type flight struct {
	medium   *Medium
	frame    *packet.Frame
	t0       time.Duration // transmit time
	airtime  time.Duration
	base     uint64 // first of the frame's reserved sequence numbers
	arrivals []arrival
	// beginAt and endAt are the slots the two cursors deliver next.
	beginAt, endAt int
	begin, end     *sim.Event
}

// newFlight takes a record from the pool (or allocates one, with its two
// cursor events) and sizes it for a transmitter with n candidates.
func (m *Medium) newFlight(f *packet.Frame, t0, airtime time.Duration, n int) *flight {
	var fl *flight
	if last := len(m.flightPool) - 1; last >= 0 {
		fl = m.flightPool[last]
		m.flightPool[last] = nil
		m.flightPool = m.flightPool[:last]
	} else {
		fl = &flight{medium: m}
		fl.begin = m.engine.NewTimer(fl.deliverBegin)
		fl.end = m.engine.NewTimer(fl.deliverEnd)
	}
	fl.frame, fl.t0, fl.airtime = f, t0, airtime
	if cap(fl.arrivals) < n {
		fl.arrivals = make([]arrival, n)
	}
	fl.arrivals = fl.arrivals[:n]
	return fl
}

// launch starts the cursors of a record transmit has filled with k arrivals,
// reserving the sequence numbers 2·k per-receiver events would have consumed.
// A frame nobody hears goes straight back to the pool.
func (fl *flight) launch(k int) {
	if k == 0 {
		fl.free()
		return
	}
	fl.base = fl.medium.engine.ReserveSeq(2 * k)
	fl.beginAt = fl.next(0)
	fl.endAt = fl.beginAt
	fl.armBegin()
	fl.armEnd()
}

// free returns the record, every slot of which has been cleared, to the pool.
func (fl *flight) free() {
	fl.frame = nil
	fl.medium.flightPool = append(fl.medium.flightPool, fl)
}

// next returns the first occupied slot at or after i, or len(arrivals).
func (fl *flight) next(i int) int {
	for i < len(fl.arrivals) && fl.arrivals[i].rx == nil {
		i++
	}
	return i
}

func (fl *flight) armBegin() {
	a := &fl.arrivals[fl.beginAt]
	fl.begin.ArmReserved(fl.t0+a.delay, fl.base+2*uint64(a.rank))
}

func (fl *flight) armEnd() {
	a := &fl.arrivals[fl.endAt]
	fl.end.ArmReserved(fl.t0+a.delay+fl.airtime, fl.base+2*uint64(a.rank)+1)
}

// deliverBegin is the begin cursor's callback: one leading edge. The cursor
// moves on to the next arrival first — the keys are fixed, so the order does
// not matter to the run, and the engine re-queues an event cheapest when it is
// the first thing its callback does.
func (fl *flight) deliverBegin() {
	a := &fl.arrivals[fl.beginAt]
	if fl.beginAt = fl.next(fl.beginAt + 1); fl.beginAt < len(fl.arrivals) {
		fl.armBegin()
	}
	a.rx.beginArrival(a)
}

// deliverEnd is the end cursor's callback: one trailing edge; after the last
// one the record is done. The begin cursor is always ahead (an arrival begins
// an airtime before it ends), so clearing the slot here cannot hide an
// arrival from it.
func (fl *flight) deliverEnd() {
	a := &fl.arrivals[fl.endAt]
	fl.endAt = fl.next(fl.endAt + 1)
	last := fl.endAt == len(fl.arrivals)
	if !last {
		fl.armEnd()
	}
	a.rx.endArrival(a, fl.frame)
	*a = arrival{}
	if last {
		fl.free()
	}
}
