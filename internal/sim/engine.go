// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a priority queue of events. All model
// code (PHY, MAC, routing, traffic) runs inside event callbacks on a single
// goroutine, so no locking is needed anywhere in the simulation core.
// Determinism is guaranteed by (a) a strict (time, sequence) ordering of
// events and (b) routing all randomness through seeded sub-streams of one
// root RNG (see RNG).
package sim

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback. The zero Event is invalid; events are
// created through Engine.Schedule / Engine.At.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// argFn/arg are the ScheduleArg form: a static callback plus its
	// argument, so hot paths can schedule without allocating a closure.
	// Exactly one of fn and argFn is set.
	argFn   func(any)
	arg     any
	engine  *Engine
	index   int // heap index; -1 once popped or canceled
	stopped bool
	// pooled marks events created by ScheduleArgPooled: the engine owns the
	// Event and recycles it after the callback returns. Pooled events are
	// never handed to callers, so they can never be Stopped.
	pooled bool
}

// call invokes the event's callback in whichever form it was scheduled.
func (e *Event) call() {
	if e.argFn != nil {
		e.argFn(e.arg)
		return
	}
	e.fn()
}

// Stop cancels the event if it has not fired yet, removing it from the
// engine's queue immediately (so mass cancellation — churn, crashed nodes —
// cannot accumulate dead entries in the heap). Stopping an already-fired or
// already-stopped event is a no-op. Stop reports whether the event was still
// pending.
func (e *Event) Stop() bool {
	if e == nil || e.stopped || e.index == -1 {
		return false
	}
	e.stopped = true
	heap.Remove(&e.engine.queue, e.index)
	return true
}

// eventQueue implements heap.Interface ordered by (time, sequence).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	e, ok := x.(*Event)
	if !ok {
		// Silently dropping a foreign value would corrupt the schedule in a
		// way that only shows up as missing events much later; fail loudly.
		panic("sim: eventQueue.Push called with a non-*Event value")
	}
	e.index = len(*q)
	*q = append(*q, e)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. It is not safe for concurrent use.
type Engine struct {
	now    time.Duration
	seq    uint64
	queue  eventQueue
	halted bool
	rng    *RNG
	// free recycles fired ScheduleArgPooled events. The pool only holds as
	// many events as were ever simultaneously pending, so steady-state
	// scheduling through ScheduleArgPooled allocates nothing.
	free []*Event

	// Processed counts events executed so far; useful for progress reporting
	// and performance benchmarks.
	Processed uint64
}

// NewEngine returns an engine with its clock at zero and a root RNG seeded
// with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// RNG returns the engine's root RNG. Model components should call Split to
// obtain private sub-streams at setup time.
func (e *Engine) RNG() *RNG { return e.rng }

// Schedule runs fn after delay d of virtual time. A negative delay is
// treated as zero (the event fires at the current time, after all events
// already scheduled for that time). It returns the event so callers can
// cancel it.
func (e *Engine) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current time.
func (e *Engine) At(t time.Duration, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	ev := &Event{at: t, seq: e.seq, fn: fn, engine: e}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// ScheduleArg is Schedule for hot paths: instead of capturing state in a
// fresh closure, the event carries a static callback and the argument to
// pass it at fire time, saving one closure allocation per event. The caller
// gets the Event back and may Stop it; fire-and-forget hot paths (the PHY
// fan-out) use ScheduleArgPooled instead. fn must be non-nil. A negative
// delay is treated as zero.
func (e *Engine) ScheduleArg(d time.Duration, fn func(any), arg any) *Event {
	if d < 0 {
		d = 0
	}
	ev := &Event{at: e.now + d, seq: e.seq, argFn: fn, arg: arg, engine: e}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// ScheduleArgPooled is ScheduleArg for fire-and-forget events: the engine
// keeps ownership of the Event and recycles it after the callback returns,
// so steady-state scheduling through this form allocates nothing. Because
// the Event is reused, it is not returned — an event that must be cancelable
// (Stop) has to go through Schedule/ScheduleArg instead, where the caller
// holds the only reference. The PHY fan-out schedules its begin/end arrival
// and transmit-end events through this form.
func (e *Engine) ScheduleArgPooled(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: e.now + d, seq: e.seq, argFn: fn, arg: arg, engine: e, pooled: true}
	} else {
		ev = &Event{at: e.now + d, seq: e.seq, argFn: fn, arg: arg, engine: e, pooled: true}
	}
	e.seq++
	heap.Push(&e.queue, ev)
}

// recycle returns a fired pooled event to the free list. Called by the run
// loops after the callback returns; by then nothing references the event
// (pooled events are never handed out), so it is safe to reuse.
func (e *Engine) recycle(ev *Event) {
	ev.arg, ev.argFn = nil, nil
	e.free = append(e.free, ev)
}

// Run executes events until the queue empties or the clock passes until.
// It returns the virtual time at which it stopped. The clock only advances
// to until when the loop drained: after a Halt it stays at the last executed
// event, so pending earlier events cannot move it backwards on a subsequent
// Run or RunAll.
func (e *Engine) Run(until time.Duration) time.Duration {
	for len(e.queue) > 0 && !e.halted {
		next := e.queue[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.queue)
		e.now = next.at
		e.Processed++
		next.call()
		if next.pooled {
			e.recycle(next)
		}
	}
	if !e.halted && e.now < until {
		e.now = until
	}
	return e.now
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() time.Duration {
	for len(e.queue) > 0 && !e.halted {
		next := e.queue[0]
		heap.Pop(&e.queue)
		e.now = next.at
		e.Processed++
		next.call()
		if next.pooled {
			e.recycle(next)
		}
	}
	return e.now
}

// Halt stops the run loop after the current event returns. Pending events
// remain queued; a subsequent Run continues from where the engine stopped.
func (e *Engine) Halt() { e.halted = true }

// Resume clears a previous Halt.
func (e *Engine) Resume() { e.halted = false }

// Pending returns the exact number of events still queued; canceled events
// are removed from the queue at Stop time and never counted.
func (e *Engine) Pending() int { return len(e.queue) }

// PeekNext returns the scheduled time of the earliest pending event. The
// second result is false when the queue is empty. Real-time drivers use it
// to decide how long to sleep.
func (e *Engine) PeekNext() (time.Duration, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}
