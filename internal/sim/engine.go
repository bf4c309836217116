// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a priority queue of events (a 4-ary
// min-heap, see queue.go). All model code (PHY, MAC, routing, traffic) runs
// inside event callbacks on a single goroutine, so no locking is needed
// anywhere in the simulation core. Determinism is guaranteed by (a) a strict
// (time, sequence) ordering of events — sequence numbers never repeat, so the
// firing order is a function of the keys alone — and (b) routing all
// randomness through seeded sub-streams of one root RNG (see RNG).
//
// There are four ways to fire a callback. They fire in the same (time,
// sequence) order and differ only in who owns the Event and what a firing
// costs:
//
//   - Schedule / At: a one-shot closure. Allocates the Event (and usually the
//     closure), returns it so the caller can Stop it. The default; use it
//     wherever the callback captures per-call state or fires rarely.
//   - NewTimer + Event.Reset: a timer the caller owns for its whole life and
//     re-arms. One Event and one callback value for any number of firings, so
//     arming and firing allocate nothing. For fixed-callback timers on hot
//     paths (MAC backoff slots, Ticker). Reset takes its sequence number at
//     the call, exactly where Schedule would.
//   - ScheduleArgPooled: fire-and-forget. The engine owns and recycles the
//     Event, so it cannot be cancelled; a static callback plus an argument
//     replaces the closure.
//   - ReserveSeq + Event.ArmReserved + StepReserved: a cursor over work whose
//     sequence numbers were set aside up front. The owner keeps its sub-events
//     sorted by their reserved (time, sequence) keys and one owned Event
//     stands on the queue for the earliest of them. When it fires the owner
//     delivers that sub-event and then asks StepReserved whether the next one
//     is what the run loop would fire next: if so the engine advances the
//     clock and the event count and the owner delivers it in the same
//     callback, otherwise the owner arms the Event at that key and returns.
//     Keys are unique and the question is asked again after every callback,
//     so the run is event for event what scheduling every sub-event at
//     reservation time would have been, while the queue holds one entry and
//     most sub-events never touch it. The PHY delivers every frame on the air
//     to its receivers this way.
package sim

import (
	"math"
	"time"
)

// Event is a scheduled callback: created armed by Engine.Schedule / At, or
// unarmed by Engine.NewTimer. The zero Event is invalid.
type Event struct {
	at  time.Duration
	seq uint64
	fn  func()
	// argFn/arg are the ScheduleArgPooled form: a static callback plus its
	// argument. Exactly one of fn and argFn is set.
	argFn  func(any)
	arg    any
	engine *Engine
	index  int // position in the queue; -1 while not queued
	// pooled marks events created by ScheduleArgPooled: the engine owns the
	// Event and recycles it after the callback returns. Pooled events are
	// never handed to callers, so they can never be stopped or re-armed.
	pooled bool
}

// Stop cancels the event if it is pending, removing it from the engine's
// queue immediately (so mass cancellation — churn, crashed nodes — cannot
// accumulate dead entries in the heap). Stopping an event that is not queued
// (fired, stopped, never armed, or running its own callback right now) is a
// no-op. Stop reports whether the event was pending. A stopped event can be
// armed again with Reset.
func (ev *Event) Stop() bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	ev.engine.queue.remove(ev)
	return true
}

// Pending reports whether the event is queued to fire. It is false inside the
// event's own callback.
func (ev *Event) Pending() bool { return ev.index >= 0 }

// Reset arms the event to fire after delay d (negative is treated as zero),
// taking a fresh sequence number: the firing is indistinguishable from a
// Schedule(d, fn) made at the same point. Resetting a pending event moves it
// — the earlier arming is dropped, as by Stop — so one Event never fires
// twice for one Reset.
func (ev *Event) Reset(d time.Duration) {
	e := ev.engine
	if d < 0 {
		d = 0
	}
	ev.arm(e.now+d, e.seq)
	e.seq++
}

// ArmReserved arms the event at absolute time t (clamped to the current time)
// under a sequence number obtained from ReserveSeq. The caller is responsible
// for using each reserved number at most once; see the package comment for
// what the form is for.
func (ev *Event) ArmReserved(t time.Duration, seq uint64) {
	if t < ev.engine.now {
		t = ev.engine.now
	}
	ev.arm(t, seq)
}

// arm queues the event under the key (t, seq), moving it if it is already
// queued.
func (ev *Event) arm(t time.Duration, seq uint64) {
	if ev.index >= 0 {
		ev.engine.queue.rekey(ev, t, seq)
		return
	}
	ev.at, ev.seq = t, seq
	ev.engine.queue.push(ev)
}

// Engine is a discrete-event simulator. It is not safe for concurrent use.
type Engine struct {
	now time.Duration
	// until is the bound of the Run or RunAll in progress, which StepReserved
	// must respect like the loop itself does; negative outside a run.
	until  time.Duration
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
	// InPlace counts the events among Processed that StepReserved fired
	// without a trip through the queue.
	InPlace uint64
}

// NewEngine returns an engine with its clock at zero and a root RNG seeded
// with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRNG(seed), until: -1}
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
	ev := e.NewTimer(fn)
	ev.Reset(d)
	return ev
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the current time.
func (e *Engine) At(t time.Duration, fn func()) *Event {
	return e.Schedule(t-e.now, fn)
}

// NewTimer returns an unarmed event bound to fn. The caller owns it: Reset
// (or ArmReserved) arms it, Stop cancels it, and it can be armed again after
// it fired or was stopped — including from inside fn — without allocating.
func (e *Engine) NewTimer(fn func()) *Event {
	return &Event{fn: fn, engine: e, index: -1}
}

// ReserveSeq sets aside n consecutive sequence numbers and returns the first.
// Events armed under them (Event.ArmReserved) tie-break as if they had been
// scheduled at the moment of the reservation, whenever they are actually
// queued.
func (e *Engine) ReserveSeq(n int) uint64 {
	first := e.seq
	e.seq += uint64(n)
	return first
}

// StepReserved reports whether a sub-event with the reserved key (t, seq), t
// clamped to the current time as by ArmReserved, is what the run loop would
// fire next were it queued: the engine is inside a run that has not been
// halted, t is within the run's bound, and the key precedes every queued
// event. If so the engine counts the event and advances the clock to t, and
// the caller — inside its own event's callback — runs the sub-event at once;
// if not it changes nothing, and the caller arms its event at the key. See the
// package comment.
func (e *Engine) StepReserved(t time.Duration, seq uint64) bool {
	if t < e.now {
		t = e.now
	}
	if e.halted || t > e.until || !e.queue.allAfter(t, seq) {
		return false
	}
	e.now = t
	e.Processed++
	e.InPlace++
	return true
}

// ScheduleArgPooled schedules fn(arg) after delay d (negative is treated as
// zero) as a fire-and-forget event: the engine keeps ownership of the Event
// and recycles it after the callback returns, so steady-state scheduling
// through this form allocates nothing. Because the Event is reused, it is not
// returned — an event that must be cancelable has to go through Schedule or
// NewTimer instead, where the caller holds the only reference. fn must be
// non-nil. The PHY schedules its transmit-end events through this form.
func (e *Engine) ScheduleArgPooled(d time.Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.argFn, ev.arg = fn, arg
	} else {
		ev = &Event{argFn: fn, arg: arg, engine: e, index: -1, pooled: true}
	}
	ev.arm(e.now+d, e.seq)
	e.seq++
}

// fire pops the earliest event, which the caller has checked exists, advances
// the clock to it and runs it. The event is off the queue while its callback
// runs, so the callback may Stop it (a no-op) or re-arm it freely. A fired
// pooled event returns to the free list: nothing else references it.
func (e *Engine) fire() {
	ev := e.queue.popMin()
	e.now = ev.at
	e.Processed++
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.argFn(ev.arg)
	}
	if ev.pooled {
		ev.arg, ev.argFn = nil, nil
		e.free = append(e.free, ev)
	}
	e.queue.close()
}

// Run executes events until the queue empties or the clock passes until.
// It returns the virtual time at which it stopped. The clock only advances
// to until when the loop drained: after a Halt it stays at the last executed
// event, so pending earlier events cannot move it backwards on a subsequent
// Run or RunAll.
func (e *Engine) Run(until time.Duration) time.Duration {
	e.until = until
	for e.queue.len() > 0 && !e.halted && e.queue.min().at <= until {
		e.fire()
	}
	e.until = -1
	if !e.halted && e.now < until {
		e.now = until
	}
	return e.now
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() time.Duration {
	e.until = math.MaxInt64
	for e.queue.len() > 0 && !e.halted {
		e.fire()
	}
	e.until = -1
	return e.now
}

// Halt stops the run loop after the current event returns. Pending events
// remain queued; a subsequent Run continues from where the engine stopped.
func (e *Engine) Halt() { e.halted = true }

// Resume clears a previous Halt.
func (e *Engine) Resume() { e.halted = false }

// Pending returns the exact number of events still queued; canceled events
// are removed from the queue at Stop time and never counted.
func (e *Engine) Pending() int { return e.queue.len() }

// PeekNext returns the scheduled time of the earliest pending event. The
// second result is false when the queue is empty. Real-time drivers use it
// to decide how long to sleep.
func (e *Engine) PeekNext() (time.Duration, bool) {
	if e.queue.len() == 0 {
		return 0, false
	}
	return e.queue.min().at, true
}
