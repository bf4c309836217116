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
// There are five ways to fire a callback. They fire in the same (time,
// sequence) order and differ only in who owns the Event and what a firing
// costs:
//
//   - Schedule / At: a one-shot closure. Allocates the Event (and usually the
//     closure), returns it so the caller can Stop it. The default; use it
//     wherever the callback captures per-call state or fires rarely.
//   - NewTimer + Event.Reset: a timer the caller owns for its whole life and
//     re-arms. One Event and one callback value for any number of firings, so
//     arming and firing allocate nothing. For fixed-callback timers on hot
//     paths (the MAC's DIFS and transmit-end timers, Ticker). Reset takes its
//     sequence number at the call, exactly where Schedule would.
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
//   - Event.ResetSlots + Event.StopSlots: a countdown of n slots on an owned
//     timer — one queue entry for the whole count instead of one per slot. It
//     fires, and counts events, exactly as n chained Reset(slot) calls would
//     have (one "tick" per slot boundary, the callback at the last), and
//     StopSlots pauses it and says how many slots ended, so the owner keeps
//     the rest for later. For a wait counted in whole slots that can be
//     paused, where only the end does work: the MAC's backoff.
//
// A countdown waits on the queue at its next-to-last boundary, under a key
// that sorts behind every ordinary event of that instant; countdowns waiting
// at one instant fire latest-started first, then in the order they were
// armed. When it fires there it takes a fresh sequence number for the last
// slot, as the tick it stands for would have, and from then on it is an
// ordinary timer. The boundaries it skipped are still events: they are added
// to Processed (and InPlace, since they never touched the queue) when the
// countdown fires, when it stops and when Run or RunAll returns, and Events
// includes them at any moment. Whether a boundary at the current instant has
// passed depends on the event running now: a tick armed one slot earlier came
// before it exactly when it was armed (or its number reserved) less than one
// slot ago — a PHY edge, which arrives within a propagation delay of its
// reservation, but not a fault or a telemetry sample scheduled long before.
// After Run returns every boundary up to its bound has passed.
//
// That per-slot order is reproduced under two assumptions, which the MAC
// upholds and the countdown oracle test exercises:
//
//   - the event that starts a countdown was armed more than one slot before
//     (the MAC's DIFS wait is longer than a slot; mac.New refuses otherwise),
//     and countdowns that meet at one instant count the same slot length;
//   - nothing else arms an event exactly one slot ahead, so no other event
//     can tie with a tick's key at the instant the tick would have fired.
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
	// armed is when seq was taken, or reserved (ArmReserved). A countdown
	// reads it off the running event (see the package comment).
	armed time.Duration
	fn    func()
	// argFn/arg are the ScheduleArgPooled form: a static callback plus its
	// argument. Exactly one of fn and argFn is set.
	argFn  func(any)
	arg    any
	engine *Engine
	// cd is the countdown state of an event ever armed by ResetSlots.
	cd    *countdown
	index int32 // position in the queue; -1 while not queued
	// pooled marks events created by ScheduleArgPooled: the engine owns the
	// Event and recycles it after the callback returns. Pooled events are
	// never handed to callers, so they can never be stopped or re-armed.
	pooled bool
}

// countdown is the state of an Event armed by ResetSlots: n slots from start.
type countdown struct {
	start   time.Duration
	slot    time.Duration
	n       int
	counted int // skipped boundaries (1 … n-2) already added to Processed
	// waiting is the countdown's position in Engine.waiting while it waits at
	// boundary n-1; -1 once it runs its last slot as an ordinary timer.
	waiting int
}

// waitKeys is the bottom of the sequence numbers waiting countdowns are
// queued under; ordinary numbers never get there. waitBlock numbers are set
// aside per instant at which countdowns start: 2^43 such instants, each with
// room for 2^20 countdowns.
const (
	waitKeys  = 1 << 63
	waitBlock = 1 << 20
)

// Stop cancels the event if it is pending, removing it from the engine's
// queue immediately (so mass cancellation — churn, crashed nodes — cannot
// accumulate dead entries in the heap). Stopping an event that is not queued
// (fired, stopped, never armed, or running its own callback right now) is a
// no-op. Stop reports whether the event was pending. A stopped event can be
// armed again with Reset. Stopping a countdown counts the slots that ended,
// as StopSlots does.
func (ev *Event) Stop() bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	if ev.cd != nil {
		ev.StopSlots()
		return true
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
	ev.leaveCountdown()
	ev.arm(e.now+d, e.seq, e.now)
	e.seq++
}

// ArmReserved arms the event at absolute time t (clamped to the current time)
// under a sequence number obtained from ReserveSeq at time reserved. The
// caller is responsible for using each reserved number at most once; see the
// package comment for what the form is for.
func (ev *Event) ArmReserved(t time.Duration, seq uint64, reserved time.Duration) {
	if t < ev.engine.now {
		t = ev.engine.now
	}
	ev.leaveCountdown()
	ev.arm(t, seq, reserved)
}

// ResetSlots arms the event to fire at the end of the n-th slot of length
// slot from now (n below 1 counts as 1), in the order and at the event count
// of n chained Reset(slot) calls; see the package comment. An earlier arming
// is dropped, as by Stop. slot must be positive.
func (ev *Event) ResetSlots(n int, slot time.Duration) {
	if slot <= 0 {
		panic("sim: ResetSlots needs a positive slot")
	}
	ev.Stop()
	e := ev.engine
	if ev.cd == nil {
		ev.cd = &countdown{}
	}
	*ev.cd = countdown{start: e.now, slot: slot, n: max(n, 1), waiting: -1}
	if n <= 1 {
		ev.arm(e.now+slot, e.seq, e.now)
		e.seq++
		return
	}
	ev.cd.waiting = len(e.waiting)
	e.waiting = append(e.waiting, ev)
	ev.arm(e.now+time.Duration(n-1)*slot, e.waitKey(), e.now)
}

// StopSlots stops an event armed by ResetSlots and returns how many of its
// slots have ended: every boundary before now, and the one at now if the
// event running now was armed less than one slot ago. It returns 0 when the
// event is not pending, and stops an event armed otherwise as Stop does.
func (ev *Event) StopSlots() int {
	cd := ev.cd
	if ev.index < 0 || cd == nil {
		ev.Stop()
		return 0
	}
	e := ev.engine
	e.queue.remove(ev)
	if cd.waiting < 0 {
		return cd.n - 1 // in its last slot
	}
	done := e.slotsEnded(cd)
	e.count(done - cd.counted)
	e.unwait(cd)
	return done
}

// leaveCountdown turns an event armed by ResetSlots back into an ordinary
// one before it is armed otherwise, counting the boundaries it has passed.
func (ev *Event) leaveCountdown() {
	if ev.cd != nil {
		ev.StopSlots()
		ev.cd.n = 1
	}
}

// arm queues the event under the key (t, seq) taken at time armed, moving it
// if it is already queued.
func (ev *Event) arm(t time.Duration, seq uint64, armed time.Duration) {
	ev.armed = armed
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
	until time.Duration
	seq   uint64
	queue eventQueue
	rng   *RNG
	// free recycles fired ScheduleArgPooled events. The pool only holds as
	// many events as were ever simultaneously pending, so steady-state
	// scheduling through ScheduleArgPooled allocates nothing.
	free []*Event
	// armed is when the running event's sequence number was taken (Event.armed,
	// or the reservation StepReserved was handed); after a drained run, the
	// bound.
	armed time.Duration
	// waiting holds the countdowns queued at their next-to-last boundary.
	waiting []*Event
	// waitBase and waitNext are the first and next waiting-countdown keys of
	// the instant waitAt; see waitKey.
	waitBase, waitNext uint64
	waitAt             time.Duration

	// Processed counts events executed so far; useful for progress reporting
	// and performance benchmarks. The slot boundaries a countdown skips are
	// added when it fires or stops and when a run returns; Events counts them
	// as they pass.
	Processed uint64
	// InPlace counts the events among Processed that never went through the
	// queue: sub-events StepReserved fired in place and skipped countdown
	// boundaries.
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
// fire next were it queued: the engine is inside a run, t is within the
// run's bound, and the key precedes every queued event. If so the engine
// counts the event and advances the clock to t, and the caller — inside its
// own event's callback — runs the sub-event at once; if not it changes
// nothing, and the caller arms its event at the key. See the package
// comment.
func (e *Engine) StepReserved(t time.Duration, seq uint64, reserved time.Duration) bool {
	if t < e.now {
		t = e.now
	}
	if t > e.until || !e.queue.allAfter(t, seq) {
		return false
	}
	e.now, e.armed = t, reserved
	e.Processed++
	e.InPlace++
	return true
}

// waitKey returns the queue sequence number for a countdown that starts now.
// The numbers run down from the top of the range one block per instant at
// which countdowns start, and up within a block, so a waiting countdown sorts
// behind every ordinary event of its instant, before those started earlier
// and after those armed before it at the same instant.
func (e *Engine) waitKey() uint64 {
	if e.waitNext == 0 || e.now != e.waitAt {
		e.waitBase -= waitBlock // from zero, wraps to the top block
		e.waitNext, e.waitAt = e.waitBase, e.now
	}
	e.waitNext++
	return e.waitNext - 1
}

// slotsEnded returns how many boundaries of the waiting countdown cd have
// passed by now; see the package comment for the one at now.
func (e *Engine) slotsEnded(cd *countdown) int {
	since := e.now - cd.start
	k := int(since / cd.slot)
	if k > 0 && since%cd.slot == 0 && e.now-e.armed >= cd.slot {
		k--
	}
	return k
}

// count adds k skipped countdown boundaries to the event counts.
func (e *Engine) count(k int) {
	e.Processed += uint64(k)
	e.InPlace += uint64(k)
}

// unwait takes cd off the waiting list.
func (e *Engine) unwait(cd *countdown) {
	last := len(e.waiting) - 1
	moved := e.waiting[last]
	e.waiting[cd.waiting] = moved
	moved.cd.waiting = cd.waiting
	e.waiting[last] = nil
	e.waiting = e.waiting[:last]
	cd.waiting = -1
}

// lastSlot fires a countdown at its next-to-last boundary: fire has counted
// that boundary, the skipped ones before it are counted here, and the event
// is armed for the last slot under a fresh number, as the tick it stands for
// would have re-armed itself.
func (e *Engine) lastSlot(ev *Event) {
	cd := ev.cd
	e.count(cd.n - 2 - cd.counted)
	e.unwait(cd)
	ev.arm(e.now+cd.slot, e.seq, e.now)
	e.seq++
}

// uncounted returns how many boundaries the waiting countdown cd has passed
// and not yet added to Processed, short of the one it waits at, which its
// firing counts.
func (e *Engine) uncounted(cd *countdown) int {
	return min(e.slotsEnded(cd), cd.n-2) - cd.counted
}

// settle counts the boundaries waiting countdowns have passed.
func (e *Engine) settle() {
	for _, ev := range e.waiting {
		k := e.uncounted(ev.cd)
		e.count(k)
		ev.cd.counted += k
	}
}

// Events returns Processed and InPlace as they stand now, with the
// boundaries waiting countdowns have passed but not yet added.
func (e *Engine) Events() (processed, inPlace uint64) {
	var pending uint64
	for _, ev := range e.waiting {
		pending += uint64(e.uncounted(ev.cd))
	}
	return e.Processed + pending, e.InPlace + pending
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
	ev.arm(e.now+d, e.seq, e.now)
	e.seq++
}

// fire pops the earliest event, which the caller has checked exists, advances
// the clock to it and runs it. The event is off the queue while its callback
// runs, so the callback may Stop it (a no-op) or re-arm it freely. A fired
// pooled event returns to the free list: nothing else references it.
func (e *Engine) fire() {
	ev := e.queue.popMin()
	e.now, e.armed = ev.at, ev.armed
	e.Processed++
	switch {
	case ev.seq >= waitKeys:
		e.lastSlot(ev)
	case ev.fn != nil:
		ev.fn()
	default:
		ev.argFn(ev.arg)
	}
	if ev.pooled {
		ev.arg, ev.argFn = nil, nil
		e.free = append(e.free, ev)
	}
	e.queue.close()
}

// Run executes every event due at or before until, then advances the clock
// to until (never back: a Run whose bound is already past leaves it where
// it is). It returns the virtual time at which it stopped.
func (e *Engine) Run(until time.Duration) time.Duration {
	e.until = until
	for e.queue.len() > 0 && e.queue.min().at <= until {
		e.fire()
	}
	e.until = -1
	e.now = max(e.now, until)
	e.armed = e.now
	e.settle()
	return e.now
}

// RunAll executes events until the queue is empty.
func (e *Engine) RunAll() time.Duration {
	e.until = math.MaxInt64
	for e.queue.len() > 0 {
		e.fire()
	}
	e.until = -1
	e.armed = e.now
	e.settle()
	return e.now
}

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
