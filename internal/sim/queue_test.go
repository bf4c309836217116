package sim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"
)

// checkHeap verifies the queue's two structural invariants: every event knows
// its own position, and no event fires before its parent.
func checkHeap(t *testing.T, queue eventQueue, when string) {
	t.Helper()
	if queue.open {
		t.Fatalf("%s: the root is open outside a callback", when)
	}
	q := queue.heap
	for i, ev := range q {
		if int(ev.index) != i {
			t.Fatalf("%s: event at position %d records index %d", when, i, ev.index)
		}
		if i > 0 && before(ev, q[(i-1)/4]) {
			t.Fatalf("%s: event at position %d (%v, %d) fires before its parent at %d (%v, %d)",
				when, i, ev.at, ev.seq, (i-1)/4, q[(i-1)/4].at, q[(i-1)/4].seq)
		}
	}
}

// TestEventQueueMatchesSortedReference drives random interleavings of push,
// pop-min, Stop of a random pending event and Reset of a random pending event
// against a sorted slice, holding the queue at sizes on both sides of every
// 4-ary level boundary (a tree of full levels has 1, 5, 21, 85, 341 nodes) and
// drawing timestamps from a handful of values so that most comparisons fall
// through to the sequence number. Every popped event's callback runs a short
// random program of the same operations, which is where the root is open: the
// first push fills it, anything else has to close it first — except allAfter,
// which is checked against the reference in both states. The structural
// check after every operation is what catches a sift-down that skips a last,
// partial group of children or a removal that only sifts one way, at the
// operation that broke the heap.
func TestEventQueueMatchesSortedReference(t *testing.T) {
	for _, size := range []int{0, 1, 2, 4, 5, 6, 20, 21, 22, 84, 85, 86, 340, 341, 342} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			rng := NewRNG(uint64(size) + 99)
			e := NewEngine(1)
			var ref []*Event // pending events, sorted by (at, seq)
			var fired []*Event
			var inside func() // what the next popped event does in its callback
			sortRef := func() {
				slices.SortFunc(ref, func(a, b *Event) int {
					if d := cmp.Compare(a.at, b.at); d != 0 {
						return d
					}
					return cmp.Compare(a.seq, b.seq)
				})
			}
			delay := func() time.Duration { return time.Duration(rng.Intn(7)) * time.Millisecond }
			// checkAllAfter asks the queue, root open or closed, about the keys
			// either side of the boundary: the earliest event's own key and
			// the ones just before it in sequence and in time (which no event
			// holds: it would sort first).
			checkAllAfter := func() {
				if len(ref) == 0 {
					if !e.queue.allAfter(0, 0) {
						t.Fatal("allAfter false on an empty queue")
					}
					return
				}
				first := ref[0]
				if e.queue.allAfter(first.at, first.seq) || !e.queue.allAfter(first.at-1, first.seq) ||
					(first.seq > 0 && !e.queue.allAfter(first.at, first.seq-1)) {
					t.Fatalf("allAfter misplaces the earliest event (%v, %d), root open: %v", first.at, first.seq, e.queue.open)
				}
			}
			push := func() {
				var ev *Event
				ev = e.Schedule(delay(), func() {
					fired = append(fired, ev)
					if inside != nil {
						inside()
					}
				})
				ref = append(ref, ev)
			}
			stop := func() {
				i := rng.Intn(len(ref))
				if !ref[i].Stop() {
					t.Fatal("Stop on a pending event returned false")
				}
				ref = slices.Delete(ref, i, i+1)
			}
			rekey := func() { ref[rng.Intn(len(ref))].Reset(delay()) }
			// mutate performs one random operation other than pop-min,
			// steering the queue towards the target size.
			mutate := func() {
				grow := rng.Intn(4) > 0
				if len(ref) > size {
					grow = !grow
				}
				switch {
				case grow || len(ref) == 0:
					push()
				case rng.Intn(3) == 0:
					rekey()
				default:
					stop()
				}
				sortRef()
				if e.Pending() != len(ref) {
					t.Fatalf("%d pending, reference has %d", e.Pending(), len(ref))
				}
				checkAllAfter()
			}
			for step := 0; step < 3000; step++ {
				if len(ref) == 0 || rng.Intn(3) > 0 {
					mutate()
					checkHeap(t, e.queue, "after a push, Stop or Reset")
					continue
				}
				want := ref[0]
				ref = ref[1:]
				fired = fired[:0]
				inside = func() {
					if e.Pending() != len(ref) {
						t.Fatalf("%d pending inside a callback, reference has %d", e.Pending(), len(ref))
					}
					checkAllAfter() // the root is open here
					for n := rng.Intn(4); n > 0; n-- {
						mutate()
					}
				}
				e.fire()
				inside = nil
				if len(fired) != 1 || fired[0] != want {
					t.Fatalf("step %d: pop-min fired the wrong event", step)
				}
				checkHeap(t, e.queue, "after pop-min and its callback")
			}
			// Drain: the rest must come out in reference order.
			fired = fired[:0]
			e.RunAll()
			if !slices.Equal(fired, ref) {
				t.Fatal("drain order differs from the sorted reference")
			}
		})
	}
}

// subEvent is one callback of a frame in TestDeferredCursorsMatchEagerScheduling.
type subEvent struct {
	delay time.Duration
	label int
}

// cursorFrame is a frame of the deferred and merged modes: its sub-events, the
// order its cursors walk them in and the keys it reserved.
type cursorFrame struct {
	subs []subEvent
	walk []int // list positions in (delay, position) order
	t0   time.Duration
	air  time.Duration
	base uint64
}

// frameCursor walks the begin or the end callbacks of one frame.
type frameCursor struct {
	fr  *cursorFrame
	end bool
	at  int // position in fr.walk of the sub-event it delivers next
}

// key is the reserved key of the callback the cursor delivers next, label that
// callback's label.
func (c *frameCursor) key() (time.Duration, uint64) {
	i := c.fr.walk[c.at]
	when, seq := c.fr.t0+c.fr.subs[i].delay, c.fr.base+2*uint64(i)
	if c.end {
		when, seq = when+c.fr.air, seq+1
	}
	return when, seq
}

// arm arms ev at the cursor's key, reserved when the frame started.
func (c *frameCursor) arm(ev *Event) {
	when, seq := c.key()
	ev.ArmReserved(when, seq, c.fr.t0)
}

func (c *frameCursor) label() int {
	l := c.fr.subs[c.fr.walk[c.at]].label
	if c.end {
		l++
	}
	return l
}

// firing is one callback as a run saw it; label -1 marks a return of Run.
type firing struct {
	label int
	now   time.Duration
}

// The three ways TestDeferredCursorsMatchEagerScheduling runs a frame.
const (
	eager    = iota // every callback scheduled up front
	deferred        // two self-re-arming cursor events per frame
	merged          // all frames' cursors behind one event, stepped in place
)

// TestDeferredCursorsMatchEagerScheduling is the engine-level statement of
// what the PHY relies on. A "frame" is a list of sub-events, each with a begin
// and an end callback. Eagerly, every callback of the frame is scheduled up
// front in list order through ScheduleArgPooled. Deferred, the frame reserves
// as many sequence numbers and two cursors walk the list in (delay, list
// order), each an event re-arming itself under the reserved number of the next
// sub-event. Merged — the form the PHY uses — the cursors of every frame in
// progress share one event: its callback delivers the earliest sub-event and
// keeps going while StepReserved grants the next, arming the event when it
// does not. Around the frames runs unrelated traffic — events scheduled and
// stopped, including from inside sub-event callbacks, for the current instant
// and for instants before the next sub-event, on a time grid coarse enough
// that most instants are shared; sub-event callbacks also start frames of
// their own. The run is driven by Run calls whose bounds advance in steps
// shorter than a frame, so bounds fall inside batches of in-place steps. All
// three runs must fire the same callbacks in the same order at the same
// Now(), return from every Run at the same instant and count the same
// Processed. A reservation off by one, or a cursor that takes a fresh
// sequence number when it re-arms, reorders a tie; an in-place step past
// something queued or past the bound fires a callback early.
func TestDeferredCursorsMatchEagerScheduling(t *testing.T) {
	const tick = time.Microsecond
	type result struct {
		order              []firing
		processed, inPlace uint64
		cutByBound         int // in-place steps refused at a Run bound
	}
	run := func(seed uint64, mode int) (res result) {
		rng := NewRNG(seed)
		e := NewEngine(seed)
		until := time.Duration(0) // the bound of the Run in progress
		label := 0
		nextLabel := func() int { label++; return label }
		record := func(l int) {
			if e.Now() > until {
				t.Fatalf("seed %d mode %d: callback %d fired at %v, past the Run bound %v", seed, mode, l, e.Now(), until)
			}
			res.order = append(res.order, firing{l, e.Now()})
		}

		var stoppable []*Event
		noise := func() {
			l := nextLabel()
			ev := e.Schedule(time.Duration(rng.Intn(6))*tick, func() { record(l) })
			if rng.Intn(3) == 0 {
				stoppable = append(stoppable, ev)
			}
			if len(stoppable) > 0 && rng.Intn(4) == 0 {
				i := rng.Intn(len(stoppable))
				stoppable[i].Stop()
				stoppable = slices.Delete(stoppable, i, i+1)
			}
		}

		// The merged mode's state: the cursors in progress, the one event that
		// stands for the earliest, and whether its callback is running.
		var active []*frameCursor
		var shared *Event
		delivering := false
		earliest := func() int {
			best := 0
			bt, bs := active[0].key()
			for i, c := range active[1:] {
				if ct, cs := c.key(); ct < bt || (ct == bt && cs < bs) {
					best, bt, bs = i+1, ct, cs
				}
			}
			return best
		}

		var frame func()
		// A sub-event callback reacts the way a MAC does: sometimes it
		// schedules something of its own, now and then a whole frame.
		fire := func(l int) {
			record(l)
			if rng.Intn(3) == 0 {
				noise()
			}
			if rng.Intn(15) == 0 {
				frame()
			}
		}
		// step advances cursor c past the callback it stands on and runs it;
		// requeue puts c back wherever the mode keeps a cursor with more to do.
		step := func(c *frameCursor, requeue func()) {
			l := c.label()
			if c.at++; c.at < len(c.fr.walk) {
				requeue()
			}
			fire(l)
		}
		shared = e.NewTimer(func() {
			delivering = true
			for {
				i := earliest()
				c := active[i]
				active = slices.Delete(active, i, i+1)
				step(c, func() { active = append(active, c) })
				if len(active) == 0 {
					break
				}
				next := active[earliest()]
				when, seq := next.key()
				if !e.StepReserved(when, seq, next.fr.t0) {
					if when > until {
						res.cutByBound++
					}
					shared.ArmReserved(when, seq, next.fr.t0)
					break
				}
			}
			delivering = false
		})

		frame = func() {
			subs := make([]subEvent, rng.Intn(9))
			for i := range subs {
				subs[i] = subEvent{delay: time.Duration(rng.Intn(4)) * tick, label: nextLabel()}
				nextLabel() // the end callback's label
			}
			air := time.Duration(1+rng.Intn(3)) * tick
			if mode == eager {
				for _, s := range subs {
					s := s
					e.ScheduleArgPooled(s.delay, func(any) { fire(s.label) }, nil)
					e.ScheduleArgPooled(s.delay+air, func(any) { fire(s.label + 1) }, nil)
				}
				return
			}
			if len(subs) == 0 {
				return
			}
			fr := &cursorFrame{subs: subs, walk: make([]int, len(subs)), t0: e.Now(), air: air, base: e.ReserveSeq(2 * len(subs))}
			for i := range fr.walk {
				fr.walk[i] = i
			}
			slices.SortStableFunc(fr.walk, func(a, b int) int { return int(subs[a].delay - subs[b].delay) })
			for _, end := range []bool{false, true} {
				c := &frameCursor{fr: fr, end: end}
				if mode == merged {
					active = append(active, c)
					continue
				}
				var own *Event
				arm := func() { c.arm(own) }
				own = e.NewTimer(func() { step(c, arm) })
				arm()
			}
			if mode == merged && !delivering {
				active[earliest()].arm(shared)
			}
		}

		for i := 0; i < 300; i++ {
			at := time.Duration(rng.Intn(400)) * tick
			if rng.Intn(3) == 0 {
				e.At(at, frame)
			} else {
				e.At(at, noise)
			}
		}
		for e.Pending() > 0 {
			now := e.Run(until)
			res.order = append(res.order, firing{-1, now})
			if now != until {
				t.Fatalf("seed %d mode %d: Run(%v) returned %v", seed, mode, until, now)
			}
			until += 2 * tick
		}
		res.processed, res.inPlace = e.Processed, e.InPlace
		return res
	}

	for seed := uint64(1); seed <= 20; seed++ {
		want := run(seed, eager)
		if len(want.order) < 500 {
			t.Fatalf("seed %d: only %d callbacks fired; the comparison is thin", seed, len(want.order))
		}
		for _, mode := range []int{deferred, merged} {
			got := run(seed, mode)
			if got.processed != want.processed {
				t.Fatalf("seed %d mode %d: Processed %d, eager %d", seed, mode, got.processed, want.processed)
			}
			if !slices.Equal(got.order, want.order) {
				for i := range want.order {
					if i >= len(got.order) || got.order[i] != want.order[i] {
						t.Fatalf("seed %d mode %d: diverges from eager at firing %d of %d", seed, mode, i, len(want.order))
					}
				}
				t.Fatalf("seed %d mode %d: %d firings, eager %d", seed, mode, len(got.order), len(want.order))
			}
			if mode != merged {
				if got.inPlace != 0 {
					t.Fatalf("seed %d mode %d: %d in-place steps without a StepReserved call", seed, mode, got.inPlace)
				}
				continue
			}
			// The merged run must have exercised what it is here for.
			if got.inPlace*4 < got.processed {
				t.Fatalf("seed %d: only %d of %d events stepped in place", seed, got.inPlace, got.processed)
			}
			if got.cutByBound == 0 {
				t.Fatalf("seed %d: no batch cut by a Run bound", seed)
			}
		}
	}
}
