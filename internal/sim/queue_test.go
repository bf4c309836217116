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
		if ev.index != i {
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
// first push fills it, anything else has to close it first. The structural
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

// TestDeferredCursorsMatchEagerScheduling is the engine-level statement of
// what the PHY relies on. A "frame" is a list of sub-events, each with a begin
// and an end callback. Eagerly, every callback of the frame is scheduled up
// front in list order through ScheduleArgPooled; deferred, the frame reserves
// as many sequence numbers and two cursors walk the list in (delay, list
// order), each re-arming itself under the reserved number of the next
// sub-event. Around the frames runs unrelated traffic — events scheduled and
// stopped, including from inside sub-event callbacks, on a time grid coarse
// enough that most instants are shared — and both runs must fire the same
// callbacks in the same order. A reservation off by one, or a cursor that
// takes a fresh sequence number when it re-arms, reorders a tie.
func TestDeferredCursorsMatchEagerScheduling(t *testing.T) {
	const tick = time.Microsecond
	run := func(seed uint64, deferred bool) (order []int, processed uint64) {
		rng := NewRNG(seed)
		e := NewEngine(seed)
		record := func(label int) { order = append(order, label) }
		label := 0
		nextLabel := func() int { label++; return label }

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

		frame := func() {
			subs := make([]subEvent, rng.Intn(9))
			for i := range subs {
				subs[i] = subEvent{delay: time.Duration(rng.Intn(4)) * tick, label: nextLabel()}
				nextLabel() // the end callback's label
			}
			air := time.Duration(1+rng.Intn(3)) * tick
			// A sub-event callback reacts the way a MAC does: sometimes it
			// schedules something of its own.
			fire := func(l int) {
				record(l)
				if rng.Intn(3) == 0 {
					noise()
				}
			}
			if !deferred {
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
			t0, base := e.Now(), e.ReserveSeq(2*len(subs))
			walk := make([]int, len(subs)) // list positions in (delay, position) order
			for i := range walk {
				walk[i] = i
			}
			slices.SortStableFunc(walk, func(a, b int) int { return int(subs[a].delay - subs[b].delay) })
			for _, end := range []bool{false, true} {
				end, at := end, 0
				var cursor *Event
				arm := func() {
					i := walk[at]
					key := base + 2*uint64(i)
					when := t0 + subs[i].delay
					if end {
						key, when = key+1, when+air
					}
					cursor.ArmReserved(when, key)
				}
				cursor = e.NewTimer(func() {
					l := subs[walk[at]].label
					if end {
						l++
					}
					if at++; at < len(walk) {
						arm()
					}
					fire(l)
				})
				arm()
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
		e.RunAll()
		return order, e.Processed
	}

	for seed := uint64(1); seed <= 20; seed++ {
		eager, eagerN := run(seed, false)
		lazy, lazyN := run(seed, true)
		if len(eager) < 500 {
			t.Fatalf("seed %d: only %d callbacks fired; the comparison is thin", seed, len(eager))
		}
		if eagerN != lazyN {
			t.Fatalf("seed %d: Processed %d eager, %d deferred", seed, eagerN, lazyN)
		}
		if !slices.Equal(eager, lazy) {
			for i := range eager {
				if i >= len(lazy) || eager[i] != lazy[i] {
					t.Fatalf("seed %d: firing order diverges at callback %d of %d", seed, i, len(eager))
				}
			}
			t.Fatalf("seed %d: deferred run fired %d callbacks, eager %d", seed, len(lazy), len(eager))
		}
	}
}
