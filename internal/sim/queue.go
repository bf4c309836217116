package sim

import "time"

// eventQueue is a 4-ary min-heap of events ordered by (at, seq). Keys are
// unique (seq never repeats), so the pop order is a function of the keys in
// the queue alone, never of the order they were pushed in. Four children per
// node halve the depth of a binary heap; the compare is inlined into the two
// sift loops, which move a hole instead of swapping, so one event is written
// per level. Every event records its position (Event.index) for O(log n)
// removal and re-keying.
//
// popMin leaves the root empty instead of refilling it: most callbacks push
// exactly one event — a cursor or a timer re-arming itself, usually for very
// soon — and dropping that event into the open root and sifting it down a
// level or two replaces a full-depth sift-down of the last leaf plus a
// full-depth sift-up of the newcomer. Whatever touches the queue next while
// the root is open closes it first.
type eventQueue struct {
	heap []*Event
	open bool // heap[0] is empty, left by popMin
}

// before reports whether a fires before b.
func before(a, b *Event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// len returns the number of queued events.
func (q *eventQueue) len() int {
	if q.open {
		return len(q.heap) - 1
	}
	return len(q.heap)
}

// min returns the earliest event; the queue must not be empty.
func (q *eventQueue) min() *Event {
	q.close()
	return q.heap[0]
}

// allAfter reports whether every queued event fires after the key (at, seq).
// The earliest event is the root, or, inside a callback that has not touched
// the queue yet, one of the children of the root popMin left open; looking at
// those leaves the root open for the push that typically follows.
func (q *eventQueue) allAfter(at time.Duration, seq uint64) bool {
	earliest := q.heap[:min(1, len(q.heap))]
	if q.open {
		earliest = q.heap[1:min(5, len(q.heap))]
	}
	for _, ev := range earliest {
		if ev.at < at || (ev.at == at && ev.seq <= seq) {
			return false
		}
	}
	return true
}

// push adds ev, which must not be queued.
func (q *eventQueue) push(ev *Event) {
	if q.open {
		q.open = false
		q.down(0, ev)
		return
	}
	q.heap = append(q.heap, ev)
	q.up(len(q.heap)-1, ev)
}

// popMin removes and returns the earliest event, leaving the root open; the
// queue must not be empty.
func (q *eventQueue) popMin() *Event {
	q.close()
	first := q.heap[0]
	q.heap[0] = nil
	q.open = true
	first.index = -1
	return first
}

// close refills an open root with the last leaf.
func (q *eventQueue) close() {
	if !q.open {
		return
	}
	q.open = false
	if last := q.takeLast(); len(q.heap) > 0 {
		q.down(0, last)
	}
}

// takeLast shrinks the heap by its last slot and returns what was in it.
func (q *eventQueue) takeLast() *Event {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = nil
	q.heap = q.heap[:n]
	return last
}

// remove takes the queued event ev out of the queue.
func (q *eventQueue) remove(ev *Event) {
	q.close()
	i := int(ev.index)
	if last := q.takeLast(); last != ev {
		q.fix(i, last)
	}
	ev.index = -1
}

// rekey moves the queued event ev to the key (at, seq). The key changes only
// once the root is closed: closing sifts through events that may include ev.
func (q *eventQueue) rekey(ev *Event, at time.Duration, seq uint64) {
	q.close()
	ev.at, ev.seq = at, seq
	q.fix(int(ev.index), ev)
}

// fix places ev, whose key may have moved either way, starting from position
// i (its own, or a hole left by a removal).
func (q *eventQueue) fix(i int, ev *Event) {
	if i > 0 && before(ev, q.heap[(i-1)/4]) {
		q.up(i, ev)
		return
	}
	q.down(i, ev)
}

// up moves the hole at i towards the root until ev's parent fires before it,
// then drops ev in.
func (q *eventQueue) up(i int, ev *Event) {
	h := q.heap
	for i > 0 {
		p := (i - 1) / 4
		parent := h[p]
		if !before(ev, parent) {
			break
		}
		h[i] = parent
		parent.index = int32(i)
		i = p
	}
	h[i] = ev
	ev.index = int32(i)
}

// down moves the hole at i towards the leaves until ev fires before every
// child of the hole, then drops ev in.
func (q *eventQueue) down(i int, ev *Event) {
	h := q.heap
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best, bi := h[c], c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if before(h[j], best) {
				best, bi = h[j], j
			}
		}
		if !before(best, ev) {
			break
		}
		h[i] = best
		best.index = int32(i)
		i = bi
	}
	h[i] = ev
	ev.index = int32(i)
}
