package sim

import (
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// slotChain is the reference for ResetSlots: a countdown kept the per-slot
// way, one Reset(slot) per boundary, its callback at the last.
type slotChain struct {
	ev         *Event
	slot       time.Duration
	start      time.Duration
	left, done int
	fn         func()
}

func newSlotChain(e *Engine, slot time.Duration, fn func()) *slotChain {
	c := &slotChain{slot: slot, fn: fn}
	c.ev = e.NewTimer(c.tick)
	return c
}

func (c *slotChain) begin(n int) {
	c.start, c.left, c.done = c.ev.engine.Now(), n, 0
	c.ev.Reset(c.slot)
}

func (c *slotChain) tick() {
	c.done++
	if c.left--; c.left > 0 {
		c.ev.Reset(c.slot)
		return
	}
	c.fn()
}

func (c *slotChain) halt() int {
	if !c.ev.Stop() {
		return 0
	}
	return c.done
}

// onBoundary reports whether a pending chain has a boundary at the current
// instant (ticked there already or not).
func (c *slotChain) onBoundary() bool {
	since := c.ev.engine.Now() - c.start
	return c.ev.Pending() && since > 0 && since%c.slot == 0
}

// slotCountdown is the form under test.
type slotCountdown struct {
	ev   *Event
	slot time.Duration
}

func (c slotCountdown) begin(n int) { c.ev.ResetSlots(n, c.slot) }
func (c slotCountdown) halt() int   { return c.ev.StopSlots() }

// TestCountdownMatchesSlotChain runs seeded contention schedules twice — with
// every backoff a chain of Reset(slot) calls, and with ResetSlots — and
// requires the same log: every backoff's end with its Now(), the slots done at
// every pause and stop, the event count at long-armed samples and after every
// Run. Stations count backoffs down on a 1 µs grid with 20 µs slots, so
// instants are shared all the time. A station starts its countdown when a
// 50 µs DIFS timer fires, often at another's boundary; the end of a backoff
// transmits to every other station: edges under reserved numbers, 0–6 µs
// later, which pause whatever they reach, often exactly on a boundary. Crashes
// and samples scheduled at the start (long-armed) stop countdowns and read the
// count, and Run bounds advance in steps that end mid-countdown.
func TestCountdownMatchesSlotChain(t *testing.T) {
	const (
		tick    = time.Microsecond
		slot    = 20 * tick
		difs    = 50 * tick
		horizon = 30 * time.Millisecond
	)
	type coverage struct{ edgeOnBoundary, stopOnBoundary, startOnBoundary, runMidCountdown int }
	run := func(seed uint64, reference bool) ([]string, coverage) {
		e := NewEngine(seed)
		rng := NewRNG(seed)
		var log []string
		var cov coverage
		logf := func(format string, args ...any) {
			log = append(log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
		}
		type station struct {
			id           int
			slots, busy  int
			transmitting bool
			difs, txEnd  *Event
			begin        func(int)
			halt         func() int
			chain        *slotChain
		}
		stations := make([]*station, 2+rng.Intn(5))
		chainOnBoundary := func(skip *station) bool {
			for _, s := range stations {
				if s != skip && s.chain != nil && s.chain.onBoundary() {
					return true
				}
			}
			return false
		}
		contend := func(s *station) {
			if e.Now() >= horizon {
				return // let RunAll drain
			}
			if s.slots == 0 {
				s.slots = 1 + rng.Intn(12)
			}
			if s.busy == 0 && !s.transmitting {
				s.difs.Reset(difs)
			}
		}
		pause := func(s *station, what string) {
			s.difs.Stop()
			if reference && s.chain.onBoundary() {
				if what == "pause" {
					cov.edgeOnBoundary++
				} else {
					cov.stopOnBoundary++
				}
			}
			done := s.halt()
			s.slots -= done
			logf("%s %d: %d slots done, %d left", what, s.id, done, s.slots)
		}
		transmit := func(s *station) {
			logf("backoff %d ends", s.id)
			s.slots, s.transmitting = 0, true
			s.txEnd.Reset(time.Duration(100+rng.Intn(200)) * tick)
			base := e.ReserveSeq(2 * (len(stations) - 1))
			reserved := e.Now()
			i := uint64(0)
			for _, r := range stations {
				if r == s {
					continue
				}
				at := e.Now() + time.Duration(rng.Intn(7))*tick
				air := time.Duration(100+rng.Intn(200)) * tick
				e.NewTimer(func() {
					if r.busy++; r.busy == 1 {
						pause(r, "pause")
					}
				}).ArmReserved(at, base+2*i, reserved)
				e.NewTimer(func() {
					if r.busy--; r.busy == 0 {
						contend(r)
					}
				}).ArmReserved(at+air, base+2*i+1, reserved)
				i++
			}
		}
		for i := range stations {
			s := &station{id: i}
			s.difs = e.NewTimer(func() {
				if reference && chainOnBoundary(s) {
					cov.startOnBoundary++
				}
				s.begin(s.slots)
			})
			s.txEnd = e.NewTimer(func() {
				s.transmitting = false
				contend(s)
			})
			if reference {
				s.chain = newSlotChain(e, slot, func() { transmit(s) })
				s.begin, s.halt = s.chain.begin, s.chain.halt
			} else {
				c := slotCountdown{ev: e.NewTimer(func() { transmit(s) }), slot: slot}
				s.begin, s.halt = c.begin, c.halt
			}
			stations[i] = s
			contend(s)
		}
		for range 40 {
			at := time.Millisecond + time.Duration(rng.Intn(int(horizon/tick)))*tick
			s := stations[rng.Intn(len(stations))]
			e.At(at, func() {
				pause(s, "crash")
				s.slots = 0
				contend(s)
			})
			e.At(at+time.Duration(rng.Intn(3))*tick, func() {
				n, _ := e.Events()
				logf("sample: %d events", n)
			})
		}
		bounds := NewRNG(seed + 1000)
		for until := time.Duration(0); until < horizon; until += time.Duration(bounds.Intn(60)) * tick {
			e.Run(until)
			if reference {
				for _, s := range stations {
					if s.chain.ev.Pending() && s.chain.left >= 2 {
						cov.runMidCountdown++
						break
					}
				}
			}
			logf("run returns: %d events", e.Processed)
		}
		e.RunAll()
		logf("drained: %d events", e.Processed)
		return log, cov
	}

	var total coverage
	for seed := uint64(1); seed <= 30; seed++ {
		want, cov := run(seed, true)
		got, _ := run(seed, false)
		if !slices.Equal(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					g := "(nothing)"
					if i < len(got) {
						g = got[i]
					}
					t.Fatalf("seed %d: entry %d of %d is %q, slot chain %q", seed, i, len(want), g, want[i])
				}
			}
			t.Fatalf("seed %d: %d entries, slot chain %d", seed, len(got), len(want))
		}
		total.edgeOnBoundary += cov.edgeOnBoundary
		total.stopOnBoundary += cov.stopOnBoundary
		total.startOnBoundary += cov.startOnBoundary
		total.runMidCountdown += cov.runMidCountdown
	}
	if total.edgeOnBoundary == 0 || total.stopOnBoundary == 0 || total.startOnBoundary == 0 || total.runMidCountdown == 0 {
		t.Fatalf("the schedules missed a case the countdown must get right: %+v", total)
	}
	t.Logf("%+v", total)
}

// TestResetSlotsFormsAndEventSize pins the two shortcuts of ResetSlots — one
// slot is a plain Reset, re-arming stops the countdown in progress — and that
// the countdown state costs Event no allocation size class: it is one pointer.
func TestResetSlotsFormsAndEventSize(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	ev := e.NewTimer(func() { fired++ })
	ev.ResetSlots(1, 10*time.Microsecond)
	if ev.seq >= waitKeys || ev.at != 10*time.Microsecond {
		t.Fatalf("one slot armed at (%v, %d), want a plain Reset", ev.at, ev.seq)
	}
	ev.ResetSlots(5, 10*time.Microsecond)
	e.Run(25 * time.Microsecond)
	ev.ResetSlots(3, 10*time.Microsecond) // two slots of the first countdown ended
	if e.Processed != 2 || e.Pending() != 1 {
		t.Fatalf("after re-arming: %d events, %d pending; want 2 and 1", e.Processed, e.Pending())
	}
	e.RunAll()
	if fired != 1 || e.Processed != 5 || e.Now() != 55*time.Microsecond {
		t.Fatalf("fired %d at %v after %d events; want 1 at 55µs after 5", fired, e.Now(), e.Processed)
	}
	if p, in := e.Events(); p != e.Processed || in != 3 {
		t.Fatalf("Events() = %d, %d; want %d and 3 skipped boundaries", p, in, e.Processed)
	}
	if size := unsafe.Sizeof(Event{}); size > 80 {
		t.Fatalf("Event is %d bytes, past the 80-byte size class", size)
	}
}
