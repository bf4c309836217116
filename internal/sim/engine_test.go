package sim

import (
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	e.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineFIFOWithinSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestEngineNowAdvances(t *testing.T) {
	e := NewEngine(1)
	var at time.Duration
	e.Schedule(5*time.Second, func() { at = e.Now() })
	e.RunAll()
	if at != 5*time.Second {
		t.Fatalf("Now inside event = %v, want 5s", at)
	}
}

func TestEngineRunUntilStopsEarly(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	e.Schedule(1*time.Second, func() { fired++ })
	e.Schedule(10*time.Second, func() { fired++ })
	end := e.Run(5 * time.Second)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if end != 5*time.Second {
		t.Fatalf("end = %v, want 5s", end)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunResumesAfterUntil(t *testing.T) {
	e := NewEngine(1)
	var firedAt []time.Duration
	e.Schedule(10*time.Second, func() { firedAt = append(firedAt, e.Now()) })
	if end := e.Run(5 * time.Second); end != 5*time.Second || e.Now() != 5*time.Second {
		t.Fatalf("Run(5s) returned %v, Now() %v; want 5s", end, e.Now())
	}
	e.Run(20 * time.Second)
	if len(firedAt) != 1 || firedAt[0] != 10*time.Second {
		t.Fatalf("fired at %v, want [10s] after resumed run", firedAt)
	}
	// A bound already behind the clock must not move it backwards.
	if end := e.Run(15 * time.Second); end != 20*time.Second || e.Now() != 20*time.Second {
		t.Fatalf("Run(15s) after Run(20s) returned %v, Now() %v; want 20s", end, e.Now())
	}
}

func TestEventStop(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	if !ev.Stop() {
		t.Fatal("Stop on pending event returned false")
	}
	if ev.Stop() {
		t.Fatal("second Stop returned true")
	}
	e.RunAll()
	if fired {
		t.Fatal("stopped event fired")
	}
}

func TestEventStopRemovesFromHeap(t *testing.T) {
	e := NewEngine(1)
	// Mass-cancel: churn-style workloads stop thousands of timers long
	// before their deadlines; the queue must shrink immediately.
	events := make([]*Event, 1000)
	for i := range events {
		events[i] = e.Schedule(time.Hour, func() {})
	}
	keep := e.Schedule(time.Second, func() {})
	if got := e.Pending(); got != 1001 {
		t.Fatalf("pending = %d, want 1001", got)
	}
	for _, ev := range events {
		if !ev.Stop() {
			t.Fatal("Stop on pending event returned false")
		}
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("pending after mass cancel = %d, want 1 (exact count)", got)
	}
	e.RunAll()
	if keep.Stop() {
		t.Fatal("surviving event did not fire")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending after run = %d, want 0", e.Pending())
	}
}

func TestEventStopPreservesOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.Schedule(time.Duration(i)*time.Second, func() { got = append(got, i) }))
	}
	// Remove a scattering of events from the middle of the heap.
	for _, i := range []int{3, 4, 11, 17, 0} {
		evs[i].Stop()
	}
	e.RunAll()
	want := []int{1, 2, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 18, 19}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestEventStopAfterFire(t *testing.T) {
	e := NewEngine(1)
	ev := e.Schedule(time.Second, func() {})
	e.RunAll()
	if ev.Stop() {
		t.Fatal("Stop after firing returned true")
	}
}

func TestScheduleNegativeDelayFiresNow(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {
		fired := false
		e.Schedule(-time.Second, func() { fired = true })
		_ = fired
	})
	var at time.Duration = -1
	e.Schedule(2*time.Second, func() {
		e.Schedule(-5*time.Second, func() { at = e.Now() })
	})
	e.RunAll()
	if at != 2*time.Second {
		t.Fatalf("negative-delay event fired at %v, want 2s", at)
	}
}

func TestEventStopDuringExecution(t *testing.T) {
	// An event stopping itself from its own callback: at that point it is
	// already popped (index -1), so Stop must report false and must not
	// touch the heap.
	e := NewEngine(1)
	var ev *Event
	ran := false
	ev = e.Schedule(time.Second, func() {
		ran = true
		if ev.Stop() {
			t.Error("Stop from inside the event's own callback returned true")
		}
	})
	e.Schedule(2*time.Second, func() {})
	e.RunAll()
	if !ran {
		t.Fatal("event did not run")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after RunAll", e.Pending())
	}
}

func TestEventsScheduledFromEvents(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			e.Schedule(time.Millisecond, chain)
		}
	}
	e.Schedule(0, chain)
	e.RunAll()
	if count != 100 {
		t.Fatalf("chained events = %d, want 100", count)
	}
	if e.Now() != 99*time.Millisecond {
		t.Fatalf("final time = %v, want 99ms", e.Now())
	}
}

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine(1)
	var times []time.Duration
	NewTicker(e, time.Second, 0, nil, func() { times = append(times, e.Now()) })
	e.Run(5500 * time.Millisecond)
	if len(times) != 5 {
		t.Fatalf("ticker fired %d times, want 5 (at %v)", len(times), times)
	}
	for i, at := range times {
		want := time.Duration(i+1) * time.Second
		if at != want {
			t.Fatalf("firing %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var tk *Ticker
	tk = NewTicker(e, time.Second, 0, nil, func() {
		fired++
		if fired == 3 {
			tk.Stop()
		}
	})
	e.Run(time.Minute)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3 after Stop from callback", fired)
	}
}

func TestTickerJitterBounded(t *testing.T) {
	e := NewEngine(42)
	rng := e.RNG().Split()
	var prev time.Duration
	var gaps []time.Duration
	NewTicker(e, time.Second, 500*time.Millisecond, rng, func() {
		if prev != 0 {
			gaps = append(gaps, e.Now()-prev)
		}
		prev = e.Now()
	})
	e.Run(time.Minute)
	if len(gaps) < 10 {
		t.Fatalf("too few firings: %d", len(gaps))
	}
	varied := false
	for _, g := range gaps {
		if g < time.Second || g >= 1500*time.Millisecond {
			t.Fatalf("gap %v outside [1s, 1.5s)", g)
		}
		if g != gaps[0] {
			varied = true
		}
	}
	if !varied {
		t.Fatal("jittered gaps are all identical")
	}
}

func TestEngineOrderingProperty(t *testing.T) {
	// Random schedules always execute in non-decreasing time order, with
	// FIFO tie-breaking by insertion sequence.
	if err := quick.Check(func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 || len(delaysRaw) > 200 {
			return true
		}
		e := NewEngine(1)
		type fired struct {
			at  time.Duration
			seq int
		}
		var got []fired
		for i, d := range delaysRaw {
			i := i
			at := time.Duration(d%50) * time.Millisecond
			e.At(at, func() { got = append(got, fired{e.Now(), i}) })
		}
		e.RunAll()
		if len(got) != len(delaysRaw) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false // FIFO violated within a timestamp
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestTimerRearm: one owned event is armed again after it fired and after it
// was stopped, each arming fires once, and every arming takes its sequence
// number at the Reset call — an event scheduled between two Resets for the
// same instant fires between them.
func TestTimerRearm(t *testing.T) {
	e := NewEngine(1)
	var got []string
	tm := e.NewTimer(func() { got = append(got, "timer@"+e.Now().String()) })
	if tm.Pending() || tm.Stop() {
		t.Fatal("a new timer is pending before any Reset")
	}
	tm.Reset(time.Second)
	e.RunAll()
	tm.Reset(time.Second) // after fire
	if !tm.Pending() {
		t.Fatal("Reset after fire did not arm the timer")
	}
	if !tm.Stop() || tm.Pending() {
		t.Fatal("Stop on the re-armed timer did not cancel it")
	}
	e.Schedule(time.Second, func() { got = append(got, "before") })
	tm.Reset(time.Second) // after Stop; same instant as "before", later seq
	e.Schedule(time.Second, func() { got = append(got, "after") })
	e.RunAll()
	want := []string{"timer@1s", "before", "timer@2s", "after"}
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestTimerResetWhilePending pins the one defined behaviour: the pending
// arming is dropped and the timer fires once, at the new time, under the
// sequence number of the second Reset — in both directions, later and earlier.
func TestTimerResetWhilePending(t *testing.T) {
	e := NewEngine(1)
	var got []string
	tm := e.NewTimer(func() { got = append(got, "timer@"+e.Now().String()) })
	for i := 0; i < 30; i++ { // bystanders, so the re-key moves through a real heap
		e.Schedule(time.Duration(i)*time.Second, func() {})
	}
	tm.Reset(5 * time.Second)
	tm.Reset(20 * time.Second) // later
	if e.Pending() != 31 {
		t.Fatalf("pending = %d after Reset of a pending timer, want 31 (moved, not duplicated)", e.Pending())
	}
	e.Run(10 * time.Second)
	if len(got) != 0 {
		t.Fatalf("timer fired at its dropped arming: %v", got)
	}
	e.Schedule(time.Second, func() { got = append(got, "tie") })
	tm.Reset(time.Second) // earlier: 11s, the same instant as "tie" and after it
	checkHeap(t, e.queue, "after re-keying a pending timer")
	e.RunAll()
	if want := []string{"tie", "timer@11s"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestTimerStopAndResetFromOwnCallback: inside its callback the timer is off
// the queue, so Stop reports false and touches nothing, and Reset arms the
// next firing.
func TestTimerStopAndResetFromOwnCallback(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	var tm *Event
	tm = e.NewTimer(func() {
		fired++
		if tm.Pending() || tm.Stop() {
			t.Error("timer reports pending inside its own callback")
		}
		if fired < 3 {
			tm.Reset(time.Second)
		}
	})
	other := e.Schedule(10*time.Second, func() {})
	tm.Reset(time.Second)
	e.Run(5 * time.Second)
	if fired != 3 {
		t.Fatalf("fired = %d, want 3", fired)
	}
	if e.Pending() != 1 || !other.Pending() {
		t.Fatalf("pending = %d, want only the bystander", e.Pending())
	}
}

// TestTimerAndTickerAllocateNothing pins what the owned timer is for.
func TestTimerAndTickerAllocateNothing(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	if allocs := testing.AllocsPerRun(100, func() {
		tm.Reset(time.Microsecond)
		e.RunAll()
	}); allocs != 0 {
		t.Fatalf("timer re-arm + fire allocates %.1f, want 0", allocs)
	}
	NewTicker(e, time.Millisecond, time.Microsecond, e.RNG().Split(), func() { fired++ })
	before := fired
	if allocs := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("ticker tick allocates %.1f, want 0", allocs)
	}
	if fired-before < 100 {
		t.Fatalf("ticker fired %d times in 101 intervals; the measurement is vacuous", fired-before)
	}
}

// TestStepReservedOnlyInsideARun pins the edges of the in-place step that the
// cursor comparison in queue_test.go reaches only by chance: no run loop, an
// empty queue, the run's bound, a tie on time decided by the sequence number.
func TestStepReservedOnlyInsideARun(t *testing.T) {
	e := NewEngine(1)
	if e.StepReserved(0, e.ReserveSeq(1), 0) {
		t.Fatal("stepped in place with no run loop to stand in for")
	}
	early := e.ReserveSeq(2)
	var steps []bool
	e.Schedule(time.Millisecond, func() {
		e.Schedule(time.Millisecond, func() {}) // queued at 2 ms under a later number than early
		steps = append(steps,
			e.StepReserved(3*time.Millisecond, early, 0),                 // behind the queued event
			e.StepReserved(2*time.Millisecond, early, 0),                 // same instant, earlier number
			e.StepReserved(2*time.Millisecond, early+1, 0),               // again: the clock is there already
			e.StepReserved(2*time.Millisecond, e.ReserveSeq(1), e.Now())) // same instant, later number
	})
	e.Run(2 * time.Millisecond)
	if want := []bool{false, true, true, false}; !slices.Equal(steps, want) {
		t.Fatalf("steps granted = %v, want %v", steps, want)
	}
	if e.Processed != 4 || e.InPlace != 2 {
		t.Fatalf("Processed %d, InPlace %d; want 4 and 2", e.Processed, e.InPlace)
	}
	e.Schedule(0, func() {
		if e.StepReserved(e.Now()+time.Nanosecond, e.ReserveSeq(1), e.Now()) {
			t.Error("stepped past the bound of the Run in progress")
		}
	})
	e.Run(e.Now())
	e.Schedule(0, func() {
		if !e.StepReserved(e.Now()+time.Hour, e.ReserveSeq(1), e.Now()) {
			t.Error("RunAll has no bound, yet the step was refused")
		}
	})
	e.RunAll()
	if e.StepReserved(e.Now(), e.ReserveSeq(1), e.Now()) {
		t.Fatal("stepped in place after the run returned")
	}
}
