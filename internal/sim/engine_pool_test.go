package sim

import (
	"testing"
	"time"
)

// TestScheduleArgPooledOrdering: pooled events obey the same (time, seq)
// ordering as every other form, interleaved with Schedule.
func TestScheduleArgPooledOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	add := func(x any) { got = append(got, x.(int)) }
	e.ScheduleArgPooled(2*time.Millisecond, add, 3)
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.ScheduleArgPooled(1*time.Millisecond, add, 2) // same time, later seq
	e.RunAll()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestScheduleArgPooledReuses pins the point of the pool: after warm-up,
// scheduling and firing pooled events allocates nothing.
func TestScheduleArgPooledReuses(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	count := func(any) { fired++ }
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			e.ScheduleArgPooled(time.Duration(i)*time.Microsecond, count, nil)
		}
		e.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("pooled scheduling allocates %.1f per run, want 0", allocs)
	}
	if fired == 0 {
		t.Fatal("no events fired; the measurement is vacuous")
	}
}

// TestScheduleArgPooledRecyclesAcrossRunAndRunAll: events fired through
// Run(until) are recycled too, and recycled events carry no stale state.
func TestScheduleArgPooledRecyclesAcrossRunAndRunAll(t *testing.T) {
	e := NewEngine(1)
	var got []int
	add := func(x any) { got = append(got, x.(int)) }
	e.ScheduleArgPooled(1*time.Millisecond, add, 1)
	e.Run(5 * time.Millisecond)
	if len(e.free) != 1 {
		t.Fatalf("free list has %d events after Run, want 1", len(e.free))
	}
	// The recycled event must come back with the new argument, not the old.
	e.ScheduleArgPooled(1*time.Millisecond, add, 2)
	e.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
}
