package emu

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

func chaosPlan() faults.Plan {
	return faults.Plan{
		Churn: &faults.ChurnModel{Fraction: 0.5, MTBF: 20 * time.Second, MTTR: 5 * time.Second},
		Outages: []faults.Outage{
			{Node: 1, Start: 10 * time.Second, Duration: 5 * time.Second},
		},
		LinkFaults: []faults.LinkFault{
			{From: 0, To: 2, Start: 2 * time.Second, Duration: 3 * time.Second, DropProb: 0.8, Symmetric: true},
		},
		EtherRestarts: []faults.EtherRestart{
			{Start: 30 * time.Second, Duration: 2 * time.Second},
		},
	}
}

// TestChaosScheduleDeterministic: one (plan, seed, nodes, horizon) tuple
// must always compile to the identical wall-clock timeline — the property
// that makes live chaos runs comparable across metrics and reproducible in
// CI.
func TestChaosScheduleDeterministic(t *testing.T) {
	nodes := []packet.NodeID{1, 2, 3, 4, 5}
	mk := func() *Chaos {
		c, err := NewChaos(ChaosConfig{Plan: chaosPlan(), Seed: 9, Horizon: 60 * time.Second}, nodes, nil)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(), mk()
	ea, eb := a.Events(), b.Events()
	if len(ea) == 0 {
		t.Fatal("empty schedule")
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("same-seed schedules diverged:\n%v\n%v", ea, eb)
	}
	if !reflect.DeepEqual(a.Onsets(), b.Onsets()) || !reflect.DeepEqual(a.Windows(), b.Windows()) {
		t.Fatal("same-seed onsets/windows diverged")
	}
}

// TestChaosTimeScale: the wall schedule is the virtual schedule scaled
// linearly.
func TestChaosTimeScale(t *testing.T) {
	nodes := []packet.NodeID{1, 2, 3, 4, 5}
	full, err := NewChaos(ChaosConfig{Plan: chaosPlan(), Seed: 9, Horizon: 60 * time.Second}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	half, err := NewChaos(ChaosConfig{Plan: chaosPlan(), Seed: 9, Horizon: 60 * time.Second, TimeScale: 0.5}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	ef, eh := full.Events(), half.Events()
	if len(ef) != len(eh) {
		t.Fatalf("event counts differ: %d vs %d", len(ef), len(eh))
	}
	for i := range ef {
		if eh[i].Kind != ef[i].Kind || eh[i].ID != ef[i].ID {
			t.Fatalf("event %d identity differs", i)
		}
		if want := ef[i].At / 2; eh[i].At != want {
			t.Fatalf("event %d at %v, want %v (half of %v)", i, eh[i].At, want, ef[i].At)
		}
	}
}

// TestChaosIDMapping: plan indices address the sorted node-ID list, so the
// outage on index 1 must land on the second-smallest ID even when the node
// list arrives unsorted.
func TestChaosIDMapping(t *testing.T) {
	plan := faults.Plan{Outages: []faults.Outage{{Node: 1, Start: time.Second, Duration: time.Second}}}
	c, err := NewChaos(ChaosConfig{Plan: plan, Seed: 1}, []packet.NodeID{10, 3, 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want down+up", len(events))
	}
	for _, ev := range events {
		if ev.ID != 7 {
			t.Fatalf("%s landed on node %v, want 7 (index 1 of sorted [3 7 10])", ev.Kind, ev.ID)
		}
	}
}

// TestChaosNodeDownAndDropProb positions the run time through the injected
// clock: before, then inside the fault windows.
func TestChaosNodeDownAndDropProb(t *testing.T) {
	plan := faults.Plan{
		Outages:    []faults.Outage{{Node: 0, Start: time.Second, Duration: 10 * time.Second}},
		LinkFaults: []faults.LinkFault{{From: 1, To: 2, Start: time.Second, Duration: 10 * time.Second, DropProb: 0.7}},
	}
	var now time.Duration
	c, err := NewChaos(ChaosConfig{Plan: plan, Seed: 1}, []packet.NodeID{4, 5, 6}, func() time.Duration { return now })
	if err != nil {
		t.Fatal(err)
	}
	if c.NodeDown(4) || c.DropProb(5, 6) != 0 || c.ActiveFaults() != 0 {
		t.Fatal("faults active at run time zero, before their windows")
	}
	now = 2 * time.Second // inside both windows
	if got := c.ActiveFaults(); got != 2 {
		t.Fatalf("ActiveFaults = %d inside both windows, want 2", got)
	}
	if !c.NodeDown(4) {
		t.Fatal("node 4 (index 0) not down inside its outage window")
	}
	if c.NodeDown(5) {
		t.Fatal("node 5 down without an outage")
	}
	if got := c.DropProb(5, 6); got != 0.7 {
		t.Fatalf("DropProb(5,6) = %v, want 0.7", got)
	}
	if got := c.DropProb(6, 5); got != 0 {
		t.Fatalf("DropProb(6,5) = %v, want 0 (fault is directional)", got)
	}
	if got := c.DropProb(99, 5); got != 0 {
		t.Fatalf("DropProb with unknown ID = %v, want 0", got)
	}
}

// TestChaosRejectsBadTimeScale: a time scale that is negative, not a number
// or infinite, or that scales the plan's last event past a time.Duration, is
// refused naming TimeScale. The NaN and +Inf scales used to compile, and so
// did 1e10, whose outage fired at −2562047h.
func TestChaosRejectsBadTimeScale(t *testing.T) {
	plan := faults.Plan{Outages: []faults.Outage{{Node: 0, Start: time.Second, Duration: time.Hour}}}
	for _, scale := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1), 1e10} {
		c, err := NewChaos(ChaosConfig{Plan: plan, Seed: 1, TimeScale: scale}, []packet.NodeID{1, 2}, nil)
		if err == nil {
			t.Errorf("TimeScale %v accepted; schedule %v", scale, c.Events())
			continue
		}
		if !strings.Contains(err.Error(), "TimeScale") {
			t.Errorf("TimeScale %v: error %q does not name TimeScale", scale, err)
		}
	}
	// A large scale the schedule fits at still compiles, in run time.
	c, err := NewChaos(ChaosConfig{Plan: plan, Seed: 1, TimeScale: 1e5}, []packet.NodeID{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev := c.Events(); len(ev) != 2 || ev[1].At != 1e5*(time.Second+time.Hour) {
		t.Fatalf("schedule at TimeScale 1e5 = %v", ev)
	}
}

// TestChaosEtherRestartEvents: scripted ether restarts surface as
// ether-down/ether-up events with Node -1.
func TestChaosEtherRestartEvents(t *testing.T) {
	plan := faults.Plan{EtherRestarts: []faults.EtherRestart{{Start: 3 * time.Second, Duration: time.Second}}}
	c, err := NewChaos(ChaosConfig{Plan: plan, Seed: 1, TimeScale: 0.5}, []packet.NodeID{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	events := c.Events()
	if len(events) != 2 {
		t.Fatalf("events = %v", events)
	}
	if events[0].Kind != faults.EventEtherDown || events[0].At != 1500*time.Millisecond || events[0].Node != -1 {
		t.Fatalf("down event = %+v", events[0])
	}
	if events[1].Kind != faults.EventEtherUp || events[1].At != 2*time.Second {
		t.Fatalf("up event = %+v", events[1])
	}
}

// TestChaosScheduleMatchesSimulator: one churned script and one seed give
// one schedule in both worlds. At TimeScale 1 over node IDs 0…n−1 the live
// schedule is the simulator's compiled timeline, event for event (the two
// used to draw churn from differently salted streams).
func TestChaosScheduleMatchesSimulator(t *testing.T) {
	const n, seed, horizon = 8, 9, 5 * time.Minute
	plan := chaosPlan()
	plan.EtherRestarts = nil // the simulator drops them
	nodes := make([]packet.NodeID, n)
	for i := range nodes {
		nodes[i] = packet.NodeID(i)
	}
	c, err := NewChaos(ChaosConfig{Plan: plan, Seed: seed, Horizon: horizon}, nodes, nil)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.NewScheduler(sim.NewEngine(seed), seed, plan, make([]faults.Target, n), horizon)
	if err != nil {
		t.Fatal(err)
	}
	want, got := sched.Timeline(), c.Events()
	if sched.DownCount() <= 1 || len(got) != len(want) {
		t.Fatalf("live schedule has %d events, the simulator's %d (%d outages)", len(got), len(want), sched.DownCount())
	}
	for i, e := range want {
		ev := ChaosEvent{At: e.At, Kind: e.Kind, Node: e.Node}
		if e.Node >= 0 {
			ev.ID = packet.NodeID(e.Node)
		}
		if got[i] != ev {
			t.Fatalf("event %d: live %+v, simulator %+v", i, got[i], e)
		}
	}
}
