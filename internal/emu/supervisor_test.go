package emu

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
	"meshcast/internal/telemetry"
	"meshcast/internal/testbed"
)

// lineScenario is a minimal source → relay → sink topology where delivery
// requires the forwarding group at the relay (the direct link is dead).
func lineScenario() testbed.Scenario {
	return testbed.Scenario{
		Nodes: []packet.NodeID{1, 2, 3},
		Links: []testbed.Link{
			{A: 1, B: 2, Class: testbed.LowLoss},
			{A: 2, B: 3, Class: testbed.LowLoss},
		},
		Groups: []testbed.GroupSpec{{Group: 9, Source: 1, Members: []packet.NodeID{3}}},
	}
}

func deliveredTo(f *Fleet, id packet.NodeID) int {
	d := f.Daemon(id)
	if d == nil {
		return 0
	}
	return d.DeliveredCount()
}

// startLineFleet builds the three-node line as a live fleet and runs it;
// stop cancels the run, waits for it and closes the fleet (calling it again
// is harmless, so a test may stop early and still defer it).
func startLineFleet(t *testing.T, seed uint64, arm func(*Fleet)) (fleet *Fleet, stop func()) {
	t.Helper()
	fleet, err := NewFleet(FleetConfig{
		Scenario:     lineScenario(),
		Metric:       metric.SPP,
		SendInterval: 20 * time.Millisecond,
		Seed:         seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if arm != nil {
		arm(fleet)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		fleet.Run(ctx)
	}()
	return fleet, func() {
		cancel()
		<-runDone
		fleet.Close()
	}
}

// TestFleetSurvivesEtherRestartUnderTraffic stops and restarts the shared
// medium in the middle of a live run: daemons must re-register within one
// registration refresh interval and delivery must resume, with the medium
// stats accumulated across both ether generations.
func TestFleetSurvivesEtherRestartUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (several seconds)")
	}
	fleet, stop := startLineFleet(t, 11, nil)
	defer stop()

	waitFor(t, 8*time.Second, "initial delivery", func() bool { return deliveredTo(fleet, 3) >= 5 })

	if err := fleet.Medium().Stop(); err != nil {
		t.Fatal(err)
	}
	if fleet.Medium().Up() {
		t.Fatal("medium up after Stop")
	}
	time.Sleep(250 * time.Millisecond) // outage: frames go nowhere
	before := deliveredTo(fleet, 3)
	statsBefore := fleet.Medium().Stats()
	if statsBefore.FramesIn == 0 {
		t.Fatal("retired ether stats lost on Stop")
	}

	if err := fleet.Medium().Start(); err != nil {
		t.Fatal(err)
	}
	// Re-registration must complete within one refresh interval and its
	// jitter (1 s + 250 ms), generously bounded here.
	waitFor(t, 5*time.Second, "all daemons re-registered", func() bool {
		return len(fleet.Medium().Clients()) == 3
	})
	waitFor(t, 5*time.Second, "delivery to resume", func() bool {
		return deliveredTo(fleet, 3) >= before+5
	})
	if got := fleet.Medium().Stats().FramesIn; got <= statsBefore.FramesIn {
		t.Fatalf("cross-generation FramesIn = %d, want > %d", got, statsBefore.FramesIn)
	}
}

// fakeFleet stands in for a Fleet under the supervisor: daemons are flags,
// the ether is a flag, and restarts fail on request. With it supervision
// runs on a bare engine in virtual time.
type fakeFleet struct {
	up      map[packet.NodeID]bool
	etherUp bool
	// restartFails and etherFails make the next n RestartDaemon / Start
	// calls error.
	restartFails, etherFails int
}

func newFakeFleet() *fakeFleet {
	return &fakeFleet{up: map[packet.NodeID]bool{1: true, 2: true, 3: true}, etherUp: true}
}

func (f *fakeFleet) NodeIDs() []packet.NodeID { return []packet.NodeID{1, 2, 3} }
func (f *fakeFleet) StopDaemon(id packet.NodeID) error {
	f.up[id] = false
	return nil
}
func (f *fakeFleet) RestartDaemon(id packet.NodeID) error {
	if f.restartFails > 0 {
		f.restartFails--
		return errors.New("dial refused")
	}
	f.up[id] = true
	return nil
}
func (f *fakeFleet) Stop() error { f.etherUp = false; return nil }
func (f *fakeFleet) Start() error {
	if f.etherFails > 0 {
		f.etherFails--
		return errors.New("address in use")
	}
	f.etherUp = true
	return nil
}
func (f *fakeFleet) Up() bool                               { return f.etherUp }
func (f *fakeFleet) DaemonAlive(id packet.NodeID) bool      { return f.up[id] }
func (f *fakeFleet) NodeStats(packet.NodeID) NodeAccounting { return NodeAccounting{} }

const ms = time.Millisecond

func down(at time.Duration, id packet.NodeID) ChaosEvent {
	return ChaosEvent{At: at, Kind: faults.EventNodeDown, ID: id}
}
func up(at time.Duration, id packet.NodeID) ChaosEvent {
	return ChaosEvent{At: at, Kind: faults.EventNodeUp, ID: id}
}

// TestSupervisorVirtualTime pins the supervisor's semantics as exact event
// logs: the engine is stepped by hand, so every time below is the virtual
// time the action ran at, not a window it had to fall in. The supervisor's
// constants apply: watchdog every 50 ms, unhealthyAfter 3 s, backoff 100 ms
// doubling to 2 s.
func TestSupervisorVirtualTime(t *testing.T) {
	cases := []struct {
		name string
		// chaos is the schedule armed at construction; script arms
		// whatever else the case needs on the engine.
		chaos         []ChaosEvent
		script        func(e *sim.Engine, f *fakeFleet, s *FleetSupervisor)
		want          []FleetEvent
		etherRestarts int
	}{
		{
			name:  "scripted kill and restart fire at their offsets",
			chaos: []ChaosEvent{down(2000*ms, 2), up(3500*ms, 2)},
			want: []FleetEvent{
				{At: 2000 * ms, Kind: "kill", Node: 2},
				{At: 3500 * ms, Kind: "restart", Node: 2},
			},
		},
		{
			name:  "the watchdog leaves a scheduled outage alone however long",
			chaos: []ChaosEvent{down(1000*ms, 2), up(9000*ms, 2)},
			want: []FleetEvent{
				{At: 1000 * ms, Kind: "kill", Node: 2},
				{At: 9000 * ms, Kind: "restart", Node: 2},
			},
		},
		{
			name:  "restart backs off 100ms doubling to the 2s cap, and a success resets it",
			chaos: []ChaosEvent{down(1000*ms, 2), up(2000*ms, 2), down(20000*ms, 2), up(21000*ms, 2)},
			script: func(e *sim.Engine, f *fakeFleet, _ *FleetSupervisor) {
				f.restartFails = 7
				e.At(20500*ms, func() { f.restartFails = 1 })
			},
			// 7.1 s of failed attempts outlast UnhealthyAfter: the watchdog
			// must not start a second sequence beside the one running.
			want: []FleetEvent{
				{At: 1000 * ms, Kind: "kill", Node: 2},
				{At: 2000 * ms, Kind: "restart-failed", Node: 2, Backoff: 100 * ms},
				{At: 2100 * ms, Kind: "restart-failed", Node: 2, Backoff: 200 * ms},
				{At: 2300 * ms, Kind: "restart-failed", Node: 2, Backoff: 400 * ms},
				{At: 2700 * ms, Kind: "restart-failed", Node: 2, Backoff: 800 * ms},
				{At: 3500 * ms, Kind: "restart-failed", Node: 2, Backoff: 1600 * ms},
				{At: 5100 * ms, Kind: "restart-failed", Node: 2, Backoff: 2000 * ms},
				{At: 7100 * ms, Kind: "restart-failed", Node: 2, Backoff: 2000 * ms},
				{At: 9100 * ms, Kind: "restart", Node: 2},
				{At: 20000 * ms, Kind: "kill", Node: 2},
				{At: 21000 * ms, Kind: "restart-failed", Node: 2, Backoff: 100 * ms},
				{At: 21100 * ms, Kind: "restart", Node: 2},
			},
		},
		{
			name:  "a scripted outage that begins while a restart backs off ends that sequence",
			chaos: []ChaosEvent{down(1000*ms, 2), up(2000*ms, 2), down(3000*ms, 2), up(8000*ms, 2)},
			script: func(_ *sim.Engine, f *fakeFleet, _ *FleetSupervisor) {
				f.restartFails = 5
			},
			// The attempt due at 3.5 s sees the second outage and stops: the
			// daemon stays down until that outage's own up, which starts a
			// fresh sequence at the 100 ms floor.
			want: []FleetEvent{
				{At: 1000 * ms, Kind: "kill", Node: 2},
				{At: 2000 * ms, Kind: "restart-failed", Node: 2, Backoff: 100 * ms},
				{At: 2100 * ms, Kind: "restart-failed", Node: 2, Backoff: 200 * ms},
				{At: 2300 * ms, Kind: "restart-failed", Node: 2, Backoff: 400 * ms},
				{At: 2700 * ms, Kind: "restart-failed", Node: 2, Backoff: 800 * ms},
				{At: 3000 * ms, Kind: "kill", Node: 2},
				{At: 8000 * ms, Kind: "restart-failed", Node: 2, Backoff: 100 * ms},
				{At: 8100 * ms, Kind: "restart", Node: 2},
			},
		},
		{
			name: "the watchdog restarts an unscheduled death UnhealthyAfter after first seeing it",
			script: func(e *sim.Engine, f *fakeFleet, _ *FleetSupervisor) {
				e.At(1010*ms, func() { f.up[3] = false }) // first seen dead at the 1050 ms poll
			},
			want: []FleetEvent{{At: 4050 * ms, Kind: "watchdog-restart", Node: 3}},
		},
		{
			name: "an ether outage wipes the watchdog's suspicions",
			script: func(e *sim.Engine, f *fakeFleet, _ *FleetSupervisor) {
				e.At(1010*ms, func() { f.up[3] = false })
				e.At(2010*ms, func() { f.etherUp = false })
				e.At(6010*ms, func() { f.etherUp = true }) // seen dead afresh at 6050 ms
			},
			want: []FleetEvent{{At: 9050 * ms, Kind: "watchdog-restart", Node: 3}},
		},
		{
			name: "injected events: the past fires at once and in order, the future at its offset",
			script: func(e *sim.Engine, _ *fakeFleet, s *FleetSupervisor) {
				// What Inject hands the run goroutine, at run time 5 s.
				e.At(5000*ms, func() { s.schedule([]ChaosEvent{down(1000*ms, 1), down(1500*ms, 2), up(6000*ms, 1), up(6000*ms, 2)}) })
			},
			want: []FleetEvent{
				{At: 5000 * ms, Kind: "kill", Node: 1},
				{At: 5000 * ms, Kind: "kill", Node: 2},
				{At: 6000 * ms, Kind: "restart", Node: 1},
				{At: 6000 * ms, Kind: "restart", Node: 2},
			},
		},
		{
			name: "ether-up retries with backoff while StartEther errors",
			chaos: []ChaosEvent{
				{At: 1000 * ms, Kind: faults.EventEtherDown, Node: -1},
				{At: 2000 * ms, Kind: faults.EventEtherUp, Node: -1},
			},
			script: func(_ *sim.Engine, f *fakeFleet, _ *FleetSupervisor) { f.etherFails = 3 },
			want: []FleetEvent{
				{At: 1000 * ms, Kind: "ether-down"},
				{At: 2700 * ms, Kind: "ether-up"}, // 2 s + 100 + 200 + 400 ms
			},
			etherRestarts: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine, fleet := sim.NewEngine(1), newFakeFleet()
			sup := newSupervisor(fleet, fleet, engine)
			sup.schedule(tc.chaos)
			if tc.script != nil {
				tc.script(engine, fleet, sup)
			}
			engine.Run(30 * time.Second)

			if got := sup.Events(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("event log:\n got %v\nwant %v", got, tc.want)
			}
			rep := sup.Report()
			if rep.EtherRestarts != tc.etherRestarts || rep.Elapsed != 30*time.Second || len(rep.Nodes) != 3 {
				t.Errorf("report = %+v, want %d ether restarts at 30s over 3 nodes", rep, tc.etherRestarts)
			}
			for id, alive := range fleet.up {
				if !alive {
					t.Errorf("node %v left down", id)
				}
			}
			if !fleet.etherUp {
				t.Error("ether left down")
			}
		})
	}
}

// flakyEther is the ether half alone, noting when each Start was attempted.
type flakyEther struct {
	fakeFleet
	engine   *sim.Engine
	attempts []time.Duration
}

func (e *flakyEther) Start() error {
	e.attempts = append(e.attempts, e.engine.Now())
	return e.fakeFleet.Start()
}

// TestSupervisorOverBareMedium is etherd's case: an ether half and no daemon
// half. A rebind that keeps failing is retried on the capped backoff — each
// attempt an engine event, so the run goroutine is never held — node events
// are logged and touch nothing, and no watchdog is armed.
func TestSupervisorOverBareMedium(t *testing.T) {
	engine := sim.NewEngine(1)
	ether := &flakyEther{fakeFleet: fakeFleet{etherUp: true, etherFails: 7}, engine: engine}
	var seen []FleetEvent
	sup := newSupervisor(ether, nil, engine)
	sup.observe = func(ev FleetEvent) { seen = append(seen, ev) }
	sup.schedule([]ChaosEvent{
		{At: 1000 * ms, Kind: faults.EventEtherDown, Node: -1},
		{At: 2000 * ms, Kind: faults.EventEtherUp, Node: -1},
		down(3000*ms, 2),
		up(4000*ms, 2),
	})
	engine.Run(30 * time.Second)

	wantAttempts := []time.Duration{ // restartBackoff doubling to restartBackoffMax
		2000 * ms, 2100 * ms, 2300 * ms, 2700 * ms, 3500 * ms, 5100 * ms, 7100 * ms, 9100 * ms,
	}
	if !reflect.DeepEqual(ether.attempts, wantAttempts) {
		t.Errorf("Start attempted at %v, want %v", ether.attempts, wantAttempts)
	}
	want := []FleetEvent{
		{At: 1000 * ms, Kind: "ether-down"},
		{At: 3000 * ms, Kind: faults.EventNodeDown, Node: 2},
		{At: 4000 * ms, Kind: faults.EventNodeUp, Node: 2},
		{At: 9100 * ms, Kind: "ether-up"},
	}
	if got := sup.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("event log:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("observer saw %v, want the log %v", seen, want)
	}
	if rep := sup.Report(); rep.EtherRestarts != 1 || len(rep.Nodes) != 0 {
		t.Errorf("report = %+v, want 1 ether restart and no nodes", rep)
	}
	if !ether.etherUp {
		t.Error("ether left down")
	}
	if n := engine.Pending(); n != 0 {
		t.Errorf("%d events left on the engine: a watchdog was armed without daemons to watch", n)
	}
}

// TestSupervisorInjectReachesTheRunGoroutine covers the one path the
// virtual-time suite cannot: Inject from another goroutine while a Driver
// paces the engine, and its refusal once the run has ended.
func TestSupervisorInjectReachesTheRunGoroutine(t *testing.T) {
	driver, fleet := NewDriver(1), newFakeFleet()
	sup := newSupervisor(fleet, fleet, driver.Engine())
	sup.driver = driver
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		driver.Run(ctx)
	}()

	if !sup.Inject([]ChaosEvent{down(0, 2)}) {
		t.Fatal("Inject refused while the driver runs")
	}
	waitFor(t, 5*time.Second, "the injected kill", func() (killed bool) {
		driver.Do(func() { killed = len(sup.Events()) == 1 && sup.Events()[0].Kind == "kill" })
		return killed
	})
	cancel()
	<-runDone
	if sup.Inject([]ChaosEvent{up(0, 2)}) {
		t.Fatal("Inject accepted events after the run ended")
	}
	if len(sup.Events()) != 1 {
		t.Fatalf("events after the run ended = %v", sup.Events())
	}
}

// TestSupervisorRestartBackoff checks the capped exponential backoff
// sequence: doubling from restartBackoff, clamped at restartBackoffMax, and
// restarting from the floor on a fresh invocation (the state after a
// successful revive).
func TestSupervisorRestartBackoff(t *testing.T) {
	step := cappedBackoff(restartBackoff, restartBackoffMax)
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond,
		2 * time.Second, 2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := step(); got != w {
			t.Fatalf("step %d = %v, want %v", i, got, w)
		}
	}
	if got := cappedBackoff(restartBackoff, restartBackoffMax)(); got != 100*time.Millisecond {
		t.Fatalf("fresh sequence starts at %v, want the 100ms floor", got)
	}
}

// TestSupervisorScriptedKillAndRestart is the real-socket smoke of what
// TestSupervisorVirtualTime pins in virtual time: the relay of a live line
// is crashed by script, the test waits for the supervisor's own events, and
// the line must heal. In the second case the ether restarts while the relay
// is down, so the relay is revived into a dead medium and must register once
// it returns. Either way teardown leaves no goroutine or socket behind.
func TestSupervisorScriptedKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (several seconds)")
	}
	cases := []struct {
		name          string
		plan          faults.Plan // node index 1 of sorted [1 2 3] is the relay, node 2
		want          []FleetEvent
		etherRestarts int
		// healed reports, after the last event, that the line recovered;
		// delivered is node 3's count at that event.
		healed func(fleet *Fleet, delivered int) bool
	}{
		{
			name: "relay crash",
			plan: faults.Plan{Outages: []faults.Outage{{Node: 1, Start: time.Second, Duration: time.Second}}},
			want: []FleetEvent{
				{At: time.Second, Kind: "kill", Node: 2},
				{At: 2 * time.Second, Kind: "restart", Node: 2},
			},
			healed: func(fleet *Fleet, delivered int) bool { return deliveredTo(fleet, 3) >= delivered+5 },
		},
		{
			// Delivery after an ether restart is TestFleetSurvivesEtherRestartUnderTraffic's;
			// here it would wait out the source's 3 s route refresh.
			name: "relay crash across an ether restart",
			plan: faults.Plan{
				Outages:       []faults.Outage{{Node: 1, Start: 250 * ms, Duration: 500 * ms}},
				EtherRestarts: []faults.EtherRestart{{Start: 500 * ms, Duration: 500 * ms}},
			},
			want: []FleetEvent{
				{At: 250 * ms, Kind: "kill", Node: 2},
				{At: 500 * ms, Kind: "ether-down"},
				{At: 750 * ms, Kind: "restart", Node: 2},
				{At: 1000 * ms, Kind: "ether-up"},
			},
			etherRestarts: 1,
			healed:        func(fleet *Fleet, _ int) bool { return len(fleet.Medium().Clients()) == 3 },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			settled := leakCheck(t)
			var sup *FleetSupervisor
			fleet, stop := startLineFleet(t, 5, func(fleet *Fleet) {
				chaos, err := NewChaos(ChaosConfig{Plan: tc.plan, Seed: 5}, fleet.NodeIDs(), fleet.Driver().Now)
				if err != nil {
					t.Fatal(err)
				}
				fleet.UseChaos(chaos)
				sup = NewFleetSupervisor(fleet, chaos)
			})
			defer stop()

			waitFor(t, 8*time.Second, "the supervisor's scripted events", func() (done bool) {
				fleet.Driver().Do(func() { done = len(sup.Events()) >= len(tc.want) })
				return done
			})
			delivered := deliveredTo(fleet, 3)
			waitFor(t, 8*time.Second, "the line to heal", func() bool { return tc.healed(fleet, delivered) })
			stop()

			rep := sup.Report()
			if !reflect.DeepEqual(rep.Events, tc.want) || rep.EtherRestarts != tc.etherRestarts {
				t.Fatalf("supervisor events = %v and %d ether restarts, want %v and %d",
					rep.Events, rep.EtherRestarts, tc.want, tc.etherRestarts)
			}
			for _, n := range rep.Nodes {
				if n.Availability <= 0 {
					t.Fatalf("node %v availability = %v", n.ID, n.Availability)
				}
				want := 0
				if n.ID == 2 {
					want = 1
				}
				if n.Kills != want || n.Restarts != want {
					t.Fatalf("node %v: %d kills, %d restarts, want %d of each", n.ID, n.Kills, n.Restarts, want)
				}
			}
			if acc := fleet.NodeStats(2); acc.Kills != 1 || acc.Restarts != 1 || acc.Downtime <= 0 {
				t.Fatalf("NodeStats chaos accounting = %+v", acc)
			}
			if res := fleet.Result(); len(res.Health) != 1 {
				t.Fatalf("health groups = %d, want 1", len(res.Health))
			}
			settled()
		})
	}
}

// TestFleetGaugesMatchResult: the emu.fleet.sent/delivered gauges read the
// fleet's lock-free running counts, which must stay equal to the totals of
// its traffic book — across a kill and a restart of the source.
func TestFleetGaugesMatchResult(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	reg := telemetry.NewRegistry()
	fleet, stop := startLineFleet(t, 31, func(fleet *Fleet) { InstrumentFleet(reg, fleet, nil, nil) })
	defer stop()
	waitFor(t, 8*time.Second, "traffic to flow", func() bool { return deliveredTo(fleet, 3) >= 5 })
	if err := fleet.StopDaemon(1); err != nil {
		t.Fatal(err)
	}
	if err := fleet.RestartDaemon(1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 8*time.Second, "the restarted source to send", func() bool { return fleet.Daemon(1).SentCount() >= 5 })
	stop()

	res := fleet.Result()
	sent, delivered := res.Summary.PacketsSent, res.Summary.PacketsDelivered
	gauges := reg.Snapshot().Gauges
	if restarts := fleet.NodeStats(1).Restarts; sent == 0 || delivered == 0 || restarts != 1 {
		t.Fatalf("sent %d, delivered %d, source restarts %d: the run did not exercise the books", sent, delivered, restarts)
	}
	if got := gauges["emu.fleet.sent"]; got != float64(sent) {
		t.Errorf("emu.fleet.sent = %v, Result adds up %d", got, sent)
	}
	if got := gauges["emu.fleet.delivered"]; got != float64(delivered) {
		t.Errorf("emu.fleet.delivered = %v, Result adds up %d", got, delivered)
	}
}

// TestFleetCloseNoGoroutineLeak runs a supervised fleet until traffic gets
// through (1.5 s at most) and checks that teardown returns the process to
// its goroutine and descriptor baseline.
func TestFleetCloseNoGoroutineLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	settled := leakCheck(t)
	fleet, stop := startLineFleet(t, 21, func(fleet *Fleet) {
		NewFleetSupervisor(fleet, nil)
	})
	for ceiling := time.Now().Add(1500 * time.Millisecond); deliveredTo(fleet, 3) == 0 && time.Now().Before(ceiling); {
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	settled()
}

// TestFleetLifecycleCyclesNoLeak kills and revives a daemon, and bounces
// the ether, repeatedly while traffic flows: every generation's goroutines
// and sockets must be gone once the fleet is closed.
func TestFleetLifecycleCyclesNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	cycles := map[string]func(t *testing.T, fleet *Fleet){
		"three daemon stop/restart rounds": func(t *testing.T, fleet *Fleet) {
			for round := 0; round < 3; round++ {
				if err := fleet.StopDaemon(2); err != nil {
					t.Fatal(err)
				}
				if err := fleet.RestartDaemon(2); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 2*time.Second, "restarted relay alive", func() bool { return fleet.DaemonAlive(2) })
			}
			if acc := fleet.NodeStats(2); acc.Kills != 3 || acc.Restarts != 3 {
				t.Fatalf("relay accounting = %+v, want 3 kills / 3 restarts", acc)
			}
		},
		"two ether stop/start rounds": func(t *testing.T, fleet *Fleet) {
			for round := 0; round < 2; round++ {
				if err := fleet.Medium().Stop(); err != nil {
					t.Fatal(err)
				}
				if err := fleet.Medium().Start(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, 5*time.Second, "all daemons re-registered", func() bool { return len(fleet.Medium().Clients()) == 3 })
			}
		},
	}
	for name, cycle := range cycles {
		t.Run(name, func(t *testing.T) {
			settled := leakCheck(t)
			fleet, stop := startLineFleet(t, 41, nil)
			waitFor(t, 8*time.Second, "traffic to flow", func() bool { return deliveredTo(fleet, 3) >= 5 })
			cycle(t, fleet)
			stop()
			settled()
		})
	}
}
