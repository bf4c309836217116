package emu

import (
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

const (
	// watchdogEvery is the liveness poll period. Scheduled chaos events do
	// not wait for it — each fires at its own offset.
	watchdogEvery = 50 * time.Millisecond
	// unhealthyAfter is how long an unscheduled dead daemon is tolerated
	// before the watchdog force-restarts it.
	unhealthyAfter = 3 * time.Second
	// restartBackoff doubling up to restartBackoffMax spaces the attempts to
	// revive a daemon or rebind the ether (the ether may still be down, or
	// the OS may hold the socket). Every sequence starts at the floor, so a
	// success resets the next failure's delay.
	restartBackoff    = 100 * time.Millisecond
	restartBackoffMax = 2 * time.Second
)

// cappedBackoff returns a step function yielding first, 2×, 4×, ... clamped
// at ceiling — the one backoff of the live side (restart and ether-up
// retries here, the registration keepalive in ether.go).
func cappedBackoff(first, ceiling time.Duration) func() time.Duration {
	next := first
	return func() time.Duration {
		d := next
		next = min(2*next, ceiling)
		return d
	}
}

// FleetEvent is one supervision action actually executed (as opposed to
// ChaosEvent, which is the schedule).
type FleetEvent struct {
	// At is the run time of the action: the run engine's clock when the
	// event executed.
	At time.Duration
	// Kind is one of "kill", "restart", "restart-failed", "watchdog-restart",
	// "ether-down", "ether-up" — or, over a bare medium, the faults.Event*
	// kind of a scheduled event that was only logged.
	Kind string
	// Node is the affected node (0 for ether events).
	Node packet.NodeID
	// Backoff is the delay before the next attempt, set on "restart-failed"
	// events — the observable the backoff tests and control plane read.
	Backoff time.Duration `json:",omitempty"`
}

// NodeReport is one node's supervision outcome.
type NodeReport struct {
	ID       packet.NodeID
	Kills    int
	Restarts int
	Downtime time.Duration
	// Availability is 1 − downtime/elapsed.
	Availability float64
}

// SupervisorReport summarizes a supervised run.
type SupervisorReport struct {
	// Elapsed is the run time the report was taken at.
	Elapsed time.Duration
	// Nodes is per-node accounting, sorted by ID — every fleet node
	// appears, including ones the chaos schedule never touched.
	Nodes []NodeReport
	// EtherRestarts counts completed medium down/up cycles.
	EtherRestarts int
	// Events is the executed action log, in order.
	Events []FleetEvent
}

// bounced is the ether half of what the supervisor drives: *Medium, or a
// fake in the tests, so supervision runs in virtual time without a socket.
type bounced interface {
	Stop() error
	Start() error
	Up() bool
}

// roster is the daemon half: *Fleet, or the same fake. A supervisor over a
// bare medium has none.
type roster interface {
	NodeIDs() []packet.NodeID
	StopDaemon(id packet.NodeID) error
	RestartDaemon(id packet.NodeID) error
	DaemonAlive(id packet.NodeID) bool
	NodeStats(id packet.NodeID) NodeAccounting
}

// FleetSupervisor executes a chaos schedule against a live fleet and keeps
// it healthy in between: scripted node crashes become StopDaemon calls,
// scripted recoveries become RestartDaemon with capped-backoff retry,
// scripted medium outages bounce the ether, and a liveness watchdog
// force-restarts daemons that die without being scheduled to. Surviving
// daemons are never touched — degradation is per-node. Over a bare medium
// (NewMediumSupervisor) it bounces the ether the same way, arms no watchdog
// and only logs the schedule's other events.
//
// It is a component of the run engine, like a router is of a daemon's:
// every action is an engine event, so its state needs no lock of its own.
// Inject is safe from any goroutine; everything else belongs to the run
// goroutine — call Events and Report from an engine event, inside
// Fleet.Driver().Do, or once Fleet.Run has returned.
type FleetSupervisor struct {
	ether   bounced
	daemons roster // nil over a bare medium
	engine  *sim.Engine
	driver  *Driver         // paces engine; nil when a test steps the engine itself
	ids     []packet.NodeID // sorted
	// observe, when set, sees every event as it is logged.
	observe func(FleetEvent)

	events        []FleetEvent
	etherRestarts int
	scheduledDown map[packet.NodeID]bool
	restarting    map[packet.NodeID]bool
	// unhealthy holds the run time the watchdog first saw each suspect dead.
	unhealthy map[packet.NodeID]time.Duration
}

// NewFleetSupervisor arms a supervisor on the fleet's run engine; Fleet.Run
// drives it. chaos may be nil, in which case only the liveness watchdog
// runs. Call before Run.
func NewFleetSupervisor(fleet *Fleet, chaos *Chaos) *FleetSupervisor {
	s := newSupervisor(fleet.medium, fleet, fleet.driver.Engine())
	s.driver = fleet.driver
	if chaos != nil {
		s.schedule(chaos.Events())
	}
	return s
}

// NewMediumSupervisor arms chaos's schedule against a medium no fleet owns,
// on the engine of the driver the caller runs: ether restarts bounce the
// medium, with the same backoff when the rebind fails, and every other event
// is only logged — there is no daemon to kill, so the medium's impairment
// hook is what takes a down node's radio off the air (Chaos.NodeDown).
// observe, if not nil, is called on the run goroutine with each event as it
// is logged.
func NewMediumSupervisor(medium *Medium, driver *Driver, chaos *Chaos, observe func(FleetEvent)) *FleetSupervisor {
	s := newSupervisor(medium, nil, driver.Engine())
	s.driver, s.observe = driver, observe
	s.schedule(chaos.Events())
	return s
}

func newSupervisor(ether bounced, daemons roster, engine *sim.Engine) *FleetSupervisor {
	s := &FleetSupervisor{
		ether:         ether,
		daemons:       daemons,
		engine:        engine,
		scheduledDown: make(map[packet.NodeID]bool),
		restarting:    make(map[packet.NodeID]bool),
		unhealthy:     make(map[packet.NodeID]time.Duration),
	}
	if daemons != nil {
		s.ids = daemons.NodeIDs()
		sim.NewTicker(engine, watchdogEvery, 0, nil, s.watchdog)
	}
	return s
}

// Inject merges extra chaos events into the live schedule — the control
// plane's /faults/script path. Event offsets are run time; events already
// in the past fire at once. Safe from any goroutine; false means the run
// has ended and the events were dropped.
func (s *FleetSupervisor) Inject(events []ChaosEvent) bool {
	return s.driver.Inject(func() { s.schedule(events) })
}

// schedule puts each event on the engine at its offset (the engine clamps
// past offsets to now, keeping their order).
func (s *FleetSupervisor) schedule(events []ChaosEvent) {
	for _, ev := range events {
		s.engine.At(ev.At, func() { s.execute(ev) })
	}
}

// execute dispatches one scheduled chaos event.
func (s *FleetSupervisor) execute(ev ChaosEvent) {
	switch {
	case ev.Kind == faults.EventEtherDown:
		if err := s.ether.Stop(); err == nil {
			s.log(FleetEvent{Kind: "ether-down"})
		}
	case ev.Kind == faults.EventEtherUp:
		s.retry(func(time.Duration) bool {
			if err := s.ether.Start(); err != nil {
				return false
			}
			s.log(FleetEvent{Kind: "ether-up"})
			s.etherRestarts++
			return true
		})
	case s.daemons == nil:
		s.log(FleetEvent{Kind: ev.Kind, Node: ev.ID})
	case ev.Kind == faults.EventNodeDown:
		s.scheduledDown[ev.ID] = true
		if err := s.daemons.StopDaemon(ev.ID); err == nil {
			s.log(FleetEvent{Kind: "kill", Node: ev.ID})
		}
	case ev.Kind == faults.EventNodeUp:
		delete(s.scheduledDown, ev.ID)
		s.restart(ev.ID, "restart")
	}
	// Link faults, heals, and partitions need no action here: the chaos
	// impairment hook installed on the ether enforces them continuously.
}

// retry calls try now and, until it reports success, again after each step
// of a fresh capped exponential backoff. try is told the wait that follows
// a failure.
func (s *FleetSupervisor) retry(try func(wait time.Duration) bool) {
	step := cappedBackoff(restartBackoff, restartBackoffMax)
	var attempt func()
	attempt = func() {
		if wait := step(); !try(wait) {
			s.engine.Schedule(wait, attempt)
		}
	}
	attempt()
}

// restart revives a daemon with capped exponential backoff. At most one
// restart sequence per node runs at a time, and a scripted outage that
// begins while it backs off ends it: the outage's own node-up starts the
// next one.
func (s *FleetSupervisor) restart(id packet.NodeID, kind string) {
	if s.restarting[id] {
		return
	}
	s.restarting[id] = true
	s.retry(func(wait time.Duration) bool {
		if s.scheduledDown[id] {
			delete(s.restarting, id)
			return true
		}
		if err := s.daemons.RestartDaemon(id); err != nil {
			s.log(FleetEvent{Kind: "restart-failed", Node: id, Backoff: wait})
			return false
		}
		delete(s.restarting, id)
		s.log(FleetEvent{Kind: kind, Node: id})
		return true
	})
}

// watchdog force-restarts daemons that are dead without a scheduled reason
// for longer than unhealthyAfter.
func (s *FleetSupervisor) watchdog() {
	if !s.ether.Up() {
		// Liveness is unobservable without the medium: every daemon loses
		// its registration during an ether outage. Forget accumulated
		// suspicions so daemons get a fresh unhealthyAfter budget to
		// re-register once the medium returns.
		clear(s.unhealthy)
		return
	}
	now := s.engine.Now()
	for _, id := range s.ids {
		if s.scheduledDown[id] || s.restarting[id] || s.daemons.DaemonAlive(id) {
			delete(s.unhealthy, id)
			continue
		}
		since, seen := s.unhealthy[id]
		if !seen {
			s.unhealthy[id] = now
			continue
		}
		if now-since >= unhealthyAfter {
			delete(s.unhealthy, id)
			// The daemon may be wedged rather than gone: kill any live
			// generation first, then revive with backoff.
			s.daemons.StopDaemon(id)
			s.restart(id, "watchdog-restart")
		}
	}
}

func (s *FleetSupervisor) log(ev FleetEvent) {
	ev.At = s.engine.Now()
	s.events = append(s.events, ev)
	if s.observe != nil {
		s.observe(ev)
	}
}

// Events returns the executed action log so far.
func (s *FleetSupervisor) Events() []FleetEvent {
	return append([]FleetEvent(nil), s.events...)
}

// Report summarizes supervision outcomes up to the run engine's current
// time.
func (s *FleetSupervisor) Report() SupervisorReport {
	rep := SupervisorReport{Elapsed: s.engine.Now(), Events: s.Events(), EtherRestarts: s.etherRestarts}
	for _, id := range s.ids {
		acc := s.daemons.NodeStats(id)
		nr := NodeReport{ID: id, Kills: acc.Kills, Restarts: acc.Restarts, Downtime: acc.Downtime, Availability: 1}
		if rep.Elapsed > 0 {
			nr.Availability = max(0, 1-float64(acc.Downtime)/float64(rep.Elapsed))
		}
		rep.Nodes = append(rep.Nodes, nr)
	}
	return rep
}
