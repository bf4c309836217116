package emu

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"meshcast/internal/sim"
)

// Driver runs a sim.Engine against the wall clock so that the simulation
// components (ODMRP router, prober, tickers) can operate unmodified inside a
// live daemon, and so that a whole live run (Fleet) keeps its schedule, its
// watchdog and its sampling as events on one engine. Virtual time is
// anchored to the driver's start; scheduled events fire when the wall clock
// passes their virtual time, and callbacks from other goroutines are
// injected onto the driver goroutine, preserving the engine's
// single-threaded discipline.
type Driver struct {
	engine *sim.Engine
	// inject carries callbacks from other goroutines to Run. The buffer lets
	// a burst of received frames queue while the driver executes an event;
	// a sender that finds it full blocks until Run drains it or exits.
	inject chan func()
	// done is closed when Run returns, releasing blocked Inject callers.
	done chan struct{}
	// start is the wall-clock anchor of virtual time zero, set by Run.
	start atomic.Pointer[time.Time]
	// mu is held by Run whenever it executes events or injected callbacks,
	// so Do can read the components' state from another goroutine.
	mu sync.Mutex
}

// maxSleep bounds how long the driver sleeps between polls so late-arriving
// injections never wait long.
const maxSleep = 20 * time.Millisecond

// NewDriver creates a real-time driver around a fresh engine.
func NewDriver(seed uint64) *Driver {
	return &Driver{
		engine: sim.NewEngine(seed),
		inject: make(chan func(), 256),
		done:   make(chan struct{}),
	}
}

// Engine exposes the underlying engine for component construction. Use it
// only before Run, from events and injected callbacks, or inside Do.
func (d *Driver) Engine() *sim.Engine { return d.engine }

// Now returns the run time: the wall clock's distance from the moment Run
// began, zero before. It is the one clock of a live run — safe from any
// goroutine, and at or slightly ahead of Engine().Now(), which only the
// driver goroutine may read.
func (d *Driver) Now() time.Duration {
	if start := d.start.Load(); start != nil {
		return time.Since(*start)
	}
	return 0
}

// Inject queues fn to run on the driver goroutine at (approximately) the
// current run time and reports whether it was queued. Safe for concurrent
// use; it blocks while the queue is full and returns false once Run has
// returned, when nothing would drain it.
func (d *Driver) Inject(fn func()) bool {
	select {
	case <-d.done: // checked first: the queue may still have room
		return false
	default:
	}
	select {
	case d.inject <- fn:
		return true
	case <-d.done:
		return false
	}
}

// Do runs fn between events: the driver goroutine is not inside the engine
// or an injected callback while fn runs. For reading the state of the
// components the engine drives (a router's counters, the supervisor's log)
// from outside; fn must not block, and an event must not call Do — it
// already holds the lock.
func (d *Driver) Do(fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fn()
}

// drainBacklog runs queued injections without sleeping.
func (d *Driver) drainBacklog() {
	for {
		select {
		case fn := <-d.inject:
			fn()
		default:
			return
		}
	}
}

// Run drives the engine in real time until ctx is canceled. A driver runs
// once.
func (d *Driver) Run(ctx context.Context) {
	defer close(d.done)
	start := time.Now()
	d.start.Store(&start)
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		// Execute everything due up to the current wall time.
		d.mu.Lock()
		d.engine.Run(d.Now())
		next, pending := d.engine.PeekNext()
		d.mu.Unlock()

		sleep := maxSleep
		if pending {
			if until := next - d.Now(); until < sleep {
				sleep = until
			}
		}
		if sleep < 0 {
			sleep = 0
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)

		select {
		case <-ctx.Done():
			return
		case fn := <-d.inject:
			d.mu.Lock()
			d.engine.Run(d.Now()) // advance the clock before handling input
			fn()
			d.drainBacklog()
			d.mu.Unlock()
		case <-timer.C:
		}
	}
}
