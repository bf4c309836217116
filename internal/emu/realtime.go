package emu

import (
	"context"
	"sync"
	"time"

	"meshcast/internal/sim"
)

// Driver runs a sim.Engine against the wall clock so that the simulation
// components (ODMRP router, prober, tickers) can operate unmodified inside a
// live daemon. Virtual time is anchored to the driver's start; scheduled
// events fire when the wall clock passes their virtual time, and externally
// received packets are injected onto the driver goroutine, preserving the
// engine's single-threaded discipline.
type Driver struct {
	engine *sim.Engine
	inject chan func()
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
	}
}

// Engine exposes the underlying engine for component construction. Use it
// only before Run, or from injected callbacks.
func (d *Driver) Engine() *sim.Engine { return d.engine }

// Inject schedules fn to run on the driver goroutine at (approximately) the
// current wall-clock-mapped virtual time. Safe for concurrent use; drops
// nothing (blocks if the queue is full).
func (d *Driver) Inject(fn func()) {
	select {
	case d.inject <- fn:
	default:
		// Queue full: block rather than drop — packet receive rates in the
		// emulation are far below the queue drain rate, so this is rare.
		d.inject <- fn
	}
}

// Do runs fn between events: the driver goroutine is not inside the engine
// or an injected callback while fn runs. For reading the state of the
// components the engine drives (a router's counters) from outside; fn must
// not block.
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

// Run drives the engine in real time until ctx is canceled.
func (d *Driver) Run(ctx context.Context) {
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		// Execute everything due up to the current wall time.
		d.mu.Lock()
		d.engine.Run(now())
		next, pending := d.engine.PeekNext()
		d.mu.Unlock()

		sleep := maxSleep
		if pending {
			if until := next - now(); until < sleep {
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
			d.engine.Run(now()) // advance the clock before handling input
			fn()
			d.drainBacklog()
			d.mu.Unlock()
		case <-timer.C:
		}
	}
}
