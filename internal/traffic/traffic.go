// Package traffic provides application-layer workload generators for the
// simulation: constant-bit-rate multicast sources matching the paper's
// workload (512-byte packets at 20 packets/second).
package traffic

import (
	"time"

	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// CBRConfig describes a constant-bit-rate multicast flow.
type CBRConfig struct {
	// Group is the destination multicast group.
	Group packet.GroupID
	// PayloadBytes is the application payload per packet (paper: 512).
	PayloadBytes int
	// Interval is the inter-packet gap (paper: 50 ms = 20 pkt/s).
	Interval time.Duration
	// Jitter adds a uniform [0, Jitter) offset per packet to avoid phase
	// lock between flows.
	Jitter time.Duration
	// Start delays the first packet.
	Start time.Duration
}

// Source is the slice of the multicast protocol a traffic generator
// drives: source registration and data emission.
type Source interface {
	StartSource(group packet.GroupID)
	StopSource(group packet.GroupID)
	SendData(group packet.GroupID, payloadBytes int)
}

// CBR drives a router as a multicast source.
type CBR struct {
	// Sent counts packets handed to the router.
	Sent uint64
	// OnSend, when non-nil, observes each data packet's send time.
	OnSend func(at time.Duration)

	router  Source
	engine  *sim.Engine
	rng     *sim.RNG
	cfg     CBRConfig
	ticker  *sim.Ticker
	paused  bool
	started bool
}

// NewCBR creates a CBR source on router; call Start to begin.
func NewCBR(engine *sim.Engine, router Source, cfg CBRConfig) *CBR {
	return &CBR{
		router: router,
		engine: engine,
		rng:    engine.RNG().Split(),
		cfg:    cfg,
	}
}

// Start registers the router as a multicast source and schedules the flow.
func (c *CBR) Start() {
	c.engine.Schedule(c.cfg.Start, func() {
		c.started = true
		if c.paused {
			// The source crashed before its start time; Resume will begin
			// the flow once the node comes back.
			return
		}
		c.begin()
	})
}

// begin registers the source flood and the emission ticker. StartSource is
// idempotent, so resuming a flow whose router kept its source state (a pause
// without a crash) does not double-register.
func (c *CBR) begin() {
	c.router.StartSource(c.cfg.Group)
	c.ticker = sim.NewTicker(c.engine, c.cfg.Interval, c.cfg.Jitter, c.rng, c.emit)
}

// Pause suspends emission, as when the source node crashes: no packets are
// sent (and Sent does not grow) until Resume. Safe to call repeatedly.
func (c *CBR) Pause() {
	if c.paused {
		return
	}
	c.paused = true
	if c.ticker != nil {
		c.ticker.Stop()
		c.ticker = nil
	}
}

// Resume restarts a paused flow. It re-registers the source with the router —
// a crash wipes the router's source state (Protocol.Reset), so the protocol's
// route-refresh activity must be rebuilt, not just the emission ticker.
func (c *CBR) Resume() {
	if !c.paused {
		return
	}
	c.paused = false
	if c.started {
		c.begin()
	}
}

func (c *CBR) emit() {
	c.router.SendData(c.cfg.Group, c.cfg.PayloadBytes)
	c.Sent++
	if c.OnSend != nil {
		c.OnSend(c.engine.Now())
	}
}
