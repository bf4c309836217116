package linkquality

import (
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// Mode selects a probing strategy.
type Mode int

// Probing modes.
const (
	// ModeNone sends no probes (original ODMRP / MinHop).
	ModeNone Mode = iota + 1
	// ModeSingle broadcasts one small probe per interval (ETX, METX, SPP).
	ModeSingle
	// ModePair broadcasts a small+large back-to-back pair per interval
	// (PP, ETT).
	ModePair
)

// Default probe dimensions and intervals (paper §2.2: ETX probes every 5 s,
// PP/ETT pairs every 10 s).
const (
	DefaultSingleInterval = 5 * time.Second
	DefaultPairInterval   = 10 * time.Second
	// DefaultSmallPayload gives a ~110-byte probe at the network layer.
	DefaultSmallPayload = 74
	// DefaultLargePayload gives a ~1000-byte large pair half, big enough
	// for a meaningful bandwidth estimate.
	DefaultLargePayload = 964
	// DefaultWindowSize is the loss-window length in probes. Ten probes at
	// the 5 s interval is the classic 50 s ETX window — a short history
	// compared to PP's long EWMA memory (§5.3).
	DefaultWindowSize = 10
	// DefaultStaleAfter expires a neighbor from the NEIGHBOR TABLE after two
	// minutes without a probe, in simulated and live routers alike.
	DefaultStaleAfter = 2 * time.Minute
)

// Config describes one node's probing behavior.
type Config struct {
	Mode Mode
	// Interval separates probe (or pair) transmissions.
	Interval time.Duration
	// Jitter desynchronizes probers across nodes; each firing adds a
	// uniform [0, Jitter) offset.
	Jitter time.Duration
}

// ConfigFor returns the paper's probing configuration for a routing metric.
func ConfigFor(k metric.Kind) Config {
	switch k {
	case metric.ETX, metric.METX, metric.SPP:
		return Config{Mode: ModeSingle, Interval: DefaultSingleInterval, Jitter: time.Second}
	case metric.PP, metric.ETT:
		return Config{Mode: ModePair, Interval: DefaultPairInterval, Jitter: time.Second}
	default:
		return Config{Mode: ModeNone}
	}
}

// ScaleRate multiplies the probing *rate* by factor (so factor 5 probes five
// times as often, factor 0.1 ten times less often), the knob behind the
// paper's probing-overhead experiments (§4.2.2).
func (c Config) ScaleRate(factor float64) Config {
	if factor <= 0 || c.Mode == ModeNone {
		return c
	}
	c.Interval = time.Duration(float64(c.Interval) / factor)
	c.Jitter = time.Duration(float64(c.Jitter) / factor)
	return c
}

// Stats counts probing activity at one node: the Prober fills the sent
// half, the Table the received half.
type Stats struct {
	// ProbesSent counts probe packets handed to the MAC.
	ProbesSent uint64
	// BytesSent counts network-layer probe bytes handed to the MAC.
	BytesSent uint64
	// ProbesReceived counts probe receptions fed into the neighbor table.
	ProbesReceived uint64
	// EWMAUpdates counts packet-pair EWMA refreshes from complete pairs.
	EWMAUpdates uint64
}

// Prober periodically broadcasts probes on behalf of one node.
type Prober struct {
	// Send transmits a probe packet; wired to the node's MAC broadcast.
	// It reports whether the packet was accepted.
	Send func(p *packet.Packet) bool
	// Stats accumulates counters.
	Stats Stats

	id     packet.NodeID
	engine *sim.Engine
	rng    *sim.RNG
	cfg    Config
	seq    uint32
	ticker *sim.Ticker
}

// NewProber creates a prober for node id; call Start to begin probing.
func NewProber(engine *sim.Engine, id packet.NodeID, cfg Config) *Prober {
	return &Prober{
		id:     id,
		engine: engine,
		rng:    engine.RNG().Split(),
		cfg:    cfg,
	}
}

// Start begins periodic probing. It is a no-op for ModeNone.
func (p *Prober) Start() {
	if p.cfg.Mode == ModeNone || p.ticker != nil {
		return
	}
	p.ticker = sim.NewTicker(p.engine, p.cfg.Interval, p.cfg.Jitter, p.rng, p.fire)
}

// Stop halts probing.
func (p *Prober) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
		p.ticker = nil
	}
}

func (p *Prober) fire() {
	switch p.cfg.Mode {
	case ModeSingle:
		p.emit(&packet.Packet{
			Kind:         packet.TypeProbe,
			Src:          p.id,
			PrevHop:      p.id,
			Seq:          p.seq,
			PayloadBytes: DefaultSmallPayload,
		})
	case ModePair:
		p.emit(&packet.Packet{
			Kind:         packet.TypeProbePairSmall,
			Src:          p.id,
			PrevHop:      p.id,
			Seq:          p.seq,
			PayloadBytes: DefaultSmallPayload,
		})
		p.emit(&packet.Packet{
			Kind:         packet.TypeProbePairLarge,
			Src:          p.id,
			PrevHop:      p.id,
			Seq:          p.seq,
			PayloadBytes: DefaultLargePayload,
		})
	}
	p.seq++
}

func (p *Prober) emit(pkt *packet.Packet) {
	pkt.SentAt = p.engine.Now()
	if p.Send != nil && p.Send(pkt) {
		p.Stats.ProbesSent++
		p.Stats.BytesSent += uint64(pkt.SizeBytes())
	}
}

// HandleProbe feeds a received probe packet into the neighbor table t.
// Returns true if the packet was a probe (and thus consumed).
func HandleProbe(t *Table, pkt *packet.Packet, from packet.NodeID, now time.Duration) bool {
	switch pkt.Kind {
	case packet.TypeProbe:
		t.ObserveProbe(uint16(from), pkt.Seq, now)
	case packet.TypeProbePairSmall:
		t.ObservePairSmall(uint16(from), pkt.Seq, now)
	case packet.TypeProbePairLarge:
		t.ObservePairLarge(uint16(from), pkt.Seq, now, pkt.SizeBytes())
	default:
		return false
	}
	return true
}
