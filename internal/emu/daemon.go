package emu

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	_ "meshcast/internal/multicast/protocols" // populate the protocol registry
	"meshcast/internal/packet"
	"meshcast/internal/sim"
	"meshcast/internal/traffic"
)

// DaemonConfig configures one odmrpd instance.
type DaemonConfig struct {
	// ID is this daemon's node ID (unique per ether).
	ID packet.NodeID
	// EtherAddr is the ether server's UDP address.
	EtherAddr string
	// Metric selects the routing metric.
	Metric metric.Kind
	// Protocol selects the multicast routing protocol by registered name;
	// empty means multicast.Default (ODMRP).
	Protocol string
	// JoinGroups lists groups to join as a receiver.
	JoinGroups []packet.GroupID
	// SourceGroups lists groups to source CBR traffic into.
	SourceGroups []packet.GroupID
	// PayloadBytes and SendInterval shape the CBR flow (512 B, 50 ms).
	PayloadBytes int
	SendInterval time.Duration
	// Seed drives protocol randomness.
	Seed uint64
	// OnDeliver, when set, observes every application-layer delivery (in
	// addition to the daemon's own per-source counts). Called from the
	// daemon's driver goroutine; must be cheap and thread-safe, and must not
	// keep p.
	OnDeliver func(p *packet.Packet)
	// OnSend, when set, observes every CBR data packet the daemon
	// originates. Same contract as OnDeliver.
	OnSend func(g packet.GroupID)
}

// Daemon is a live ODMRP node: the paper's odmrpd (§5.2) over the emulated
// ether. It reuses the simulator's protocol components unchanged, driven in
// real time.
type Daemon struct {
	cfg    DaemonConfig
	conn   *NodeConn
	driver *Driver
	router multicast.Protocol
	prober *linkquality.Prober
	table  *linkquality.Table

	mu        sync.Mutex
	delivered map[packet.NodeID]int // per source; counts, so a soak's memory stays flat
	sent      uint64
	// lastActivity is the daemon's run time (driver.Now) at its latest
	// packet sent or received; active says there has been one.
	lastActivity time.Duration
	active       bool
}

// NewDaemon connects to the ether and assembles the protocol stack. Call
// Run to start it.
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.PayloadBytes == 0 {
		cfg.PayloadBytes = 512
	}
	if cfg.SendInterval == 0 {
		cfg.SendInterval = 50 * time.Millisecond
	}
	pm, err := metric.New(cfg.Metric)
	if err != nil {
		return nil, err
	}
	driver := NewDriver(cfg.Seed)
	engine := driver.Engine()
	conn, err := Dial(cfg.ID, cfg.EtherAddr, driver.Now)
	if err != nil {
		return nil, err
	}

	table := linkquality.NewTable(cfg.PayloadBytes, linkquality.DefaultWindowSize, linkquality.DefaultStaleAfter)
	prober := linkquality.NewProber(engine, cfg.ID, linkquality.ConfigFor(cfg.Metric))
	router, err := multicast.New(cfg.Protocol, multicast.Env{
		Engine: engine,
		ID:     cfg.ID,
		Metric: pm,
		Table:  table,
	}, nil)
	if err != nil {
		conn.Close()
		return nil, err
	}

	d := &Daemon{
		cfg: cfg, conn: conn, driver: driver, router: router, prober: prober, table: table,
		delivered: make(map[packet.NodeID]int),
	}
	// Every frame the daemon puts on the air is a liveness heartbeat: the
	// prober's periodic probes guarantee a send cadence even on idle nodes,
	// so a healthy daemon's LastActivity keeps advancing.
	send := func(p *packet.Packet) bool {
		d.touch()
		return conn.Send(p)
	}
	prober.Send = send
	router.SetSend(send)
	router.SetOnDeliver(func(p *packet.Packet, _ packet.NodeID) {
		d.mu.Lock()
		d.delivered[p.Src]++
		d.mu.Unlock()
		if cfg.OnDeliver != nil {
			cfg.OnDeliver(p)
		}
	})
	conn.SetOnPacket(func(p *packet.Packet, from packet.NodeID) {
		driver.Inject(func() { d.dispatch(p, from) })
	})
	return d, nil
}

func (d *Daemon) dispatch(p *packet.Packet, from packet.NodeID) {
	d.touch()
	if linkquality.HandleProbe(d.table, p, from, d.driver.Engine().Now()) {
		return
	}
	d.router.Handle(p, from)
}

// touch stamps protocol activity (any packet sent or received).
func (d *Daemon) touch() {
	d.mu.Lock()
	d.lastActivity, d.active = d.driver.Now(), true
	d.mu.Unlock()
}

// Engine returns the daemon's engine, for arming periodic work of the
// caller's (a watchdog, a status line) beside the daemon's own before Run.
func (d *Daemon) Engine() *sim.Engine { return d.driver.Engine() }

// Run starts the registration keepalive, probing, group membership, and
// traffic, and drives the daemon until ctx is canceled. The keepalive's
// jitter comes from the engine's seeded source, so a daemon's reconnect
// schedule is reproducible from its seed and distinct seeds keep a fleet's
// retries decorrelated. Each source group is the simulator's CBR source
// without jitter: registered at start, first packet one interval later.
func (d *Daemon) Run(ctx context.Context) {
	engine := d.driver.Engine()
	d.conn.keepAlive(engine, engine.RNG().Split())
	engine.Schedule(0, func() {
		d.prober.Start()
		for _, g := range d.cfg.JoinGroups {
			d.router.JoinGroup(g)
		}
	})
	for _, g := range d.cfg.SourceGroups {
		cbr := traffic.NewCBR(engine, d.router, traffic.CBRConfig{
			Group:        g,
			PayloadBytes: d.cfg.PayloadBytes,
			Interval:     d.cfg.SendInterval,
		})
		cbr.OnSend = func(time.Duration) {
			d.mu.Lock()
			d.sent++
			d.mu.Unlock()
			if d.cfg.OnSend != nil {
				d.cfg.OnSend(g)
			}
		}
		cbr.Start()
	}
	d.driver.Run(ctx)
}

// Close tears the daemon's connection down.
func (d *Daemon) Close() error { return d.conn.Close() }

// Registered reports whether the ether has acknowledged this daemon's
// registration recently.
func (d *Daemon) Registered() bool { return d.conn.Registered() }

// Alive reports daemon liveness for supervision: the ether acknowledges its
// registration and it has shown protocol activity within window. Probing
// guarantees a send cadence, so a healthy daemon is always "active".
func (d *Daemon) Alive(window time.Duration) bool {
	if !d.Registered() {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.active && d.driver.Now()-d.lastActivity < window
}

// DeliveredBySource returns how many packets each source has delivered to
// this daemon's application layer so far.
func (d *Daemon) DeliveredBySource() map[packet.NodeID]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return maps.Clone(d.delivered)
}

// DeliveredCount returns the number of packets delivered so far (telemetry
// polls this every sample).
func (d *Daemon) DeliveredCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	total := 0
	for _, n := range d.delivered {
		total += n
	}
	return total
}

// SentCount returns the number of data packets this daemon originated.
func (d *Daemon) SentCount() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sent
}

// ReadRouter applies read — a line of the protocol's counter export table,
// multicast.Counter.Read — to the daemon's router under the driver's lock,
// so it is safe from any goroutine while the daemon runs.
func (d *Daemon) ReadRouter(read func(multicast.Protocol) uint64) (v uint64) {
	d.driver.Do(func() { v = read(d.router) })
	return v
}

// Protocol returns the registered name of the multicast protocol this
// daemon runs.
func (d *Daemon) Protocol() string { return d.router.Name() }

// Summary formats a one-line status.
func (d *Daemon) Summary() string {
	return fmt.Sprintf("%sd id=%v metric=%v sent=%d delivered=%d",
		d.router.Name(), d.cfg.ID, d.cfg.Metric, d.SentCount(), d.DeliveredCount())
}
