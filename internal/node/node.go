// Package node assembles a complete mesh router from the substrate layers:
// radio (phy), 802.11 MAC, link-quality prober + NEIGHBOR TABLE, and a
// multicast routing protocol selected from the multicast registry. It is the
// unit the simulation scenarios instantiate once per mesh node.
package node

import (
	"meshcast/internal/geom"
	"meshcast/internal/linkquality"
	"meshcast/internal/mac"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	_ "meshcast/internal/multicast/protocols" // populate the protocol registry
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/sim"
	"meshcast/internal/trace"
)

// Config bundles the per-node configuration.
type Config struct {
	// Metric selects the routing metric (and thereby the probing mode).
	Metric metric.Kind
	// Protocol selects the multicast routing protocol by registered name;
	// empty means multicast.Default (ODMRP).
	Protocol string
	// Tuning optionally carries protocol-specific parameters (ODMRP takes
	// an *odmrp.Params, MCST none); nil lets the protocol derive the
	// paper's defaults from Metric.
	Tuning any
	// MAC configures the 802.11 DCF parameters.
	MAC mac.Params
	// Probe configures probing; the zero value means "derive from Metric".
	Probe linkquality.Config
	// DataPacketBytes is the nominal data payload handed to ETT.
	DataPacketBytes int
	// WindowSize is the probe loss-window length.
	WindowSize int
	// Tracer, when non-nil, receives this node's packet-journey spans.
	Tracer *trace.Tracer
}

// DefaultConfig returns the paper's configuration for a given metric. The
// protocol's own parameters (δ, α, refresh timing) are derived from the
// metric by its factory: original first-copy behavior for MinHop, the
// paper's modified parameters otherwise.
func DefaultConfig(k metric.Kind) Config {
	return Config{
		Metric:          k,
		MAC:             mac.DefaultParams(),
		Probe:           linkquality.ConfigFor(k),
		DataPacketBytes: 512,
		WindowSize:      linkquality.DefaultWindowSize,
	}
}

// Node is one mesh router: radio + MAC + prober + neighbor table + a
// multicast protocol instance.
type Node struct {
	ID     packet.NodeID
	Radio  *phy.Radio
	MAC    *mac.MAC
	Table  *linkquality.Table
	Prober *linkquality.Prober
	Router multicast.Protocol

	engine *sim.Engine
	down   bool
}

// New builds a node at position pos on the given medium.
func New(engine *sim.Engine, medium *phy.Medium, id packet.NodeID, pos geom.Point, cfg Config) (*Node, error) {
	pm, err := metric.New(cfg.Metric)
	if err != nil {
		return nil, err
	}
	radio := medium.AttachRadio(id, pos)
	m := mac.New(engine, radio, cfg.MAC)
	table := linkquality.NewTable(cfg.DataPacketBytes, cfg.WindowSize, linkquality.DefaultStaleAfter)
	probeCfg := cfg.Probe
	if probeCfg.Mode == 0 {
		probeCfg = linkquality.ConfigFor(cfg.Metric)
	}
	prober := linkquality.NewProber(engine, id, probeCfg)
	router, err := multicast.New(cfg.Protocol, multicast.Env{
		Engine: engine,
		ID:     id,
		Metric: pm,
		Table:  table,
	}, cfg.Tuning)
	if err != nil {
		return nil, err
	}

	n := &Node{
		ID:     id,
		Radio:  radio,
		MAC:    m,
		Table:  table,
		Prober: prober,
		Router: router,
		engine: engine,
	}
	prober.Send = m.SendBroadcast
	router.SetSend(m.SendBroadcast)
	router.SetTracer(cfg.Tracer)
	// The MAC and medium emit packet-journey spans through the same
	// tracer; every node on a run shares one, so re-assigning the
	// medium's is harmless.
	m.Tracer = cfg.Tracer
	medium.Tracer = cfg.Tracer
	m.Deliver = n.dispatch
	return n, nil
}

// dispatch routes received network packets to the right subsystem.
func (n *Node) dispatch(p *packet.Packet, from packet.NodeID) {
	if linkquality.HandleProbe(n.Table, p, from, n.engine.Now()) {
		return
	}
	n.Router.Handle(p, from)
}

// Start begins background activity (probing). Multicast sources and members
// are registered separately via the Router.
func (n *Node) Start() { n.Prober.Start() }

// Stop halts background activity.
func (n *Node) Stop() { n.Prober.Stop() }

// Down reports whether the node is currently crashed (between Fail and
// Restore).
func (n *Node) Down() bool { return n.down }

// Fail crashes the node: the radio powers off, the MAC drops its queue and
// timers, probing stops, and the router loses all of its protocol soft state
// (forwarding flags, route-establishment rounds, duplicate windows, active
// source activity). Neighbors keep their estimates for this node until their
// own StaleAfter expiry — they have no way to know it died. Fail on a node
// that is already down is a no-op.
func (n *Node) Fail() {
	if n.down {
		return
	}
	n.down = true
	n.Radio.SetDown(true)
	n.MAC.Reset()
	n.Prober.Stop()
	n.Router.Reset()
}

// Restore restarts a crashed node: the radio powers on, probing resumes, and
// the NEIGHBOR TABLE is wiped so the node re-learns link qualities from
// scratch instead of routing on estimates measured before the outage.
// Receiver group memberships survive (configuration); sources must be
// re-registered by the application (StartSource / CBR resume). Restore on a
// node that is up is a no-op.
func (n *Node) Restore() {
	if !n.down {
		return
	}
	n.down = false
	n.Radio.SetDown(false)
	n.Table.Reset()
	n.Prober.Start()
}
