// Package world is the one place a simulated run is wired and counted. It
// owns the engine, the medium and the nodes in the order they were added,
// group membership and CBR sources, the delivery collector (which holds the
// one subscription rule) and delay tracker, the probe-overhead window, the
// run-level telemetry instruments, and the end-of-run harvest.
//
// Its three clients add only what is their own: experiments.RunScenario the
// capture writer, fault scheduler, mover and their disruption trackers;
// testbed.RunScenario the loss processes and link oracle; meshcast.Simulation
// a typed façade. Outside this package and test harnesses, nothing calls
// node.New, and the live side calls the rest once each: the fleet's traffic
// book is a stats.NewCollector (internal/emu/fleet.go), a daemon's source is
// a traffic.NewCBR and its router's delivery hook a Protocol.SetOnDeliver
// (internal/emu/daemon.go).
package world

import (
	"fmt"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/multicast"
	"meshcast/internal/node"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/stats"
	"meshcast/internal/telemetry"
	"meshcast/internal/trace"
	"meshcast/internal/traffic"
)

// Config describes a world before any node exists.
type Config struct {
	// Seed drives all randomness.
	Seed uint64
	// Fading selects the fading model; nil means Rayleigh (the paper's).
	Fading propagation.Fading
	// Node is the template every AddNode builds from. Its Tracer is set
	// through SetTracer, which needs the world's engine to exist first.
	Node node.Config
	// PayloadBytes and SendInterval shape every CBR flow; each packet is
	// jittered by a tenth of the interval.
	PayloadBytes int
	SendInterval time.Duration
}

// maxMSDU is 802.11's largest MSDU: the most payload one data frame carries.
const maxMSDU = 2304

// FieldError is an input a rule rejects: the configuration field it sits in
// and why. Config, experiments.ScenarioConfig and meshcast.SimulationConfig
// call the fields they share by one name, so a front end can map Field to
// its own name for the input (a flag, a JSON key).
type FieldError struct {
	Field  string
	Reason string
}

func (e *FieldError) Error() string { return e.Field + ": " + e.Reason }

// CheckCBR is the rule a CBR flow's shape keeps: a payload of 1 to 2 304
// bytes (802.11's MSDU) and an interval no shorter than the PHY preamble,
// which no frame is shorter than on the air. A source any faster, or one
// whose interval is not positive, would schedule its next packet at or
// before the instant it sends and keep a run from ever finishing.
func CheckCBR(payloadBytes int, interval time.Duration) error {
	if payloadBytes < 1 || payloadBytes > maxMSDU {
		return &FieldError{"PayloadBytes", fmt.Sprintf("must be in 1…%d (802.11's MSDU), got %d", maxMSDU, payloadBytes)}
	}
	if floor := phy.DefaultParams().PreambleDelay; interval < floor {
		return &FieldError{"SendInterval", fmt.Sprintf("must be at least the %v PHY preamble, got %v", floor, interval)}
	}
	return nil
}

// group is one multicast group's declared receivers and sources, in the
// order they were declared.
type group struct {
	id      packet.GroupID
	members []packet.NodeID
	sources []packet.NodeID
}

// World is a wired simulation: engine, medium, nodes, groups, flows and
// the measurements taken on them.
type World struct {
	Engine *sim.Engine
	Medium *phy.Medium

	// OnDeliver, when non-nil, observes every first-copy delivery of a data
	// packet to a group member, after it has been counted.
	OnDeliver func(p *packet.Packet, at time.Duration)
	// OnSend, when non-nil, observes every data packet a source hands to its
	// router, with the number of delivery opportunities it creates: the
	// group's members other than the source.
	OnSend func(group packet.GroupID, at time.Duration, receivers int)

	cfg    Config
	nodes  []*node.Node
	byID   map[packet.NodeID]*node.Node
	groups []*group

	collector *stats.Collector
	delays    stats.DelayTracker
	// warmupProbeBytes is what the probers had sent when the measurement
	// window opened (MeasureFrom); zero when it never did.
	warmupProbeBytes uint64
	// queueDepth is the one instrument with no per-node field behind it;
	// nil until Instrument.
	queueDepth *telemetry.Histogram
}

// New builds an empty world: an engine on cfg.Seed and a two-ray medium
// with the default 802.11 PHY parameters.
func New(cfg Config) *World {
	engine := sim.NewEngine(cfg.Seed)
	fading := cfg.Fading
	if fading == nil {
		fading = propagation.Rayleigh{}
	}
	return &World{
		Engine:    engine,
		Medium:    phy.NewMedium(engine, propagation.NewTwoRay(), fading, phy.DefaultParams()),
		cfg:       cfg,
		byID:      make(map[packet.NodeID]*node.Node),
		collector: stats.NewCollector(),
	}
}

// SetTracer hands every node added from now on the tracer.
func (w *World) SetTracer(t *trace.Tracer) { w.cfg.Node.Tracer = t }

// counters is the export table of the per-node counts: the name a count is
// recorded under and the field behind it. The layers only increment the
// field; a run's registry reads each name as the sum over the nodes at
// snapshot time. The routing protocol's lines come from multicast.Counters.
var counters = []struct {
	name string
	read func(*node.Node) uint64
}{
	{"phy.frames_sent", func(n *node.Node) uint64 { return n.Radio.Stats.FramesSent }},
	{"phy.frames_delivered", func(n *node.Node) uint64 { return n.Radio.Stats.FramesDelivered }},
	{"phy.collisions", func(n *node.Node) uint64 { return n.Radio.Stats.Collisions }},
	{"phy.capture_wins", func(n *node.Node) uint64 { return n.Radio.Stats.CaptureWins }},
	{"phy.below_threshold", func(n *node.Node) uint64 { return n.Radio.Stats.BelowThreshold }},
	{"phy.half_duplex_loss", func(n *node.Node) uint64 { return n.Radio.Stats.HalfDuplexLoss }},
	{"phy.radio_down_drops", func(n *node.Node) uint64 { return n.Radio.Stats.RadioDownDrops }},
	{"phy.radio_moves", func(n *node.Node) uint64 { return n.Radio.Stats.RadioMoves }},
	{"mac.backoffs", func(n *node.Node) uint64 { return n.MAC.Stats.Backoffs }},
	{"mac.retries", func(n *node.Node) uint64 { return n.MAC.Stats.Retries }},
	{"mac.cts_timeouts", func(n *node.Node) uint64 { return n.MAC.Stats.CTSTimeouts }},
	{"mac.ack_timeouts", func(n *node.Node) uint64 { return n.MAC.Stats.AckTimeouts }},
	{"mac.retry_drops", func(n *node.Node) uint64 { return n.MAC.Stats.RetryDrops }},
	{"mac.enqueued", func(n *node.Node) uint64 { return n.MAC.Stats.Enqueued }},
	{"mac.queue_drops", func(n *node.Node) uint64 { return n.MAC.Stats.QueueDrops }},
	{"mac.broadcasts_sent", func(n *node.Node) uint64 { return n.MAC.Stats.BroadcastsSent }},
	{"mac.unicasts_sent", func(n *node.Node) uint64 { return n.MAC.Stats.UnicastsSent }},
	{"mac.bytes_sent", func(n *node.Node) uint64 { return n.MAC.Stats.BytesSent }},
	{"linkquality.probes_sent", func(n *node.Node) uint64 { return n.Prober.Stats.ProbesSent }},
	{"linkquality.probe_bytes_sent", func(n *node.Node) uint64 { return n.Prober.Stats.BytesSent }},
	{"linkquality.probes_received", func(n *node.Node) uint64 { return n.Table.Stats.ProbesReceived }},
	{"linkquality.ewma_updates", func(n *node.Node) uint64 { return n.Table.Stats.EWMAUpdates }},
}

// sum adds per(n) over the nodes added so far.
func sum[T int | uint64](w *World, per func(*node.Node) T) T {
	var total T
	for _, n := range w.nodes {
		total += per(n)
	}
	return total
}

// Instrument registers the run-level instruments on reg, once: every
// per-node count as the sum over the nodes at snapshot time (so they cost
// the hot path nothing beyond the field increment), the delivered data bytes
// as the collector's sum, the state-size gauges and the simulator's vitals.
// Call it before adding nodes: a node's MAC is handed the shared queue-depth
// histogram at creation.
func (w *World) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("stats.data_bytes_received", w.collector.DataBytes)
	w.queueDepth = reg.Histogram("mac.queue_depth", telemetry.DepthBuckets)
	proto := w.cfg.Node.Protocol
	if proto == "" {
		proto = multicast.Default
	}
	for _, c := range counters {
		reg.CounterFunc(c.name, func() uint64 { return sum(w, c.read) })
	}
	for _, c := range multicast.Counters(proto) {
		reg.CounterFunc(c.Name, func() uint64 {
			return sum(w, func(n *node.Node) uint64 { return c.Read(n.Router) })
		})
	}
	gauge := func(name string, per func(*node.Node) int) {
		reg.GaugeFunc(name, func() float64 { return float64(sum(w, per)) })
	}
	// Forwarder-set size (forwarding group / shared tree) summed over every
	// group with a member or a source.
	gauge(proto+".fg_size", func(nd *node.Node) int {
		n := 0
		for _, g := range w.groups {
			if nd.Router.IsForwarder(g.id) {
				n++
			}
		}
		return n
	})
	gauge(proto+".rounds", func(nd *node.Node) int { return nd.Router.RoundCount() })
	gauge(proto+".dup_windows", func(nd *node.Node) int { return nd.Router.DupWindowCount() })
	gauge("linkquality.table_entries", func(nd *node.Node) int { return nd.Table.Len() })
	// With this gauge a manifest alone reproduces the probe-overhead figure:
	// 100 * (probe_bytes_sent - warmup) / data_bytes_received.
	reg.GaugeFunc("linkquality.probe_bytes_warmup", func() float64 { return float64(w.warmupProbeBytes) })
	// The simulator's own vitals: events fired, how many of them the PHY
	// delivered without a trip through the event queue, and the queue's depth.
	reg.GaugeFunc("sim.events", func() float64 { n, _ := w.Engine.Events(); return float64(n) })
	reg.GaugeFunc("sim.events_in_place", func() float64 { _, n := w.Engine.Events(); return float64(n) })
	reg.GaugeFunc("sim.queue_depth", func() float64 { return float64(w.Engine.Pending()) })
}

// AddNode builds a node at pos, starts its probing and appends it to the
// world. A node added while the clock is running starts from there.
func (w *World) AddNode(id packet.NodeID, pos geom.Point) (*node.Node, error) {
	n, err := node.New(w.Engine, w.Medium, id, pos, w.cfg.Node)
	if err != nil {
		return nil, err
	}
	n.MAC.QueueDepth = w.queueDepth
	n.Router.SetOnDeliver(func(p *packet.Packet, _ packet.NodeID) {
		now := w.Engine.Now()
		delay := now - p.SentAt
		w.collector.RecordDelivered(id, p.Group, p.Src, p.PayloadBytes, delay)
		w.delays.Observe(delay)
		if w.OnDeliver != nil {
			w.OnDeliver(p, now)
		}
	})
	w.nodes = append(w.nodes, n)
	w.byID[id] = n
	n.Start()
	return n, nil
}

// Nodes returns the nodes in the order they were added. The slice is the
// world's own; callers must not modify it.
func (w *World) Nodes() []*node.Node { return w.nodes }

// Node returns the node with the given ID.
func (w *World) Node(id packet.NodeID) (*node.Node, error) {
	n, ok := w.byID[id]
	if !ok {
		return nil, fmt.Errorf("unknown node %v", id)
	}
	return n, nil
}

func (w *World) group(id packet.GroupID) *group {
	for _, g := range w.groups {
		if g.id == id {
			return g
		}
	}
	g := &group{id: id}
	w.groups = append(w.groups, g)
	return g
}

// Join makes node id a receiver of group. It may come before or after the
// group's sources are declared: a member expects every packet of every
// source of its group, under the collector's subscription rule.
func (w *World) Join(id packet.NodeID, groupID packet.GroupID) error {
	n, err := w.Node(id)
	if err != nil {
		return err
	}
	n.Router.JoinGroup(groupID)
	g := w.group(groupID)
	for _, m := range g.members {
		if m == id {
			return nil
		}
	}
	g.members = append(g.members, id)
	for _, s := range g.sources {
		w.collector.Subscribe(id, groupID, s)
	}
	return nil
}

// AddSource attaches a CBR flow from node id to group and starts it: the
// first packet leaves start after the call. It fails on a flow shape
// CheckCBR rejects.
func (w *World) AddSource(id packet.NodeID, groupID packet.GroupID, start time.Duration) (*traffic.CBR, error) {
	if err := CheckCBR(w.cfg.PayloadBytes, w.cfg.SendInterval); err != nil {
		return nil, err
	}
	n, err := w.Node(id)
	if err != nil {
		return nil, err
	}
	g := w.group(groupID)
	g.sources = append(g.sources, id)
	for _, m := range g.members {
		w.collector.Subscribe(m, groupID, id)
	}
	cbr := traffic.NewCBR(w.Engine, n.Router, traffic.CBRConfig{
		Group:        groupID,
		PayloadBytes: w.cfg.PayloadBytes,
		Interval:     w.cfg.SendInterval,
		Jitter:       w.cfg.SendInterval / 10,
		Start:        start,
	})
	cbr.OnSend = func(at time.Duration) {
		w.collector.RecordSent(groupID, id)
		if w.OnSend != nil {
			w.OnSend(groupID, at, w.collector.Receivers(groupID, id))
		}
	}
	cbr.Start()
	return cbr, nil
}

// MeasureFrom opens the probe-overhead window at virtual time t: probe
// bytes sent before t are warm-up and excluded from the reported overhead.
// Without it every probe byte counts.
func (w *World) MeasureFrom(t time.Duration) {
	w.Engine.At(t, func() { w.warmupProbeBytes = w.probeBytesSent() })
}

func (w *World) probeBytesSent() uint64 {
	return sum(w, func(n *node.Node) uint64 { return n.Prober.Stats.BytesSent })
}

// GroupSummary returns the delivery statistics of one group so far.
func (w *World) GroupSummary(group packet.GroupID) stats.Summary {
	return w.collector.GroupSummary(group)
}

// Harvest is everything a run reports about the shared stack.
type Harvest struct {
	Summary   stats.Summary
	PerMember []stats.MemberPDR
	Delay     stats.Percentiles
	// EdgeUse merges the per-node counts of data packets carried per
	// directed link.
	EdgeUse map[multicast.Edge]uint64
	// ProbeBytes covers the measurement window; ControlBytes, Collisions and
	// DataForwards are run totals over the nodes.
	ProbeBytes, ControlBytes, Collisions, DataForwards uint64
	// ForwarderState sums the nodes' live route soft state (rounds +
	// duplicate windows).
	ForwarderState int
	// Events is the number of simulation events processed.
	Events uint64
}

// Harvest collects the measurements of the run so far. It emits the
// phy-arrive records of the frames still on the air first, so that a span
// sink has seen every decode of the run.
func (w *World) Harvest() Harvest {
	w.Medium.FlushArrivals()
	w.collector.ProbeBytes = w.probeBytesSent() - w.warmupProbeBytes
	h := Harvest{
		Summary:    w.collector.Summarize(),
		PerMember:  w.collector.PerMemberPDR(),
		Delay:      w.delays.Percentiles(),
		EdgeUse:    make(map[multicast.Edge]uint64),
		ProbeBytes: w.collector.ProbeBytes,
		Events:     w.Engine.Processed,
	}
	for _, n := range w.nodes {
		counters := n.Router.Counters()
		h.ControlBytes += counters.ControlBytesSent
		h.Collisions += n.Radio.Stats.Collisions
		h.DataForwards += counters.DataForwarded
		h.ForwarderState += n.Router.RoundCount() + n.Router.DupWindowCount()
		for e, c := range n.Router.EdgeUse() {
			h.EdgeUse[e] += c
		}
	}
	return h
}
