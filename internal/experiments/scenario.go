// Package experiments builds and runs the paper's evaluation scenarios:
// the 50-node random-topology simulations behind Figure 2 and Table 1, the
// probing-rate variations, the multi-source runs of §4.3, and the ablations
// called out in DESIGN.md. Each table/figure has a runner that the root
// bench_test.go and cmd/experiments invoke.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/geom"
	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/multicast"
	"meshcast/internal/node"
	"meshcast/internal/odmrp"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/stats"
	"meshcast/internal/telemetry"
	"meshcast/internal/topology"
	"meshcast/internal/trace"
	"meshcast/internal/traffic"
	"meshcast/internal/world"
)

// GroupSpec declares one multicast group's sources and receiver members by
// node index.
type GroupSpec struct {
	Group   packet.GroupID
	Sources []int
	Members []int
}

// ScenarioConfig fully describes one simulation run.
type ScenarioConfig struct {
	// Seed drives all randomness (placement is part of Topology, so two
	// runs with the same Topology and Seed are identical).
	Seed uint64
	// Metric selects the routing metric (MinHop = original ODMRP).
	Metric metric.Kind
	// Protocol selects the multicast routing protocol by registered name
	// ("odmrp", "mcst"); empty means the default (ODMRP).
	Protocol string
	// Topology is the node placement.
	Topology *topology.Topology
	// Fading selects the fading model; nil means Rayleigh (the paper's).
	Fading propagation.Fading
	// Duration is the simulated time (paper: 400 s).
	Duration time.Duration
	// Groups declares the multicast groups.
	Groups []GroupSpec
	// PayloadBytes and SendInterval shape the CBR flows (512 B, 50 ms).
	PayloadBytes int
	SendInterval time.Duration
	// ProbeRateFactor scales the probing rate (1 = paper default, 5 = the
	// "high overhead" column, 0.1 = the low-rate variant).
	ProbeRateFactor float64
	// TrafficStart delays the CBR flows, giving probes a head start.
	TrafficStart time.Duration
	// ODMRP optionally overrides ODMRP protocol parameters; nil = defaults
	// for the metric. Setting it with a non-ODMRP Protocol is an error.
	ODMRP *odmrp.Params
	// WindowSize optionally overrides the probe loss-window length.
	WindowSize int
	// PairHistoryWeight optionally overrides PP's EWMA history weight
	// (history-length ablation); zero keeps the paper's 0.9.
	PairHistoryWeight float64
	// SpanSink, when non-nil, enables packet-journey span tracing: every
	// originated packet is stamped with a trace ID and phy/mac/routing
	// emit typed span records to this sink (see trace.Reconstruct). Span
	// tracing changes no protocol or RNG behavior, so results stay
	// byte-identical either way.
	SpanSink trace.SpanSink
	// Faults, when non-nil and non-empty, injects node churn, scripted
	// outages, link impairments, and partitions into the run (see
	// internal/faults). The fault schedule is drawn from the scenario Seed
	// only, so every metric evaluated on the same seed faces the same
	// failures.
	Faults *faults.Plan
	// Mobility, when non-nil, moves radios during the run under the given
	// mobility model (see internal/mobility). The motion is drawn from the
	// scenario Seed only, so every metric and protocol evaluated on the same
	// seed faces the same trajectories. An End of zero is resolved to the
	// scenario Duration.
	Mobility *mobility.Config
	// Telemetry, when non-nil, instruments the run with this recorder:
	// every layer's counters are exported through the recorder's registry,
	// the recorder streams snapshots to series.jsonl on its interval,
	// and RunScenario finalizes manifest.json before returning. A run with
	// telemetry attached is never served from the result cache (the
	// artifacts are a side effect the cache cannot reproduce).
	Telemetry *telemetry.Recorder
}

// DefaultScenario returns the paper's §4.1 setup for the given metric and
// seed: 50 nodes in 1000×1000 m, two groups of ten members with one source
// each, CBR 512 B @ 20 pkt/s, Rayleigh fading, and a 400 s traffic window.
// Probing gets a 100 s head start so that every metric routes on warmed-up
// estimates for the whole measurement window (the packet-pair EWMA needs on
// the order of ten 10 s intervals to converge).
func DefaultScenario(k metric.Kind, seed uint64) (ScenarioConfig, error) {
	return DefaultScenarioWith(k, seed, 1, 10)
}

// DefaultScenarioWith is DefaultScenario with configurable group shape
// (sources and members per group); §4.3's multi-source experiment uses
// sourcesPer > 1. The topology drawn for a seed is identical regardless of
// the group shape.
func DefaultScenarioWith(k metric.Kind, seed uint64, sourcesPer, membersPer int) (ScenarioConfig, error) {
	return ShapedScenario(k, seed, Shape{Nodes: 50, SideM: 1000, Groups: 2, SourcesPer: sourcesPer, MembersPer: membersPer})
}

// Shape sizes a seeded random scenario: Nodes placed uniformly in a SideM ×
// SideM metre square, and Groups groups of SourcesPer sources and
// MembersPer members each.
type Shape struct {
	Nodes                          int
	SideM                          float64
	Groups, SourcesPer, MembersPer int
}

// ShapedScenario is DefaultScenario on any shape: the placement is redrawn
// until the 250 m disc graph is connected, DefaultGroups draws the groups
// from the same seeded stream, and traffic and timing are the paper's. A
// shape with Groups == 0 draws no groups, for a caller that declares its
// own; Validate rejects the config until it does. A shape the draw cannot
// hold is a *world.FieldError naming Topology or Groups.
func ShapedScenario(k metric.Kind, seed uint64, s Shape) (ScenarioConfig, error) {
	topoRNG := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	topo, err := topology.RandomConnected(topoRNG, s.Nodes, geom.Square(s.SideM), 250, 500)
	if err != nil {
		return ScenarioConfig{}, &world.FieldError{Field: "Topology", Reason: "cannot be drawn: " + err.Error()}
	}
	var groups []GroupSpec
	if s.Groups != 0 {
		groups, err = DefaultGroups(topoRNG.Split(), topo.NodeCount(), s.Groups, s.SourcesPer, s.MembersPer)
		if err != nil {
			return ScenarioConfig{}, &world.FieldError{Field: "Groups", Reason: "cannot be drawn: " + err.Error()}
		}
	}
	return ScenarioConfig{
		Seed:            seed,
		Metric:          k,
		Topology:        topo,
		Duration:        500 * time.Second,
		Groups:          groups,
		PayloadBytes:    512,
		SendInterval:    50 * time.Millisecond,
		ProbeRateFactor: 1,
		TrafficStart:    100 * time.Second,
	}, nil
}

// DefaultGroups picks sources and members for nGroups groups uniformly at
// random without overlap inside a group (a source is not its own member). It
// fails on a shape with no group, no source or no member, or whose groups
// need more nodes than there are.
func DefaultGroups(rng *sim.RNG, nodeCount, nGroups, sourcesPer, membersPer int) ([]GroupSpec, error) {
	switch {
	case nGroups < 1 || sourcesPer < 1 || membersPer < 1:
		return nil, fmt.Errorf("need at least one group, one source and one member per group, got %d groups of %d sources and %d members",
			nGroups, sourcesPer, membersPer)
	case sourcesPer+membersPer > nodeCount:
		return nil, fmt.Errorf("%d sources + %d members per group do not fit in %d nodes", sourcesPer, membersPer, nodeCount)
	}
	groups := make([]GroupSpec, 0, nGroups)
	for g := 0; g < nGroups; g++ {
		perm := rng.Perm(nodeCount)
		spec := GroupSpec{Group: packet.GroupID(g + 1)}
		spec.Sources = append(spec.Sources, perm[:sourcesPer]...)
		spec.Members = append(spec.Members, perm[sourcesPer:sourcesPer+membersPer]...)
		groups = append(groups, spec)
	}
	return groups, nil
}

// RunResult aggregates a run's outcome.
type RunResult struct {
	Summary   stats.Summary
	PerMember []stats.MemberPDR
	// ControlBytes is the protocol control traffic (queries/announces +
	// replies/joins).
	ControlBytes uint64
	// ProbeBytes is the probing traffic.
	ProbeBytes uint64
	// MACCollisions totals PHY collisions across radios.
	MACCollisions uint64
	// DataForwards totals forwarder rebroadcasts.
	DataForwards uint64
	// ForwarderState sums the nodes' live route soft state at the end of
	// the run (query/announce rounds + duplicate windows), the mesh-vs-tree
	// state-size comparison axis.
	ForwarderState int
	// EdgeUse merges per-node data-edge usage (Figure 5 tree analysis).
	EdgeUse map[multicast.Edge]uint64
	// Delay summarizes the end-to-end delay distribution (p50/p90/p99/max).
	Delay stats.Percentiles
	// Events is the number of simulation events processed (performance
	// reporting).
	Events uint64
	// Health holds per-group self-healing metrics (repair latency, PDR
	// during outages, availability); nil unless the scenario injects faults.
	Health []stats.GroupHealth
	// Faulted reports how many distinct outage episodes the run injected.
	Faulted int
	// Mobility holds motion-robustness metrics; nil unless the scenario
	// moves radios.
	Mobility *MobilityResult
}

// MobilityResult aggregates a mobile run's robustness measurements: the
// motion read-out per group plus the mover's own counters.
type MobilityResult struct {
	// Groups holds per-group motion PDR, repair latency, and reconvergence
	// summaries, sorted by group ID.
	Groups []stats.GroupMobility
	// Moves counts applied position changes; LinkBreaks and LinkForms count
	// link-range neighbor-graph edges lost and gained across mover ticks.
	Moves, LinkBreaks, LinkForms uint64
	// BreakRatePerSec is LinkBreaks over the motion-window span.
	BreakRatePerSec float64
	// Model and MaxSpeedMps echo the effective mobility configuration.
	Model       string
	MaxSpeedMps float64
}

// faultTarget couples a node's crash lifecycle with its application flows:
// a crashed source must stop generating packets (they would inflate the PDR
// denominator with sends that never reached the air) and must re-register
// itself as a multicast source when it comes back.
type faultTarget struct {
	node  *node.Node
	flows []*traffic.CBR
}

func (t *faultTarget) Fail() {
	t.node.Fail()
	for _, f := range t.flows {
		f.Pause()
	}
}

func (t *faultTarget) Restore() {
	t.node.Restore()
	for _, f := range t.flows {
		f.Resume()
	}
}

// ProbeConfig returns the probing of metric k at factor times the paper's
// rate; a factor of 1 or not above 0 keeps the paper's. It rejects a factor
// that is not finite, and one that scales the probe interval below the PHY
// preamble: no frame is shorter on the air, so the channel could not carry
// the rate, and a prober re-arming every few nanoseconds (or, rounded to
// zero, at the same instant) would keep a run from ever finishing. Its
// errors are *world.FieldError naming ProbeRateFactor.
func ProbeConfig(k metric.Kind, factor float64) (linkquality.Config, error) {
	c := linkquality.ConfigFor(k)
	if math.IsNaN(factor) || math.IsInf(factor, 0) {
		return c, &world.FieldError{Field: "ProbeRateFactor", Reason: fmt.Sprintf("must be finite, got %v", factor)}
	}
	if factor <= 0 || factor == 1 || c.Mode == linkquality.ModeNone {
		return c, nil
	}
	scaled := c.ScaleRate(factor)
	if floor := phy.DefaultParams().PreambleDelay; scaled.Interval < floor {
		return c, &world.FieldError{Field: "ProbeRateFactor", Reason: fmt.Sprintf("%v scales the %v probe interval to %v, under the %v PHY preamble of the shortest frame",
			factor, c.Interval, scaled.Interval, floor)}
	}
	return scaled, nil
}

// Validate is the one set of rules a scenario's input keeps, whichever
// front end built it: a topology of at least one node; a metric and a
// protocol that resolve; 0 ≤ TrafficStart ≤ Duration; a finite positive
// ProbeRateFactor that ProbeConfig accepts; at least one group, each with
// an ID not zero and used once, and at least one source and one member,
// all node indices in range and none repeated within the sources or within
// the members (a source may also be a member); and the CBR shape
// world.CheckCBR accepts. Every error is a *world.FieldError naming the
// field at fault.
func (cfg ScenarioConfig) Validate() error {
	bad := func(field, format string, args ...any) error {
		return &world.FieldError{Field: field, Reason: fmt.Sprintf(format, args...)}
	}
	if cfg.Topology == nil || cfg.Topology.NodeCount() == 0 {
		return bad("Topology", "must hold at least one node")
	}
	nodes := cfg.Topology.NodeCount()
	if nodes > topology.MaxNodes {
		return bad("Topology", "holds %d nodes, more than the %d node IDs", nodes, topology.MaxNodes)
	}
	if !slices.Contains(metric.All(), cfg.Metric) {
		return bad("Metric", "%d is not a known metric", int(cfg.Metric))
	}
	if _, err := multicast.Resolve(cfg.Protocol); err != nil {
		return bad("Protocol", "%q is not one of %s", cfg.Protocol, strings.Join(multicast.Names(), ", "))
	}
	if cfg.TrafficStart < 0 {
		return bad("TrafficStart", "must not be negative, got %v", cfg.TrafficStart)
	}
	if cfg.Duration < cfg.TrafficStart {
		return bad("Duration", "must be at least TrafficStart %v, got %v", cfg.TrafficStart, cfg.Duration)
	}
	// Negated so that NaN fails too.
	if !(cfg.ProbeRateFactor > 0) {
		return bad("ProbeRateFactor", "must be positive, got %v", cfg.ProbeRateFactor)
	}
	if _, err := ProbeConfig(cfg.Metric, cfg.ProbeRateFactor); err != nil {
		return err
	}
	if len(cfg.Groups) == 0 {
		return bad("Groups", "must declare at least one group")
	}
	seen := make(map[packet.GroupID]bool)
	indices := func(g GroupSpec, role string, idx []int) error {
		if len(idx) == 0 {
			return bad("Groups", "group %d has no %s", g.Group, role)
		}
		once := make(map[int]bool)
		for _, i := range idx {
			if i < 0 || i >= nodes {
				return bad("Groups", "%s %d of group %d is outside [0,%d)", role, i, g.Group, nodes)
			}
			if once[i] {
				return bad("Groups", "group %d lists %s %d twice", g.Group, role, i)
			}
			once[i] = true
		}
		return nil
	}
	for _, g := range cfg.Groups {
		if g.Group == 0 || seen[g.Group] {
			return bad("Groups", "group ID %d is 0 or used twice", g.Group)
		}
		seen[g.Group] = true
		if err := indices(g, "source", g.Sources); err != nil {
			return err
		}
		if err := indices(g, "member", g.Members); err != nil {
			return err
		}
	}
	return world.CheckCBR(cfg.PayloadBytes, cfg.SendInterval)
}

// NameInput prefixes err with names[Field] when err is a *world.FieldError the
// map names, so a front end's error names the flag or key the user set.
func NameInput(err error, names map[string]string) error {
	var fe *world.FieldError
	if errors.As(err, &fe) && names[fe.Field] != "" {
		return fmt.Errorf("%s: %w", names[fe.Field], err)
	}
	return err
}

// RunScenario executes one simulation and returns its measurements. The
// stack is wired and counted by internal/world; what is added here is the
// scenario's own: span tracing, fault injection, mobility, a disruption
// tracker for each and the telemetry manifest.
func RunScenario(cfg ScenarioConfig) (*RunResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	// Validate has resolved the protocol and accepted the probe rate.
	proto, _ := multicast.Resolve(cfg.Protocol)

	nodeCfg := node.DefaultConfig(cfg.Metric)
	nodeCfg.Probe, _ = ProbeConfig(cfg.Metric, cfg.ProbeRateFactor)
	nodeCfg.Protocol = proto
	if cfg.ODMRP != nil {
		nodeCfg.Tuning = cfg.ODMRP
	}
	if cfg.WindowSize > 0 {
		nodeCfg.WindowSize = cfg.WindowSize
	}
	nodeCfg.DataPacketBytes = cfg.PayloadBytes
	w := world.New(world.Config{
		Seed:         cfg.Seed,
		Fading:       cfg.Fading,
		Node:         nodeCfg,
		PayloadBytes: cfg.PayloadBytes,
		SendInterval: cfg.SendInterval,
	})
	engine, medium := w.Engine, w.Medium
	if cfg.SpanSink != nil {
		w.SetTracer(trace.New(cfg.SpanSink, engine.Now))
	}
	var reg *telemetry.Registry
	if cfg.Telemetry != nil {
		reg = cfg.Telemetry.Registry()
		w.Instrument(reg)
	}

	for i, pos := range cfg.Topology.Positions {
		n, err := w.AddNode(packet.NodeID(i), pos)
		if err != nil {
			return nil, fmt.Errorf("build node %d: %w", i, err)
		}
		if cfg.PairHistoryWeight > 0 {
			n.Table.PairHistoryWeight = cfg.PairHistoryWeight
		}
	}

	flowsByNode := make(map[int][]*traffic.CBR)
	for _, spec := range cfg.Groups {
		for _, m := range spec.Members {
			if err := w.Join(packet.NodeID(m), spec.Group); err != nil {
				return nil, fmt.Errorf("experiments: group %v member: %w", spec.Group, err)
			}
		}
		for _, s := range spec.Sources {
			cbr, err := w.AddSource(packet.NodeID(s), spec.Group, cfg.TrafficStart)
			if err != nil {
				return nil, fmt.Errorf("experiments: group %v source: %w", spec.Group, err)
			}
			flowsByNode[s] = append(flowsByNode[s], cbr)
		}
	}
	nodes := w.Nodes()

	// One disruption tracker per axis, fed the same sends and deliveries.
	var health, motion *stats.DisruptionTracker // set below iff faults are injected / radios move
	var trackers []*stats.DisruptionTracker
	var sched *faults.Scheduler
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		targets := make([]faults.Target, len(nodes))
		for i, n := range nodes {
			targets[i] = &faultTarget{node: n, flows: flowsByNode[i]}
		}
		// The fault RNG is derived from the seed alone (not the engine's
		// stream) so the injected failures are identical for every metric
		// evaluated on the same seed — the comparison the churn experiment
		// needs.
		var err error
		sched, err = faults.NewScheduler(engine, sim.NewRNG(cfg.Seed^0xfa0175eed), *cfg.Faults, targets, cfg.Duration)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault plan: %w", err)
		}
		medium.SetImpairment(sched.Impairment)
		health = stats.NewDisruptionTracker(sched.Onsets(), sched.Windows())
		trackers = append(trackers, health)
		sched.Start()
		if reg != nil {
			s := sched
			reg.GaugeFunc("faults.active", func() float64 {
				return float64(s.ActiveFaults(engine.Now()))
			})
		}
	}

	var mover *mobility.Mover
	if cfg.Mobility != nil {
		mcfg := *cfg.Mobility
		if mcfg.End == 0 {
			mcfg.End = cfg.Duration
		}
		radios := make([]*phy.Radio, len(nodes))
		for i, n := range nodes {
			radios[i] = n.Radio
		}
		// The mobility RNG is derived from the seed alone, like the fault
		// RNG: trajectories are identical for every metric and protocol
		// evaluated on the same seed — the comparison the speed sweep needs.
		var merr error
		mover, merr = mobility.NewMover(engine, medium, radios, cfg.Topology.Area, sim.NewRNG(cfg.Seed^0x6d6f62696c697479), mcfg)
		if merr != nil {
			return nil, fmt.Errorf("experiments: %w", merr)
		}
		motion = stats.NewDisruptionTracker(nil, []stats.Window{{Start: mcfg.Start, End: mcfg.End}})
		trackers = append(trackers, motion)
		mover.OnLinkEvent = func(breaks, _ int, now time.Duration) {
			if breaks > 0 {
				motion.Onset(now)
			}
		}
		reg.CounterFunc("mobility.moves", func() uint64 { return mover.Moves })
		reg.CounterFunc("mobility.link_breaks", func() uint64 { return mover.Breaks })
		reg.CounterFunc("mobility.link_forms", func() uint64 { return mover.Forms })
		mover.Start()
	}

	// The trackers account delivery opportunities: one per (packet,
	// receiving member), matching the collector's PDR denominator.
	if len(trackers) > 0 {
		w.OnDeliver = func(p *packet.Packet, at time.Duration) {
			for _, t := range trackers {
				t.RecordDelivered(p.Group, at)
			}
		}
		w.OnSend = func(group packet.GroupID, at time.Duration, receivers int) {
			for _, t := range trackers {
				t.RecordSent(group, at, receivers)
			}
		}
	}

	// The reported probing overhead covers the measurement window, not the
	// warmup.
	if cfg.TrafficStart > 0 {
		w.MeasureFrom(cfg.TrafficStart)
	}

	if cfg.Telemetry != nil {
		cfg.Telemetry.Attach(engine, cfg.Duration)
	}

	engine.Run(cfg.Duration)

	h := w.Harvest()
	res := &RunResult{
		Summary:        h.Summary,
		PerMember:      h.PerMember,
		ControlBytes:   h.ControlBytes,
		ProbeBytes:     h.ProbeBytes,
		MACCollisions:  h.Collisions,
		DataForwards:   h.DataForwards,
		ForwarderState: h.ForwarderState,
		EdgeUse:        h.EdgeUse,
		Delay:          h.Delay,
		Events:         h.Events,
	}
	if health != nil {
		res.Health = health.Health()
		res.Faulted = sched.DownCount()
	}
	if mover != nil {
		mcfg := mover.Config()
		res.Mobility = &MobilityResult{
			Groups:      motion.Mobility(),
			Moves:       mover.Moves,
			LinkBreaks:  mover.Breaks,
			LinkForms:   mover.Forms,
			Model:       mcfg.Model,
			MaxSpeedMps: mcfg.MaxSpeedMps,
		}
		if span := (mcfg.End - mcfg.Start).Seconds(); span > 0 {
			res.Mobility.BreakRatePerSec = float64(mover.Breaks) / span
		}
	}
	if cfg.Telemetry != nil {
		// Hash the config as the cache would see it without sinks attached,
		// so a manifest's ConfigHash matches the runner cache key of the same
		// scenario run uninstrumented.
		hashCfg := cfg
		hashCfg.Telemetry = nil
		hashCfg.SpanSink = nil
		hash, _ := ScenarioKey(hashCfg)
		if err := cfg.Telemetry.Finalize(telemetry.Manifest{
			ConfigHash:      hash,
			Seed:            cfg.Seed,
			Label:           fmt.Sprintf("%s seed %d", cfg.Metric, cfg.Seed),
			Metric:          cfg.Metric.String(),
			Protocol:        proto,
			DurationSeconds: cfg.Duration.Seconds(),
			Derived: map[string]float64{
				"pdr":                res.Summary.PDR,
				"probe_overhead_pct": res.Summary.ProbeOverheadPct,
				"mean_delay_seconds": res.Summary.MeanDelaySeconds,
				"fairness":           res.Summary.Fairness,
			},
		}); err != nil {
			return nil, fmt.Errorf("experiments: finalize telemetry: %w", err)
		}
	}
	return res, nil
}
