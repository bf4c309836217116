// Package meshcast is a wireless mesh network simulator and a complete
// implementation of the ODMRP multicast protocol equipped with the
// high-throughput routing metrics of Roy, Koutsonikolas, Das and Hu,
// "High-Throughput Multicast Routing Metrics in Wireless Mesh Networks"
// (ICDCS 2006): ETX, ETT, PP, METX and SPP, adapted for link-layer
// broadcast.
//
// The package offers three levels of use:
//
//   - Metric algebra: NewMetric / PathCost evaluate and compare multicast
//     path costs for any of the six metrics on static link data.
//   - Simulation: Simulation builds an 802.11 mesh (two-ray propagation,
//     Rayleigh fading, DCF MAC) running ODMRP with a chosen metric, CBR
//     multicast traffic, and full measurement collection.
//   - Paper experiments: RunTestbed reproduces the paper's 8-node indoor
//     testbed; the cmd/experiments tool regenerates every table and figure.
//
// All randomness derives from a single seed: runs are exactly reproducible.
package meshcast

import (
	"fmt"
	"time"

	"meshcast/internal/analysis"
	"meshcast/internal/experiments"
	"meshcast/internal/faults"
	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/node"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/runner"
	"meshcast/internal/sim"
	"meshcast/internal/stats"
	"meshcast/internal/telemetry"
	"meshcast/internal/testbed"
	"meshcast/internal/topology"
	"meshcast/internal/viz"
	"meshcast/internal/world"
)

// Metric identifies a multicast routing metric.
type Metric = metric.Kind

// The available metrics. MinHop reproduces the original ODMRP; the other
// five are the paper's high-throughput adaptations.
const (
	MinHop = metric.MinHop
	ETX    = metric.ETX
	ETT    = metric.ETT
	PP     = metric.PP
	METX   = metric.METX
	SPP    = metric.SPP
)

// Metrics returns all metrics in presentation order.
func Metrics() []Metric { return metric.All() }

// LinkQualityMetrics returns the five probing metrics (everything except
// MinHop).
func LinkQualityMetrics() []Metric { return metric.LinkQuality() }

// ParseMetric converts a name ("spp", "etx", ...) to a Metric.
func ParseMetric(s string) (Metric, error) { return metric.ParseKind(s) }

// LinkEstimate carries per-link measurements for static path evaluation.
type LinkEstimate = metric.LinkEstimate

// PathCost folds per-link estimates through a metric's cost algebra,
// source first, and returns the resulting path cost. Use BetterPath to
// compare two costs under the same metric (SPP is maximized, the others
// minimized).
func PathCost(m Metric, links []LinkEstimate) (float64, error) {
	pm, err := metric.New(m)
	if err != nil {
		return 0, err
	}
	return metric.PathCostFromEstimates(pm, links), nil
}

// BetterPath reports whether path cost a beats b under metric m.
func BetterPath(m Metric, a, b float64) (bool, error) {
	pm, err := metric.New(m)
	if err != nil {
		return false, err
	}
	return pm.Better(a, b), nil
}

// NodeID identifies a node in a simulation.
type NodeID = packet.NodeID

// GroupID identifies a multicast group.
type GroupID = packet.GroupID

// Summary aggregates a run's delivery statistics.
type Summary = stats.Summary

// MemberPDR is one receiver's per-flow delivery ratio.
type MemberPDR = stats.MemberPDR

// Percentiles summarizes an end-to-end delay distribution.
type Percentiles = stats.Percentiles

// Edge is a directed data-plane link (for tree analysis).
type Edge = multicast.Edge

// TelemetrySnapshot is an instantaneous view of every telemetry
// instrument: cumulative counters, current gauges and histogram state,
// keyed by dotted layer-first names such as "mac.retries".
type TelemetrySnapshot = telemetry.Snapshot

// SimulationConfig configures a Simulation.
type SimulationConfig struct {
	// Seed drives all randomness; identical seeds give identical runs.
	Seed uint64
	// Metric selects the routing metric (default SPP).
	Metric Metric
	// Protocol selects the multicast routing protocol by registered name
	// ("odmrp", "mcst"); empty means ODMRP.
	Protocol string
	// DisableFading switches off Rayleigh fading (links become on/off by
	// distance). The paper's simulations keep fading on.
	DisableFading bool
	// PayloadBytes is the CBR payload size (default 512); AddSource
	// rejects one outside 1–2 304 bytes, 802.11's largest MSDU.
	PayloadBytes int
	// SendInterval is the CBR inter-packet gap (default 50 ms); AddSource
	// rejects one shorter than the 192 µs PHY preamble.
	SendInterval time.Duration
}

// Simulation is a programmable mesh-network simulation: place nodes, join
// groups, attach sources, run, inspect. Nodes, members and sources may be
// added at any point, also between Run calls; each starts when it is added.
type Simulation struct {
	world        *world.World
	payloadBytes int
	telem        *telemetry.Registry
}

// NewSimulation creates an empty simulation.
func NewSimulation(cfg SimulationConfig) *Simulation {
	if cfg.Metric == 0 {
		cfg.Metric = SPP
	}
	if cfg.PayloadBytes == 0 {
		cfg.PayloadBytes = 512
	}
	if cfg.SendInterval == 0 {
		cfg.SendInterval = 50 * time.Millisecond
	}
	var fading propagation.Fading = propagation.Rayleigh{}
	if cfg.DisableFading {
		fading = propagation.NoFading{}
	}
	nodeCfg := node.DefaultConfig(cfg.Metric)
	nodeCfg.Protocol = cfg.Protocol
	nodeCfg.DataPacketBytes = cfg.PayloadBytes
	return &Simulation{
		world: world.New(world.Config{
			Seed:         cfg.Seed,
			Fading:       fading,
			Node:         nodeCfg,
			PayloadBytes: cfg.PayloadBytes,
			SendInterval: cfg.SendInterval,
		}),
		payloadBytes: cfg.PayloadBytes,
	}
}

// AddNode places a mesh router at (x, y) metres and returns its ID.
func (s *Simulation) AddNode(x, y float64) (NodeID, error) {
	id := NodeID(s.NodeCount())
	if _, err := s.world.AddNode(id, geom.Point{X: x, Y: y}); err != nil {
		return 0, err
	}
	return id, nil
}

// EnableTelemetry attaches a cross-layer metrics registry to the
// simulation. Call it before adding nodes: a node's MAC is handed the
// queue-depth histogram at creation, so nodes added earlier stay out of
// mac.queue_depth (their counters are read all the same). Safe to call more
// than once.
func (s *Simulation) EnableTelemetry() {
	if s.telem != nil {
		return
	}
	s.telem = telemetry.NewRegistry()
	s.world.Instrument(s.telem)
}

// Telemetry returns a snapshot of every registered instrument. ok is false
// when EnableTelemetry was never called.
func (s *Simulation) Telemetry() (snap TelemetrySnapshot, ok bool) {
	if s.telem == nil {
		return TelemetrySnapshot{}, false
	}
	return s.telem.Snapshot(), true
}

// AddRandomNodes places n nodes uniformly in a side × side square, redrawing
// until the 250 m disc graph is connected. It returns the IDs.
func (s *Simulation) AddRandomNodes(n int, side float64) ([]NodeID, error) {
	topo, err := topology.RandomConnected(s.world.Engine.RNG().Split(), n, geom.Square(side), 250, 500)
	if err != nil {
		return nil, err
	}
	ids := make([]NodeID, 0, n)
	for _, p := range topo.Positions {
		id, err := s.AddNode(p.X, p.Y)
		if err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// NodeCount returns the number of placed nodes.
func (s *Simulation) NodeCount() int { return len(s.world.Nodes()) }

// Join subscribes a node to a multicast group as a receiver of every source
// of the group, declared before or after. A node that is also a source of
// the group is not its own receiver.
func (s *Simulation) Join(id NodeID, group GroupID) error {
	if err := s.world.Join(id, group); err != nil {
		return fmt.Errorf("meshcast: %w", err)
	}
	return nil
}

// AddSource attaches a CBR multicast flow from node id to group. The first
// packet leaves start after the call: before the first Run that is an
// offset into the run, later it counts from the current virtual time.
func (s *Simulation) AddSource(id NodeID, group GroupID, start time.Duration) error {
	if _, err := s.world.AddSource(id, group, start); err != nil {
		return fmt.Errorf("meshcast: %w", err)
	}
	return nil
}

// Run advances the simulation to the given absolute virtual time. It may be
// called repeatedly with increasing times.
func (s *Simulation) Run(until time.Duration) { s.world.Engine.Run(until) }

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.world.Engine.Now() }

// Summary returns aggregated delivery statistics for the run so far.
func (s *Simulation) Summary() Summary { return s.world.Harvest().Summary }

// PerMember returns each member's per-flow delivery ratio.
func (s *Simulation) PerMember() []MemberPDR { return s.world.Harvest().PerMember }

// GroupSummary returns delivery statistics restricted to one group.
func (s *Simulation) GroupSummary(group GroupID) Summary { return s.world.GroupSummary(group) }

// DelayPercentiles summarizes the end-to-end delay distribution of every
// delivery so far.
func (s *Simulation) DelayPercentiles() Percentiles { return s.world.Harvest().Delay }

// IsForwarder reports whether a node currently relays data for a group
// (forwarding-group flag for ODMRP, on-tree flag for MCST).
func (s *Simulation) IsForwarder(id NodeID, group GroupID) bool {
	n, err := s.world.Node(id)
	if err != nil {
		return false
	}
	return n.Router.IsForwarder(group)
}

// EdgeUse merges the per-node counters of data packets carried per directed
// link — the multicast tree, weighted by use.
func (s *Simulation) EdgeUse() map[Edge]uint64 { return s.world.Harvest().EdgeUse }

// OptimalSPP returns, for every node, the best achievable end-to-end
// delivery probability from source over the simulation's analytic link
// graph (closed-form Rayleigh reception probabilities, no interference) —
// the ceiling routing can reach per transmission chain. Compare against
// PerMember PDRs to grade routing efficiency.
func (s *Simulation) OptimalSPP(source NodeID) ([]float64, error) {
	nodes := s.world.Nodes()
	if int(source) >= len(nodes) {
		return nil, fmt.Errorf("meshcast: unknown node %v", source)
	}
	positions := make([]geom.Point, len(nodes))
	for i, n := range nodes {
		positions[i] = n.Radio.Pos
	}
	g := analysis.FromPositions(positions, s.world.Medium, s.payloadBytes, 0.001)
	return analysis.OptimalSPP(g, int(source))
}

// TestbedConfig configures a run of the paper's 8-node testbed emulation.
type TestbedConfig = testbed.Config

// TestbedResult is the outcome of a testbed run.
type TestbedResult = testbed.Result

// DefaultTestbedConfig mirrors the paper's §5 experiments (400 s runs).
func DefaultTestbedConfig(m Metric, seed uint64) TestbedConfig {
	return testbed.DefaultConfig(m, seed)
}

// RunTestbed executes the paper's testbed scenario: source 2 → members
// {3, 5} and source 4 → members {1, 7} over the Figure 4 topology with
// time-varying lossy links.
func RunTestbed(cfg TestbedConfig) (*TestbedResult, error) {
	return testbed.Run(cfg)
}

// TestbedHeavyEdges extracts the data-plane tree of a testbed run: directed
// edges carrying at least minShare of a source's packets (Figure 5).
func TestbedHeavyEdges(res *TestbedResult, minShare float64) []testbed.TreeEdge {
	return testbed.HeavyEdges(res, minShare)
}

// TestbedMap renders the paper's Figure 4 floor plan as an ASCII map of the
// given character width, with lossy links dashed.
func TestbedMap(width int) string {
	sc := testbed.PaperScenario()
	nodes := make([]viz.Node, 0, len(sc.Nodes))
	for _, id := range sc.Nodes {
		nodes = append(nodes, viz.Node{Label: id.String(), Pos: sc.Positions[id]})
	}
	edges := make([]viz.Edge, 0, len(sc.Links))
	for _, l := range sc.Links {
		style := viz.Solid
		if l.Class == testbed.Lossy {
			style = viz.Dashed
		}
		edges = append(edges, viz.Edge{From: l.A.String(), To: l.B.String(), Style: style})
	}
	return viz.Map(nodes, edges, width)
}

// TestbedTreeMap renders a testbed run's heavily used data edges over the
// Figure 4 floor plan (the paper's Figure 5), lossy edges dashed.
func TestbedTreeMap(res *TestbedResult, minShare float64, width int) string {
	sc := testbed.PaperScenario()
	nodes := make([]viz.Node, 0, len(sc.Nodes))
	for _, id := range sc.Nodes {
		nodes = append(nodes, viz.Node{Label: id.String(), Pos: sc.Positions[id]})
	}
	heavy := testbed.HeavyEdges(res, minShare)
	edges := make([]viz.Edge, 0, len(heavy))
	for _, e := range heavy {
		style := viz.Solid
		if e.Class == testbed.Lossy {
			style = viz.Dashed
		}
		edges = append(edges, viz.Edge{From: e.Edge.From.String(), To: e.Edge.To.String(), Style: style})
	}
	return viz.Map(nodes, edges, width)
}

// PaperScenario returns the paper's §4.1 simulation setup (50 nodes,
// 1000×1000 m, two groups) for direct use with RunPaperScenario; seed
// selects the random topology.
func PaperScenario(m Metric, seed uint64) (experiments.ScenarioConfig, error) {
	return experiments.DefaultScenario(m, seed)
}

// RunPaperScenario executes a paper-scale scenario configuration.
func RunPaperScenario(cfg experiments.ScenarioConfig) (*experiments.RunResult, error) {
	return experiments.RunScenario(cfg)
}

// GroupSpec declares one multicast group of a scenario configuration: its
// sources and receiver members, by node index.
type GroupSpec = experiments.GroupSpec

// RandomScenario returns a scenario over a connected random mesh: n nodes
// placed uniformly in a side × side metre square (250 m radio range,
// redrawn until connected), with the paper's traffic defaults (CBR 512 B @
// 20 pkt/s, Rayleigh fading, 100 s probe warmup, 400 s of traffic). Declare
// groups via cfg.Groups before running; the topology drawn for a seed does
// not depend on the group shape.
func RandomScenario(m Metric, seed uint64, n int, side float64) (experiments.ScenarioConfig, error) {
	topoRNG := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	topo, err := topology.RandomConnected(topoRNG, n, geom.Square(side), 250, 500)
	if err != nil {
		return experiments.ScenarioConfig{}, fmt.Errorf("random scenario: %w", err)
	}
	return experiments.ScenarioConfig{
		Seed:            seed,
		Metric:          m,
		Topology:        topo,
		Duration:        500 * time.Second,
		PayloadBytes:    512,
		SendInterval:    50 * time.Millisecond,
		ProbeRateFactor: 1,
		TrafficStart:    100 * time.Second,
	}, nil
}

// OptimalSPPCeiling computes, for every node of a scenario configuration,
// the best achievable end-to-end delivery probability from source on the
// scenario's analytic link graph (closed-form reception probabilities, no
// interference) — the ceiling routing can reach per transmission chain.
// Compare against a run's PerMember PDRs to grade routing efficiency.
func OptimalSPPCeiling(cfg experiments.ScenarioConfig, source NodeID) ([]float64, error) {
	if cfg.Topology == nil || int(source) >= len(cfg.Topology.Positions) {
		return nil, fmt.Errorf("meshcast: unknown node %v", source)
	}
	payload := cfg.PayloadBytes
	if payload == 0 {
		payload = 512
	}
	fading := cfg.Fading
	if fading == nil {
		fading = propagation.Rayleigh{}
	}
	engine := sim.NewEngine(cfg.Seed)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), fading, phy.DefaultParams())
	g := analysis.FromPositions(cfg.Topology.Positions, medium, payload, 0.001)
	return analysis.OptimalSPP(g, int(source))
}

// ScenarioJob is one labeled scenario run for RunScenarioBatch.
type ScenarioJob = experiments.ScenarioJob

// ScenarioResult is one batch job's outcome, in submission order: the
// job's label, its RunResult (or error), and whether it was served from
// the result cache.
type ScenarioResult = experiments.ScenarioResult

// BatchOptions configures batch execution: worker-pool size (0 =
// GOMAXPROCS), an optional content-addressed result cache directory, and an
// optional per-job progress callback.
type BatchOptions = experiments.BatchOptions

// BatchProgress is one progress notification from a running batch.
type BatchProgress = runner.Progress

// RunScenarioBatch executes a metric × seed matrix of scenario runs on a
// worker pool. Results return in submission order regardless of completion
// order, so any aggregation over them is deterministic; with
// BatchOptions.CacheDir set, repeated runs are served from the cache.
func RunScenarioBatch(jobs []ScenarioJob, opts BatchOptions) ([]ScenarioResult, error) {
	return experiments.RunScenarioBatch(jobs, opts)
}

// TestbedJob is one labeled testbed emulation for RunTestbedBatch.
type TestbedJob = experiments.TestbedJob

// TestbedBatchResult is one testbed batch job's outcome.
type TestbedBatchResult = experiments.TestbedResult

// RunTestbedBatch executes testbed runs on a worker pool with the same
// ordering and caching guarantees as RunScenarioBatch.
func RunTestbedBatch(jobs []TestbedJob, opts BatchOptions) ([]TestbedBatchResult, error) {
	return experiments.RunTestbedBatch(jobs, opts)
}

// FaultPlan describes fault injection for a scenario: MTBF/MTTR node churn,
// scripted node outages, link impairment episodes, and network partitions.
// Assign one to ScenarioConfig.Faults (see PaperScenario) to evaluate a
// metric's self-healing behavior. The schedule is drawn deterministically
// from the scenario seed, so every metric run on the same seed faces the
// same failures.
type FaultPlan = faults.Plan

// ChurnModel is the MTBF/MTTR crash-restart renewal process of a FaultPlan.
type ChurnModel = faults.ChurnModel

// GroupHealth is a multicast group's self-healing summary: repair latency
// after faults, delivery ratio during outages vs steady state, and
// availability. Fault-injected runs report one per group in
// RunResult.Health.
type GroupHealth = stats.GroupHealth
