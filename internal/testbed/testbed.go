// Package testbed emulates the paper's 8-node indoor mesh testbed (§5):
// eight mesh routers on one office-building floor, with links classified as
// low-loss (solid in Figure 4) or lossy (dashed), the latter exhibiting
// 40–60% loss rates that vary over time.
//
// The physical testbed (Atheros radios, office walls) is unavailable, so
// this package substitutes a trace-driven link model: each link carries a
// slowly wandering delivery probability drawn from its class band, applied
// per packet through the PHY's link oracle. This preserves what the paper's
// testbed section analyses — lossy one-hop shortcuts versus clean two-hop
// detours, and loss rates high enough to trigger PP's exponential cost
// blowup (§5.3).
package testbed

import (
	"fmt"
	"sort"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/multicast"
	"meshcast/internal/node"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/stats"
	"meshcast/internal/traffic"
	"meshcast/internal/world"

	"meshcast/internal/metric"
)

// Paper node numbering (Figure 4). The eight routers keep their original
// IDs.
var NodeIDs = []packet.NodeID{1, 2, 3, 4, 5, 7, 9, 10}

// Positions approximates the Figure 4 floor map (metres; display only —
// propagation is trace-driven, not geometric).
var Positions = map[packet.NodeID]geom.Point{
	5:  {X: 5, Y: 20},
	4:  {X: 15, Y: 5},
	9:  {X: 30, Y: 8},
	7:  {X: 50, Y: 12},
	3:  {X: 60, Y: 20},
	2:  {X: 30, Y: 22},
	1:  {X: 62, Y: 6},
	10: {X: 12, Y: 16},
}

// LinkClass classifies a testbed link.
type LinkClass int

// Link classes (Figure 4: solid = low loss, dashed = lossy).
const (
	LowLoss LinkClass = iota + 1
	Lossy
)

// String implements fmt.Stringer.
func (c LinkClass) String() string {
	if c == Lossy {
		return "lossy"
	}
	return "low-loss"
}

// Link is an undirected testbed link.
type Link struct {
	A, B  packet.NodeID
	Class LinkClass
}

// Links reproduces the Figure 4 connectivity. Lossy links are exactly the
// ones §5.3 names as problem shortcuts: 2–5, 4–7, 1–3 and 3–9.
var Links = []Link{
	{2, 5, Lossy},
	{4, 7, Lossy},
	{1, 3, Lossy},
	{3, 9, Lossy},
	{2, 10, LowLoss},
	{10, 5, LowLoss},
	{4, 9, LowLoss},
	{9, 7, LowLoss},
	{2, 7, LowLoss},
	{3, 7, LowLoss},
	{1, 2, LowLoss},
	{4, 10, LowLoss},
}

// Config configures a testbed run.
type Config struct {
	// Metric selects the routing metric.
	Metric metric.Kind
	// Protocol selects the multicast protocol by registered name; empty
	// means the default (ODMRP).
	Protocol string
	// Seed drives the loss processes and protocol randomness.
	Seed uint64
	// TrafficSeconds is the measured window (paper: 400 s per run).
	TrafficSeconds int
	// WarmupSeconds lets probes warm up before traffic.
	WarmupSeconds int
}

// variationInterval is how often each link redraws its delivery probability
// ("these values change fairly quickly", §5.3).
const variationInterval = 10 * time.Second

// DefaultConfig mirrors the paper's testbed experiments.
func DefaultConfig(k metric.Kind, seed uint64) Config {
	return Config{
		Metric:         k,
		Seed:           seed,
		TrafficSeconds: 400,
		WarmupSeconds:  100,
	}
}

// lossProcess is one link's time-varying delivery probability. Lossy links
// mostly sit in the paper's 40–60% loss band but occasionally excurse to a
// temporarily good state — §5.3's "random temporal variations" that fool
// metrics with a short history window into re-selecting them, while PP's
// long EWMA memory (with its exploded cost) keeps avoiding them.
type lossProcess struct {
	df            float64
	lo, hi        float64
	jitter        float64
	excursionProb float64
	excursionHi   float64
	excursionLeft int
	rng           *sim.RNG
}

func newLossProcess(class LinkClass, rng *sim.RNG) *lossProcess {
	p := &lossProcess{rng: rng}
	switch class {
	case Lossy:
		// Paper §5.3: dashed links run at 40–60% loss with quick changes.
		p.lo, p.hi, p.jitter = 0.40, 0.60, 0.10
		p.excursionProb, p.excursionHi = 0.12, 0.95
	default:
		p.lo, p.hi, p.jitter = 0.94, 1.00, 0.02
	}
	p.df = p.lo + rng.Float64()*(p.hi-p.lo)
	return p
}

// step advances the process one variation interval.
func (p *lossProcess) step() {
	if p.excursionLeft > 0 {
		p.excursionLeft--
		if p.excursionLeft == 0 {
			// Fall back into the lossy band.
			p.df = p.lo + p.rng.Float64()*(p.hi-p.lo)
		}
		return
	}
	if p.excursionProb > 0 && p.rng.Float64() < p.excursionProb {
		// A temporarily good episode, long enough (3-5 intervals) for a
		// short-window estimator to believe it.
		p.excursionLeft = 3 + p.rng.Intn(3)
		p.df = p.hi + p.rng.Float64()*(p.excursionHi-p.hi)
		return
	}
	p.df += (p.rng.Float64()*2 - 1) * p.jitter
	if p.df < p.lo {
		p.df = p.lo
	}
	if p.df > p.hi {
		p.df = p.hi
	}
}

// linkTable finds the loss process of a pair of nodes without hashing the
// pair, which the link oracle does for every candidate of every frame: each
// node on a link has a dense index, and the table one entry per ordered pair
// of them.
type linkTable struct {
	index []int32 // by node ID: dense index, or -1 for a node on no link
	n     int
	procs []*lossProcess // procs[i*n+j]; nil where there is no link
}

// newLinkTable indexes processes[i] under both directions of links[i]; of
// two links between one pair, the later one holds.
func newLinkTable(links []Link, processes []*lossProcess) *linkTable {
	t := &linkTable{}
	for _, l := range links {
		for _, id := range []packet.NodeID{l.A, l.B} {
			for int(id) >= len(t.index) {
				t.index = append(t.index, -1)
			}
			if t.index[id] < 0 {
				t.index[id] = int32(t.n)
				t.n++
			}
		}
	}
	t.procs = make([]*lossProcess, t.n*t.n)
	for i, l := range links {
		a, b := int(t.index[l.A]), int(t.index[l.B])
		t.procs[a*t.n+b], t.procs[b*t.n+a] = processes[i], processes[i]
	}
	return t
}

// process returns the loss process of the link between a and b, or nil.
func (t *linkTable) process(a, b packet.NodeID) *lossProcess {
	if int(a) >= len(t.index) || int(b) >= len(t.index) {
		return nil
	}
	i, j := t.index[a], t.index[b]
	if i < 0 || j < 0 {
		return nil
	}
	return t.procs[int(i)*t.n+int(j)]
}

// linkKey canonicalizes an undirected pair.
func linkKey(a, b packet.NodeID) [2]packet.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]packet.NodeID{a, b}
}

// Result is a testbed run's outcome.
type Result struct {
	Summary   stats.Summary
	PerMember []stats.MemberPDR
	// EdgeUse merges data-carrying edge counters across nodes (Figure 5).
	EdgeUse map[multicast.Edge]uint64
	// Sent maps each source to packets sent.
	Sent map[packet.NodeID]uint64
	// Series buckets delivery ratio over time (20 s buckets, by send
	// time), exposing estimator convergence and route flaps.
	Series []stats.Point
	// Delay summarizes the end-to-end delay distribution.
	Delay stats.Percentiles
}

// Run executes one testbed emulation of the paper's §5.3 setup: group 1 is
// source 2 → members {3, 5}, group 2 is source 4 → members {1, 7}, CBR
// 512 B @ 20 pkt/s over the Figure 4 topology.
func Run(cfg Config) (*Result, error) {
	return RunScenario(cfg, PaperScenario())
}

// RunScenario executes a testbed emulation of an arbitrary scenario
// (PaperScenario or a GenerateFloor deployment).
func RunScenario(cfg Config, sc Scenario) (*Result, error) {
	nodeCfg := node.DefaultConfig(cfg.Metric)
	nodeCfg.Protocol = cfg.Protocol
	w := world.New(world.Config{
		Seed:         cfg.Seed,
		Fading:       propagation.NoFading{},
		Node:         nodeCfg,
		PayloadBytes: 512,
		SendInterval: 50 * time.Millisecond,
	})
	engine := w.Engine

	// Build the loss processes and install the link oracle. The RNG splits
	// below come before the first node so that a seed draws the same loss
	// trace whatever the node count.
	params := phy.DefaultParams()
	lossRNG := engine.RNG().Split()
	processes := make([]*lossProcess, len(sc.Links))
	for i, l := range sc.Links {
		processes[i] = newLossProcess(l.Class, lossRNG.Split())
	}
	table := newLinkTable(sc.Links, processes)
	drawRNG := engine.RNG().Split()
	w.Medium.SetLinkFunc(func(tx, rx packet.NodeID, _ time.Duration, _ *sim.RNG) float64 {
		proc := table.process(tx, rx)
		if proc == nil {
			return 0 // no link: not even carrier sense (hidden terminals)
		}
		if drawRNG.Float64() < proc.df {
			return params.RxThresholdW * 100 // comfortably decodable
		}
		return params.CSThresholdW * 3 // sensed but not decodable
	})
	sim.NewTicker(engine, variationInterval, variationInterval/2, engine.RNG().Split(), func() {
		for _, p := range processes {
			p.step()
		}
	})

	for _, id := range sc.Nodes {
		if _, err := w.AddNode(id, sc.Positions[id]); err != nil {
			return nil, fmt.Errorf("testbed node %v: %w", id, err)
		}
	}

	series := stats.NewTimeSeries(20 * time.Second)
	warmup := time.Duration(cfg.WarmupSeconds) * time.Second
	w.OnDeliver = func(p *packet.Packet, _ time.Duration) { series.RecordDelivered(p.SentAt - warmup) }
	w.OnSend = func(_ packet.GroupID, at time.Duration, _ int) { series.RecordSent(at - warmup) }
	flows := make([]*traffic.CBR, len(sc.Groups))
	for i, g := range sc.Groups {
		for _, m := range g.Members {
			if err := w.Join(m, g.Group); err != nil {
				return nil, fmt.Errorf("testbed group %v: %w", g.Group, err)
			}
		}
		var err error
		if flows[i], err = w.AddSource(g.Source, g.Group, warmup); err != nil {
			return nil, fmt.Errorf("testbed group %v: %w", g.Group, err)
		}
	}
	w.MeasureFrom(warmup)

	engine.Run(warmup + time.Duration(cfg.TrafficSeconds)*time.Second)

	h := w.Harvest()
	res := &Result{
		Summary:   h.Summary,
		PerMember: h.PerMember,
		EdgeUse:   h.EdgeUse,
		Sent:      make(map[packet.NodeID]uint64, len(flows)),
		Series:    series.Points(),
		Delay:     h.Delay,
	}
	for i, g := range sc.Groups {
		res.Sent[g.Source] = flows[i].Sent
	}
	return res, nil
}

// TreeEdge is a heavily used data edge with its share of the traffic.
type TreeEdge struct {
	Edge  multicast.Edge
	Count uint64
	Class LinkClass
}

// HeavyEdges extracts the data-plane tree from a run (Figure 5): directed
// edges that carried at least minShare of the total packets a source sent.
func HeavyEdges(res *Result, minShare float64) []TreeEdge {
	var total uint64
	for _, s := range res.Sent {
		total += s
	}
	if total == 0 {
		return nil
	}
	classes := make(map[[2]packet.NodeID]LinkClass, len(Links))
	for _, l := range Links {
		classes[linkKey(l.A, l.B)] = l.Class
	}
	var out []TreeEdge
	for e, c := range res.EdgeUse {
		if float64(c) < minShare*float64(total)/2 {
			// Each source contributes ~total/2 packets; an edge is "heavy"
			// relative to its own source's volume.
			continue
		}
		out = append(out, TreeEdge{Edge: e, Count: c, Class: classes[linkKey(e.From, e.To)]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}
