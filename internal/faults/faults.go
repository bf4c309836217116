// Package faults is the deterministic fault-injection subsystem: it drives
// node crash/restart schedules (an MTBF/MTTR renewal model plus explicit
// scripted outages), link impairment episodes (burst loss, asymmetric
// attenuation, jamming windows) applied through the phy medium's impairment
// hook, and network partition/heal events.
//
// Everything is precomputed at construction time from a seeded RNG
// sub-stream, so a plan plus a seed fully determines the fault timeline —
// two runs with the same seed produce byte-identical fault schedules and
// therefore byte-identical statistics. The scheduler exposes that timeline
// (Timeline, Windows, Onsets) so the stats layer can measure repair latency
// and PDR-during-outage against the ground truth of when faults happened.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"

	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/sim"
	"meshcast/internal/stats"
)

// ChurnModel subjects a random subset of nodes to a crash/restart renewal
// process: each churned node alternates exponentially distributed up-times
// (mean MTBF) and down-times (mean MTTR).
type ChurnModel struct {
	// Fraction of nodes subject to churn, in [0, 1]. The subset is drawn
	// deterministically from the scheduler's RNG.
	Fraction float64
	// MTBF is the mean up-time between failures.
	MTBF time.Duration
	// MTTR is the mean down-time (repair duration).
	MTTR time.Duration
	// Start delays churn onset (give protocols a warmup); End bounds it
	// (zero = the scheduler's horizon).
	Start, End time.Duration
}

// Outage is one scripted node crash window.
type Outage struct {
	// Node is the node index (position in the scheduler's target list).
	Node int
	// Start and Duration place the outage in virtual time.
	Start, Duration time.Duration
}

// LinkFault is one scripted link impairment episode.
type LinkFault struct {
	// From and To are node indices; -1 is a wildcard matching every node
	// (From=-1, To=-1 is a jamming window over the whole medium).
	From, To int
	// Start and Duration place the episode in virtual time.
	Start, Duration time.Duration
	// DropProb is an extra independent loss probability in [0, 1] (burst
	// loss / jamming).
	DropProb float64
	// AttenuationDB weakens the received signal by this many dB (asymmetric
	// degradation when only one direction is listed).
	AttenuationDB float64
	// Symmetric applies the fault to both directions.
	Symmetric bool
}

// Partition splits the network in two for a window: every link crossing the
// cut is dead until the heal event.
type Partition struct {
	// Start and Duration place the partition in virtual time.
	Start, Duration time.Duration
	// SideA lists the node indices on one side of the cut; every other node
	// is on side B.
	SideA []int
}

// EtherRestart is one scripted restart of the live testbed's emulated
// broadcast medium (the internal/emu ether server): the medium goes down at
// Start and comes back — with an empty client table — after Duration. The
// simulator has no ether, so its Scheduler carries these windows in the
// timeline and fault windows but takes no action; the live fleet's chaos
// controller executes them.
type EtherRestart struct {
	Start, Duration time.Duration
}

// Plan is a complete fault-injection configuration for one run.
type Plan struct {
	// Churn, when non-nil, enables the MTBF/MTTR crash model.
	Churn *ChurnModel
	// Outages are explicit scripted node crashes.
	Outages []Outage
	// LinkFaults are scripted link impairment episodes.
	LinkFaults []LinkFault
	// Partitions are scripted partition/heal windows.
	Partitions []Partition
	// EtherRestarts are scripted restarts of the live emulation medium
	// (no-ops in the simulator).
	EtherRestarts []EtherRestart
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return p.Churn == nil && len(p.Outages) == 0 && len(p.LinkFaults) == 0 &&
		len(p.Partitions) == 0 && len(p.EtherRestarts) == 0
}

// Target is the node-lifecycle interface the scheduler drives; the scenario
// layer wraps each mesh node (and its traffic flows) into one.
type Target interface {
	// Fail crashes the target.
	Fail()
	// Restore restarts the target.
	Restore()
}

// Event kinds in the fault timeline.
const (
	EventNodeDown  = "node-down"
	EventNodeUp    = "node-up"
	EventLinkFault = "link-fault"
	EventLinkHeal  = "link-heal"
	EventPartition = "partition"
	EventHeal      = "heal"
	EventEtherDown = "ether-down"
	EventEtherUp   = "ether-up"
)

// Event is one entry of the precomputed fault timeline.
type Event struct {
	// At is the virtual time the event fires.
	At time.Duration
	// Kind is one of the Event* constants.
	Kind string
	// Node is the affected node index, or -1 for link/partition events.
	Node int
}

// Compiled is a plan's engine-free precomputed fault timeline: churn
// episodes drawn, overlapping outages merged, partition sides cached, and
// everything flattened into a sorted event list. It is shared between the
// simulator's Scheduler (which arms node events on a sim.Engine) and the
// live testbed's chaos controller (internal/emu), which replays the same
// timeline against wall-clock daemons — so one fault script, compiled with
// one seed, yields an identical fault schedule in both worlds.
type Compiled struct {
	outages       []Outage // merged per node, includes churn-derived ones
	linkFaults    []LinkFault
	partitions    []partitionWindow
	etherRestarts []EtherRestart
	timeline      []Event
}

// Scheduler owns a run's precomputed fault timeline and injects it into the
// simulation: node targets are failed/restored at the scheduled times, and
// the Impairment method (installed as the medium's phy.ImpairFunc) applies
// link faults and partitions. Ether restarts, which only exist on the live
// emulation path, are carried in the timeline but not acted on here.
type Scheduler struct {
	*Compiled
	engine  *sim.Engine
	targets []Target
}

// partitionWindow caches the side-A membership set.
type partitionWindow struct {
	Partition
	sideA map[int]bool
}

// Compile precomputes a plan's full fault timeline for a run of length
// horizon over nTargets nodes. rng must be a dedicated sub-stream so the
// churn draws do not perturb anything else; the result is a pure function
// of (plan, rng seed, nTargets, horizon).
func Compile(plan Plan, rng *sim.RNG, nTargets int, horizon time.Duration) (*Compiled, error) {
	c := &Compiled{}

	outages := make([]Outage, 0, len(plan.Outages))
	for i, o := range plan.Outages {
		if o.Node < 0 || o.Node >= nTargets {
			return nil, fmt.Errorf("faults: outage %d (node %d, start %v): node index out of range [0, %d)",
				i, o.Node, o.Start, nTargets)
		}
		if o.Duration <= 0 {
			return nil, fmt.Errorf("faults: outage %d (node %d, start %v): non-positive duration", i, o.Node, o.Start)
		}
		outages = append(outages, o)
	}
	if ch := plan.Churn; ch != nil {
		if ch.Fraction < 0 || ch.Fraction > 1 {
			return nil, fmt.Errorf("faults: churn fraction %v outside [0, 1]", ch.Fraction)
		}
		if ch.Fraction > 0 && (ch.MTBF <= 0 || ch.MTTR <= 0) {
			return nil, fmt.Errorf("faults: churn requires positive MTBF and MTTR")
		}
		outages = append(outages, drawChurn(rng, *ch, nTargets, horizon)...)
	}
	c.outages = mergeOutages(outages)

	for i, lf := range plan.LinkFaults {
		// Endpoints must be real node indices (or the -1 wildcard): a typo'd
		// index would otherwise compile fine and silently never match any
		// pair at execution time.
		for _, end := range []int{lf.From, lf.To} {
			if end != -1 && (end < 0 || end >= nTargets) {
				return nil, fmt.Errorf("faults: link fault %d (from %d, to %d, start %v): node index %d out of range [0, %d)",
					i, lf.From, lf.To, lf.Start, end, nTargets)
			}
		}
		if lf.DropProb < 0 || lf.DropProb > 1 {
			return nil, fmt.Errorf("faults: link fault %d (from %d, to %d, start %v): drop probability %v outside [0, 1]",
				i, lf.From, lf.To, lf.Start, lf.DropProb)
		}
		if lf.Duration <= 0 {
			return nil, fmt.Errorf("faults: link fault %d (from %d, to %d, start %v): non-positive duration",
				i, lf.From, lf.To, lf.Start)
		}
		c.linkFaults = append(c.linkFaults, lf)
	}
	for i, p := range plan.Partitions {
		if p.Duration <= 0 {
			return nil, fmt.Errorf("faults: partition %d (start %v): non-positive duration", i, p.Start)
		}
		side := make(map[int]bool, len(p.SideA))
		for _, n := range p.SideA {
			if n < 0 || n >= nTargets {
				return nil, fmt.Errorf("faults: partition %d (start %v): node %d out of range [0, %d)",
					i, p.Start, n, nTargets)
			}
			side[n] = true
		}
		c.partitions = append(c.partitions, partitionWindow{Partition: p, sideA: side})
	}
	for i, er := range plan.EtherRestarts {
		if er.Duration <= 0 {
			return nil, fmt.Errorf("faults: ether restart %d (start %v): non-positive duration", i, er.Start)
		}
		c.etherRestarts = append(c.etherRestarts, er)
	}

	c.buildTimeline()
	return c, nil
}

// NewScheduler precomputes the full fault timeline for a run of length
// horizon. rng must be a dedicated sub-stream (engine.RNG().Split()) so the
// fault draws do not perturb the rest of the simulation. Call Start to arm
// the node events, and install Impairment on the medium.
func NewScheduler(engine *sim.Engine, rng *sim.RNG, plan Plan, targets []Target, horizon time.Duration) (*Scheduler, error) {
	c, err := Compile(plan, rng, len(targets), horizon)
	if err != nil {
		return nil, err
	}
	return &Scheduler{Compiled: c, engine: engine, targets: targets}, nil
}

// drawChurn samples the renewal process for every churned node. The node
// subset and all episode times come from rng alone, so the schedule is a
// pure function of (seed, model, node count, horizon).
func drawChurn(rng *sim.RNG, c ChurnModel, n int, horizon time.Duration) []Outage {
	count := int(math.Round(c.Fraction * float64(n)))
	if count <= 0 {
		return nil
	}
	if count > n {
		count = n
	}
	churned := rng.Perm(n)[:count]
	sort.Ints(churned) // iteration order must not depend on Perm's layout
	end := c.End
	if end <= 0 || end > horizon {
		end = horizon
	}
	var out []Outage
	for _, nodeIdx := range churned {
		t := c.Start
		for {
			up := time.Duration(float64(c.MTBF) * rng.ExpFloat64())
			t += up
			if t >= end {
				break
			}
			down := time.Duration(float64(c.MTTR) * rng.ExpFloat64())
			if down <= 0 {
				down = time.Millisecond
			}
			if t+down > end {
				down = end - t
			}
			out = append(out, Outage{Node: nodeIdx, Start: t, Duration: down})
			t += down
		}
	}
	return out
}

// mergeOutages sorts outages and merges overlapping windows per node, so a
// node is never "restored" while another scripted outage still holds it down.
func mergeOutages(outages []Outage) []Outage {
	sort.Slice(outages, func(i, j int) bool {
		if outages[i].Node != outages[j].Node {
			return outages[i].Node < outages[j].Node
		}
		return outages[i].Start < outages[j].Start
	})
	merged := outages[:0]
	for _, o := range outages {
		if n := len(merged); n > 0 && merged[n-1].Node == o.Node &&
			o.Start <= merged[n-1].Start+merged[n-1].Duration {
			if end := o.Start + o.Duration; end > merged[n-1].Start+merged[n-1].Duration {
				merged[n-1].Duration = end - merged[n-1].Start
			}
			continue
		}
		merged = append(merged, o)
	}
	return merged
}

// buildTimeline flattens every fault into the sorted event timeline.
func (c *Compiled) buildTimeline() {
	for _, o := range c.outages {
		c.timeline = append(c.timeline,
			Event{At: o.Start, Kind: EventNodeDown, Node: o.Node},
			Event{At: o.Start + o.Duration, Kind: EventNodeUp, Node: o.Node})
	}
	for _, lf := range c.linkFaults {
		c.timeline = append(c.timeline,
			Event{At: lf.Start, Kind: EventLinkFault, Node: -1},
			Event{At: lf.Start + lf.Duration, Kind: EventLinkHeal, Node: -1})
	}
	for _, p := range c.partitions {
		c.timeline = append(c.timeline,
			Event{At: p.Start, Kind: EventPartition, Node: -1},
			Event{At: p.Start + p.Duration, Kind: EventHeal, Node: -1})
	}
	for _, er := range c.etherRestarts {
		c.timeline = append(c.timeline,
			Event{At: er.Start, Kind: EventEtherDown, Node: -1},
			Event{At: er.Start + er.Duration, Kind: EventEtherUp, Node: -1})
	}
	sort.Slice(c.timeline, func(i, j int) bool {
		a, b := c.timeline[i], c.timeline[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
}

// Start arms the node crash/restart events on the engine. Link faults and
// partitions need no events: Impairment evaluates them by time.
func (s *Scheduler) Start() {
	for _, o := range s.outages {
		o := o
		s.engine.At(o.Start, func() { s.targets[o.Node].Fail() })
		s.engine.At(o.Start+o.Duration, func() { s.targets[o.Node].Restore() })
	}
}

// Timeline returns the full precomputed fault timeline, sorted by time.
func (c *Compiled) Timeline() []Event {
	out := make([]Event, len(c.timeline))
	copy(out, c.timeline)
	return out
}

// Outages returns the merged per-node crash windows (churn included).
func (c *Compiled) Outages() []Outage {
	out := make([]Outage, len(c.outages))
	copy(out, c.outages)
	return out
}

// EtherRestarts returns the scripted medium restart windows.
func (c *Compiled) EtherRestarts() []EtherRestart {
	out := make([]EtherRestart, len(c.etherRestarts))
	copy(out, c.etherRestarts)
	return out
}

// Onsets returns the start time of every fault episode (node outage, link
// fault, partition), sorted and deduplicated — the reference points for
// repair-latency measurement.
func (c *Compiled) Onsets() []time.Duration {
	var out []time.Duration
	for _, e := range c.timeline {
		switch e.Kind {
		case EventNodeDown, EventLinkFault, EventPartition, EventEtherDown:
			out = append(out, e.At)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, t := range out {
		if i == 0 || t != dedup[len(dedup)-1] {
			dedup = append(dedup, t)
		}
	}
	return dedup
}

// Windows returns the merged union of every interval during which at least
// one fault is active — the "outage" periods for PDR bucketing.
func (c *Compiled) Windows() []stats.Window {
	var ws []stats.Window
	for _, o := range c.outages {
		ws = append(ws, stats.Window{Start: o.Start, End: o.Start + o.Duration})
	}
	for _, lf := range c.linkFaults {
		ws = append(ws, stats.Window{Start: lf.Start, End: lf.Start + lf.Duration})
	}
	for _, p := range c.partitions {
		ws = append(ws, stats.Window{Start: p.Start, End: p.Start + p.Duration})
	}
	for _, er := range c.etherRestarts {
		ws = append(ws, stats.Window{Start: er.Start, End: er.Start + er.Duration})
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].Start < ws[j].Start })
	merged := ws[:0]
	for _, w := range ws {
		if n := len(merged); n > 0 && w.Start <= merged[n-1].End {
			if w.End > merged[n-1].End {
				merged[n-1].End = w.End
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// DownCount returns how many node crash episodes the schedule contains.
func (c *Compiled) DownCount() int { return len(c.outages) }

// ActiveFaults returns how many fault episodes (node outages, link faults,
// partitions) are active at time now — the value behind the "faults.active"
// telemetry gauge.
func (c *Compiled) ActiveFaults(now time.Duration) int {
	n := 0
	for _, o := range c.outages {
		if now >= o.Start && now < o.Start+o.Duration {
			n++
		}
	}
	for _, lf := range c.linkFaults {
		if now >= lf.Start && now < lf.Start+lf.Duration {
			n++
		}
	}
	for _, p := range c.partitions {
		if now >= p.Start && now < p.Start+p.Duration {
			n++
		}
	}
	for _, er := range c.etherRestarts {
		if now >= er.Start && now < er.Start+er.Duration {
			n++
		}
	}
	return n
}

// Impairment implements phy.ImpairFunc: the combined extra loss and
// attenuation for a (tx, rx) pair at time now, across all active link faults
// and partitions. Install with medium.SetImpairment(sched.Impairment).
func (c *Compiled) Impairment(tx, rx packet.NodeID, now time.Duration) phy.Impairment {
	keep := 1.0  // probability the packet survives all injected loss
	atten := 1.0 // linear power factor
	impaired := false
	for _, lf := range c.linkFaults {
		if now < lf.Start || now >= lf.Start+lf.Duration {
			continue
		}
		if !lf.matches(int(tx), int(rx)) {
			continue
		}
		keep *= 1 - lf.DropProb
		if lf.AttenuationDB != 0 {
			atten *= math.Pow(10, -lf.AttenuationDB/10)
		}
		impaired = true
	}
	for _, p := range c.partitions {
		if now < p.Start || now >= p.Start+p.Duration {
			continue
		}
		if p.sideA[int(tx)] != p.sideA[int(rx)] {
			return phy.Impairment{DropProb: 1}
		}
	}
	if !impaired {
		return phy.Impairment{}
	}
	return phy.Impairment{DropProb: 1 - keep, Attenuation: atten}
}

// matches reports whether the fault covers the directed pair (tx, rx),
// honoring wildcards and the Symmetric flag.
func (lf LinkFault) matches(tx, rx int) bool {
	hit := func(a, b int) bool {
		return (lf.From == -1 || lf.From == a) && (lf.To == -1 || lf.To == b)
	}
	if hit(tx, rx) {
		return true
	}
	return lf.Symmetric && hit(rx, tx)
}
