// Package faults is the deterministic fault-injection subsystem: node
// crash/restart schedules (an MTBF/MTTR renewal model plus scripted
// outages), link impairment episodes (burst loss, asymmetric attenuation,
// jamming windows) applied through the phy medium's impairment hook,
// partition/heal events and restarts of the live testbed's ether.
//
// Compile turns a plan and the run seed into one list of episodes, each a
// fault in force over [start, end), and every read-out (timeline, onsets,
// windows, active count, impairment) is one pass over it. One seed gives one
// schedule, in the simulator and on the live testbed alike. The simulator's
// Scheduler drops ether restarts: they act and count only on the live side.
package faults

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
	// deterministically from the run seed.
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
// Start and comes back — with an empty client table — after Duration. Only
// the live side acts on and counts it: the simulator's Scheduler validates
// restarts and then drops them from every read-out.
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
	// At is the time the event fires: plan time, or run time after Scale.
	At time.Duration
	// Kind is one of the Event* constants.
	Kind string
	// Node is the affected node index, or -1 for link/partition/ether events.
	Node int
}

// churnSalt derives the churn stream from the run seed. Both worlds use it,
// so a churned script draws the same crashes in the simulator and live.
const churnSalt = 0xfa0175eed

// maxChurnOutages bounds the outages a churn model may expect to draw: a
// millisecond MTBF over a long horizon would otherwise allocate without end.
const maxChurnOutages = 100_000

// episode is one fault in force over [start, end): a merged node outage, a
// link fault, a partition or an ether restart. on and off are the timeline
// kinds that open and close it.
type episode struct {
	start, end time.Duration
	on, off    string
	node       int          // the crashed node's index; -1 for every other kind
	link       *LinkFault   // link faults only
	sideA      map[int]bool // partitions only
}

func (e episode) active(now time.Duration) bool { return now >= e.start && now < e.end }

// Compiled is a plan's engine-free fault schedule: churn drawn, overlapping
// outages merged and partition sides cached, as one list of episodes. The
// simulator's Scheduler arms it on a sim.Engine; the live testbed's chaos
// controller (internal/emu) scales it to run time once and replays it
// against wall-clock daemons.
type Compiled struct {
	// Link faults, partitions and ether restarts come first, in plan order
	// (Impairment multiplies link losses in it and stops at the first
	// episode that impairs no link), then outages in merged (node, start)
	// order, the order Start arms them in.
	episodes []episode
}

// Scheduler owns a run's precomputed fault timeline and injects it into the
// simulation: node targets are failed/restored at the scheduled times, and
// the Impairment method (installed as the medium's phy.ImpairFunc) applies
// link faults and partitions. Ether restarts, which only exist on the live
// emulation path, are validated and then dropped.
type Scheduler struct {
	*Compiled
	engine  *sim.Engine
	targets []Target
}

// span checks a fault's placement and returns its end.
func span(start, d time.Duration) (time.Duration, error) {
	switch {
	case start < 0:
		return 0, fmt.Errorf("negative start")
	case d <= 0:
		return 0, fmt.Errorf("non-positive duration")
	case d > math.MaxInt64-start:
		return 0, fmt.Errorf("end overflows time.Duration")
	}
	return start + d, nil
}

// Compile precomputes a plan's full fault schedule for a run of length
// horizon over nTargets nodes. Churn is drawn from a stream derived from the
// run seed alone, so the result is a pure function of (plan, seed,
// nTargets, horizon).
func Compile(plan Plan, seed uint64, nTargets int, horizon time.Duration) (*Compiled, error) {
	outages := make([]episode, 0, len(plan.Outages))
	for i, o := range plan.Outages {
		if o.Node < 0 || o.Node >= nTargets {
			return nil, fmt.Errorf("faults: outage %d (node %d, start %v): node index out of range [0, %d)",
				i, o.Node, o.Start, nTargets)
		}
		end, err := span(o.Start, o.Duration)
		if err != nil {
			return nil, fmt.Errorf("faults: outage %d (node %d, start %v): %v", i, o.Node, o.Start, err)
		}
		outages = append(outages, outage(o.Node, o.Start, end))
	}
	if ch := plan.Churn; ch != nil {
		if ch.Fraction < 0 || ch.Fraction > 1 {
			return nil, fmt.Errorf("faults: churn fraction %v outside [0, 1]", ch.Fraction)
		}
		if ch.Fraction > 0 && (ch.MTBF <= 0 || ch.MTTR <= 0) {
			return nil, fmt.Errorf("faults: churn requires positive MTBF and MTTR")
		}
		if ch.Start < 0 || ch.End < 0 {
			return nil, fmt.Errorf("faults: churn start %v or end %v negative", ch.Start, ch.End)
		}
		cycles := float64(churnEnd(*ch, horizon)-ch.Start) / (float64(ch.MTBF) + float64(ch.MTTR))
		if n := math.Round(ch.Fraction*float64(nTargets)) * cycles; n > maxChurnOutages {
			return nil, fmt.Errorf("faults: churn MTBF %v and MTTR %v would draw about %.0f outages, more than %d (set an end)",
				ch.MTBF, ch.MTTR, n, maxChurnOutages)
		}
		outages = append(outages, drawChurn(sim.NewRNG(seed^churnSalt), *ch, nTargets, horizon)...)
	}
	c := &Compiled{}
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
		end, err := span(lf.Start, lf.Duration)
		if err != nil {
			return nil, fmt.Errorf("faults: link fault %d (from %d, to %d, start %v): %v",
				i, lf.From, lf.To, lf.Start, err)
		}
		c.episodes = append(c.episodes, episode{start: lf.Start, end: end,
			on: EventLinkFault, off: EventLinkHeal, node: -1, link: &lf})
	}
	for i, p := range plan.Partitions {
		end, err := span(p.Start, p.Duration)
		if err != nil {
			return nil, fmt.Errorf("faults: partition %d (start %v): %v", i, p.Start, err)
		}
		side := make(map[int]bool, len(p.SideA))
		for _, n := range p.SideA {
			if n < 0 || n >= nTargets {
				return nil, fmt.Errorf("faults: partition %d (start %v): node %d out of range [0, %d)",
					i, p.Start, n, nTargets)
			}
			side[n] = true
		}
		c.episodes = append(c.episodes, episode{start: p.Start, end: end,
			on: EventPartition, off: EventHeal, node: -1, sideA: side})
	}
	for i, er := range plan.EtherRestarts {
		end, err := span(er.Start, er.Duration)
		if err != nil {
			return nil, fmt.Errorf("faults: ether restart %d (start %v): %v", i, er.Start, err)
		}
		c.episodes = append(c.episodes, episode{start: er.Start, end: end,
			on: EventEtherDown, off: EventEtherUp, node: -1})
	}
	c.episodes = append(c.episodes, merge(outages, func(e episode) int { return e.node })...)
	return c, nil
}

// NewScheduler precomputes the full fault timeline for a run of length
// horizon from the run seed (see Compile) and drops its ether restarts,
// which the simulator has no medium to act on. Call Start to arm the node
// events, and install Impairment on the medium.
func NewScheduler(engine *sim.Engine, seed uint64, plan Plan, targets []Target, horizon time.Duration) (*Scheduler, error) {
	c, err := Compile(plan, seed, len(targets), horizon)
	if err != nil {
		return nil, err
	}
	c.episodes = slices.DeleteFunc(c.episodes, func(e episode) bool { return e.on == EventEtherDown })
	return &Scheduler{Compiled: c, engine: engine, targets: targets}, nil
}

// drawChurn samples the renewal process for every churned node. The node
// subset and all episode times come from rng alone, so the schedule is a
// pure function of (seed, model, node count, horizon).
func drawChurn(rng *sim.RNG, c ChurnModel, n int, horizon time.Duration) []episode {
	count := int(math.Round(c.Fraction * float64(n)))
	if count <= 0 { // Compile checked Fraction ≤ 1, so count ≤ n
		return nil
	}
	churned := rng.Perm(n)[:count]
	sort.Ints(churned) // iteration order must not depend on Perm's layout
	end := churnEnd(c, horizon)
	var out []episode
	for _, nodeIdx := range churned {
		t := c.Start
		for {
			t += draw(rng, c.MTBF, end-t)
			if t >= end {
				break
			}
			down := draw(rng, c.MTTR, end-t)
			if down <= 0 {
				down = time.Millisecond
			}
			if t+down > end {
				down = end - t
			}
			out = append(out, outage(nodeIdx, t, t+down))
			t += down
		}
	}
	return out
}

// churnEnd is where churn stops: End, or the horizon if End is unset or past it.
func churnEnd(c ChurnModel, horizon time.Duration) time.Duration {
	if c.End <= 0 || c.End > horizon {
		return horizon
	}
	return c.End
}

// draw samples an exponential duration of the given mean, capped at limit.
// The product stays a float until it is known to fit, so a huge mean cannot
// wrap.
func draw(rng *sim.RNG, mean, limit time.Duration) time.Duration {
	if d := float64(mean) * rng.ExpFloat64(); d < float64(limit) {
		return time.Duration(d)
	}
	return limit
}

// outage is a node crash episode.
func outage(node int, start, end time.Duration) episode {
	return episode{start: start, end: end, on: EventNodeDown, off: EventNodeUp, node: node}
}

// merge sorts episodes by (key, start) and joins the overlapping ones of one
// key, in place: outages per node, so a node is never "restored" while
// another outage still holds it down, and all episodes into fault windows.
func merge(es []episode, key func(episode) int) []episode {
	slices.SortFunc(es, func(a, b episode) int { return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(a.start, b.start)) })
	merged := es[:0]
	for _, e := range es {
		if n := len(merged); n > 0 && key(merged[n-1]) == key(e) && e.start <= merged[n-1].end {
			merged[n-1].end = max(merged[n-1].end, e.end)
			continue
		}
		merged = append(merged, e)
	}
	return merged
}

// Start arms the node crash/restart events on the engine. Link faults and
// partitions need no events: Impairment evaluates them by time.
func (s *Scheduler) Start() {
	for _, e := range s.episodes {
		if e.on == EventNodeDown {
			target := s.targets[e.node]
			s.engine.At(e.start, target.Fail)
			s.engine.At(e.end, target.Restore)
		}
	}
}

// Scale returns the schedule with every time multiplied by f: the live
// testbed's one conversion from plan time to run time.
func (c *Compiled) Scale(f float64) *Compiled {
	s := &Compiled{episodes: slices.Clone(c.episodes)}
	for i := range s.episodes {
		e := &s.episodes[i]
		e.start = time.Duration(float64(e.start) * f)
		e.end = time.Duration(float64(e.end) * f)
	}
	return s
}

// Timeline returns the full precomputed fault timeline, sorted by time.
func (c *Compiled) Timeline() []Event {
	out := make([]Event, 0, 2*len(c.episodes))
	for _, e := range c.episodes {
		out = append(out, Event{At: e.start, Kind: e.on, Node: e.node}, Event{At: e.end, Kind: e.off, Node: e.node})
	}
	slices.SortFunc(out, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Node, b.Node), cmp.Compare(a.Kind, b.Kind))
	})
	return out
}

// Onsets returns the start time of every fault episode, sorted and
// deduplicated — the reference points for repair-latency measurement.
func (c *Compiled) Onsets() []time.Duration {
	var out []time.Duration
	for _, e := range c.episodes {
		out = append(out, e.start)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Windows returns the merged union of every interval during which at least
// one fault is active — the "outage" periods for PDR bucketing.
func (c *Compiled) Windows() []stats.Window {
	var ws []stats.Window
	for _, e := range merge(slices.Clone(c.episodes), func(episode) int { return 0 }) {
		ws = append(ws, stats.Window{Start: e.start, End: e.end})
	}
	return ws
}

// DownCount returns how many node crash episodes the schedule contains.
func (c *Compiled) DownCount() int {
	n := 0
	for _, e := range c.episodes {
		if e.on == EventNodeDown {
			n++
		}
	}
	return n
}

// ActiveFaults returns how many fault episodes are active at time now — the
// value behind the "faults.active" telemetry gauge.
func (c *Compiled) ActiveFaults(now time.Duration) int {
	n := 0
	for _, e := range c.episodes {
		if e.active(now) {
			n++
		}
	}
	return n
}

// NodeDown reports whether node index i is inside an outage at time now.
func (c *Compiled) NodeDown(i int, now time.Duration) bool {
	for _, e := range c.episodes {
		if e.on == EventNodeDown && e.node == i && e.active(now) {
			return true
		}
	}
	return false
}

// Impairment implements phy.ImpairFunc: the combined extra loss and
// attenuation for a (tx, rx) pair at time now, across all active link faults
// and partitions. Install with medium.SetImpairment(sched.Impairment).
func (c *Compiled) Impairment(tx, rx packet.NodeID, now time.Duration) phy.Impairment {
	keep := 1.0  // probability the packet survives all injected loss
	atten := 1.0 // linear power factor
	impaired := false
	for i := range c.episodes {
		e := &c.episodes[i]
		if e.link == nil && e.sideA == nil {
			break
		}
		if !e.active(now) {
			continue
		}
		switch {
		case e.link != nil && e.link.matches(int(tx), int(rx)):
			keep *= 1 - e.link.DropProb
			if e.link.AttenuationDB != 0 {
				atten *= math.Pow(10, -e.link.AttenuationDB/10)
			}
			impaired = true
		case e.sideA != nil && e.sideA[int(tx)] != e.sideA[int(rx)]:
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
	hit := func(a, b int) bool { return (lf.From == -1 || lf.From == a) && (lf.To == -1 || lf.To == b) }
	return hit(tx, rx) || lf.Symmetric && hit(rx, tx)
}
