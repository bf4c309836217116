package emu

import (
	"fmt"
	"sort"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
	"meshcast/internal/stats"
)

// ChaosConfig compiles a fault plan for the live testbed. The same JSON
// fault scripts the simulator consumes (internal/faults) drive the live
// fleet: node indices address the fleet's sorted node-ID list, and the
// script's virtual times are mapped to run time by TimeScale.
type ChaosConfig struct {
	// Plan is the fault plan (e.g. faults.LoadPlan of a JSON script).
	Plan faults.Plan
	// Seed drives the churn draws; same seed, same kill schedule.
	Seed uint64
	// TimeScale converts the plan's virtual seconds to wall-clock seconds:
	// wall = virtual × TimeScale. A script written for a 200 s simulation
	// replays in 10 s of wall time at TimeScale 0.05. Zero means 1.
	TimeScale float64
	// Horizon is the plan's virtual-time horizon (bounds churn sampling).
	// With TimeScale t, the corresponding wall-clock run length is
	// Horizon × t.
	Horizon time.Duration
}

// ChaosEvent is one entry of the live fault schedule.
type ChaosEvent struct {
	// At is the offset from the run start, in run time.
	At time.Duration
	// Kind is one of the faults.Event* constants.
	Kind string
	// Node is the plan's node index, or -1 for link/partition/ether events.
	Node int
	// ID is the node ID the index maps to (unset when Node is -1).
	ID packet.NodeID
}

// Chaos adapts a compiled fault plan to a live run's clock. It is the
// virtual→wall bridge: the schedule (Events, Onsets, Windows) comes out
// pre-scaled, and DropProb evaluates the plan's link faults and partitions
// at the plan time the run's "now" maps to, so it can serve as the ether's
// impairment hook.
type Chaos struct {
	compiled *faults.Compiled
	outages  []faults.Outage // cached: NodeDown runs on the ether hot path
	nodes    []packet.NodeID
	scale    float64
	now      func() time.Duration
}

// NewChaos compiles cfg.Plan against the given node-ID list (index i of the
// plan addresses nodes[i]; pass the fleet's NodeIDs). The compilation is
// deterministic: one (plan, seed, nodes, horizon) tuple always yields the
// same timeline. now is the run time the schedule's offsets count from —
// a fleet's Driver().Now, or that minus the moment a script was injected —
// and must be safe from any goroutine: the ether evaluates DropProb per
// frame. Only a Chaos read for nothing but its schedule may leave it nil.
func NewChaos(cfg ChaosConfig, nodes []packet.NodeID, now func() time.Duration) (*Chaos, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("emu: chaos needs at least one node")
	}
	scale := cfg.TimeScale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return nil, fmt.Errorf("emu: negative chaos time scale %v", scale)
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 24 * time.Hour // effectively unbounded for live runs
	}
	compiled, err := faults.Compile(cfg.Plan, sim.NewRNG(cfg.Seed^0xc4a05), len(nodes), horizon)
	if err != nil {
		return nil, err
	}
	ids := append([]packet.NodeID(nil), nodes...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &Chaos{compiled: compiled, outages: compiled.Outages(), nodes: ids, scale: scale, now: now}, nil
}

// wall converts a virtual duration from the plan to wall-clock time.
func (c *Chaos) wall(d time.Duration) time.Duration {
	return time.Duration(float64(d) * c.scale)
}

// virtualNow maps the run time back to plan time. A zero scale cannot occur
// (NewChaos defaults it to 1).
func (c *Chaos) virtualNow() time.Duration {
	return time.Duration(float64(c.now()) / c.scale)
}

// Events returns the full wall-clock fault schedule, sorted by time. It is
// a pure function of the chaos config — two same-seed compilations produce
// identical schedules, which is what makes live chaos runs comparable
// across metrics.
func (c *Chaos) Events() []ChaosEvent {
	timeline := c.compiled.Timeline()
	out := make([]ChaosEvent, 0, len(timeline))
	for _, e := range timeline {
		ce := ChaosEvent{At: c.wall(e.At), Kind: e.Kind, Node: e.Node}
		if e.Node >= 0 && e.Node < len(c.nodes) {
			ce.ID = c.nodes[e.Node]
		}
		out = append(out, ce)
	}
	return out
}

// Onsets returns every fault onset in wall-clock time — the reference
// points for repair-latency measurement.
func (c *Chaos) Onsets() []time.Duration {
	onsets := c.compiled.Onsets()
	out := make([]time.Duration, len(onsets))
	for i, t := range onsets {
		out[i] = c.wall(t)
	}
	return out
}

// Windows returns the merged fault windows in wall-clock time, ready for
// stats.NewDisruptionTracker.
func (c *Chaos) Windows() []stats.Window {
	ws := c.compiled.Windows()
	out := make([]stats.Window, len(ws))
	for i, w := range ws {
		out[i] = stats.Window{Start: c.wall(w.Start), End: c.wall(w.End)}
	}
	return out
}

// ActiveFaults returns how many fault episodes are active at the current
// run time — the live "chaos.active" telemetry gauge.
func (c *Chaos) ActiveFaults() int {
	return c.compiled.ActiveFaults(c.virtualNow())
}

// DropProb is the ether impairment hook: the extra drop probability for a
// directed pair right now, from the plan's link faults and partitions. The
// plan addresses nodes by index, so IDs are mapped back through the sorted
// node list; unknown IDs are never impaired.
func (c *Chaos) DropProb(from, to packet.NodeID) float64 {
	now := c.virtualNow()
	fi := c.index(from)
	ti := c.index(to)
	if fi < 0 || ti < 0 {
		return 0
	}
	// faults.Compiled.Impairment takes node indices in NodeID clothing —
	// the simulator's node IDs are its indices. Translate explicitly here.
	return c.compiled.Impairment(packet.NodeID(fi), packet.NodeID(ti), now).DropProb
}

// NodeDown reports whether the node is inside a scripted or churn outage
// window at the current wall time. The supervised fleet kills the daemon
// process outright; etherd, which cannot kill external daemons, folds this
// into its impairment hook instead — a down node's radio goes dark.
func (c *Chaos) NodeDown(id packet.NodeID) bool {
	i := c.index(id)
	if i < 0 {
		return false
	}
	now := c.virtualNow()
	for _, o := range c.outages {
		if o.Node == i && now >= o.Start && now < o.Start+o.Duration {
			return true
		}
	}
	return false
}

// index maps a node ID back to its plan index (-1 when unknown).
func (c *Chaos) index(id packet.NodeID) int {
	i := sort.Search(len(c.nodes), func(i int) bool { return c.nodes[i] >= id })
	if i < len(c.nodes) && c.nodes[i] == id {
		return i
	}
	return -1
}
