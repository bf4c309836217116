package emu

import (
	"fmt"
	"math"
	"slices"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/packet"
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
	// Horizon is the plan's virtual-time horizon (bounds churn sampling;
	// zero means 24 h). The run-time length is Horizon × TimeScale.
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

// Chaos adapts a compiled fault plan to a live run's clock: NewChaos scales
// the schedule to run time once, so Events, Onsets and Windows come out in
// run time and DropProb, NodeDown and ActiveFaults read the run's "now"
// directly. DropProb can serve as the ether's impairment hook.
type Chaos struct {
	compiled *faults.Compiled // in run time
	nodes    []packet.NodeID
	now      func() time.Duration
}

// NewChaos compiles cfg.Plan against the given node-ID list (index i of the
// plan addresses nodes[i]; pass the fleet's NodeIDs). The compilation is
// deterministic: one (plan, seed, nodes, horizon) tuple always yields the
// same timeline, the one the simulator draws for that seed. now is the run
// time the schedule's offsets count from — a fleet's Driver().Now, or that
// minus the moment a script was injected — and must be safe from any
// goroutine: the ether evaluates DropProb per frame. Only a Chaos read for
// nothing but its schedule may leave it nil.
func NewChaos(cfg ChaosConfig, nodes []packet.NodeID, now func() time.Duration) (*Chaos, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("emu: chaos needs at least one node")
	}
	scale := cfg.TimeScale
	if scale == 0 {
		scale = 1
	}
	if !(scale > 0 && scale <= math.MaxFloat64) { // negated so that NaN fails too
		return nil, fmt.Errorf("emu: chaos TimeScale %v is not a positive finite number", scale)
	}
	horizon := cfg.Horizon
	if horizon <= 0 {
		horizon = 24 * time.Hour // effectively unbounded for live runs
	}
	compiled, err := faults.Compile(cfg.Plan, cfg.Seed, len(nodes), horizon)
	if err != nil {
		return nil, err
	}
	// The timeline ends with the latest fault's end; scaled past a
	// time.Duration's range it would wrap to a time before the run began.
	if timeline := compiled.Timeline(); len(timeline) > 0 {
		if last := timeline[len(timeline)-1].At; float64(last)*scale >= math.MaxInt64 {
			return nil, fmt.Errorf("emu: chaos TimeScale %v puts the plan's last event at %v past time.Duration's range", scale, last)
		}
	}
	ids := slices.Clone(nodes)
	slices.Sort(ids)
	return &Chaos{compiled: compiled.Scale(scale), nodes: ids, now: now}, nil
}

// Events returns the full run-time fault schedule, sorted by time. It is
// a pure function of the chaos config — two same-seed compilations produce
// identical schedules, which is what makes live chaos runs comparable
// across metrics.
func (c *Chaos) Events() []ChaosEvent {
	timeline := c.compiled.Timeline()
	out := make([]ChaosEvent, len(timeline))
	for i, e := range timeline {
		out[i] = ChaosEvent{At: e.At, Kind: e.Kind, Node: e.Node}
		if e.Node >= 0 {
			out[i].ID = c.nodes[e.Node]
		}
	}
	return out
}

// Onsets returns every fault onset in run time — the reference points for
// repair-latency measurement.
func (c *Chaos) Onsets() []time.Duration { return c.compiled.Onsets() }

// Windows returns the merged fault windows in run time, ready for
// stats.NewDisruptionTracker.
func (c *Chaos) Windows() []stats.Window { return c.compiled.Windows() }

// ActiveFaults returns how many fault episodes are active at the current
// run time — the live "chaos.active" telemetry gauge.
func (c *Chaos) ActiveFaults() int { return c.compiled.ActiveFaults(c.now()) }

// DropProb is the ether impairment hook: the extra drop probability for a
// directed pair right now, from the plan's link faults and partitions. The
// plan addresses nodes by index, so IDs are mapped back through the sorted
// node list; unknown IDs are never impaired.
func (c *Chaos) DropProb(from, to packet.NodeID) float64 {
	fi, ti := c.index(from), c.index(to)
	if fi < 0 || ti < 0 {
		return 0
	}
	// faults.Compiled.Impairment takes node indices in NodeID clothing —
	// the simulator's node IDs are its indices. Translate explicitly here.
	return c.compiled.Impairment(packet.NodeID(fi), packet.NodeID(ti), c.now()).DropProb
}

// NodeDown reports whether the node is inside a scripted or churn outage
// window at the current run time. The supervised fleet kills the daemon
// process outright; etherd, which cannot kill external daemons, folds this
// into its impairment hook instead — a down node's radio goes dark.
func (c *Chaos) NodeDown(id packet.NodeID) bool {
	i := c.index(id)
	return i >= 0 && c.compiled.NodeDown(i, c.now())
}

// index maps a node ID back to its plan index (-1 when unknown).
func (c *Chaos) index(id packet.NodeID) int {
	if i, ok := slices.BinarySearch(c.nodes, id); ok {
		return i
	}
	return -1
}
