// Package mcst implements MCST, a core-based shared-tree multicast protocol
// — the tree-based counterpart to the mesh-based ODMRP — behind the same
// multicast.Protocol interface, reusing the paper's link-quality path
// metrics for parent selection.
//
// Where ODMRP builds one forwarding mesh per (group, source), MCST maintains
// a single bidirectional shared tree per group rooted at a core:
//
//  1. The lowest-ID active source elects itself core and periodically floods
//     a CORE ANNOUNCE. Like ODMRP's JOIN QUERY, the announce accumulates the
//     cost of the traveled path using the node's NEIGHBOR TABLE and the
//     configured routing metric; within α of the first copy, improving
//     duplicates are re-flooded, giving receivers path diversity to choose
//     from.
//  2. Any other source that hears an announce from a lower-ID core stops
//     announcing and behaves as a sender: it grafts itself onto the tree
//     exactly like a member. Announce suppression makes core election
//     deterministic and message-free.
//  3. Group members (and non-core senders) wait δ collecting announce
//     copies, then send a TREE JOIN to the best-cost upstream neighbor
//     (link-quality-weighted parent selection). A node named as parent sets
//     its on-tree flag and propagates its own join toward the core, once per
//     announce round; tree state expires after treeTimeout unless refreshed.
//  4. Data is link-layer broadcast; on-tree nodes (and the core) rebroadcast
//     it, suppressing duplicates with the shared sliding window. Because
//     every on-tree node relays regardless of which direction the packet
//     travels, the tree is bidirectional: sender→core traffic is picked up
//     by the member branches it crosses.
//
// Compared to ODMRP the shared tree trades per-source path optimality and
// mesh redundancy for less control traffic and soft state: one flood and one
// round-trip of joins per group instead of per source.
package mcst

import (
	"time"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
	"meshcast/internal/trace"
)

// The protocol's fixed timing, aligned with the paper's ODMRP timing so
// protocol comparisons differ in mechanism, not tuning: announce every 3 s,
// tree timeout 3 × announce.
const (
	// announceInterval is the period between CORE ANNOUNCE floods of an
	// acting core.
	announceInterval = 3 * time.Second
	// treeTimeout is how long the on-tree flag stays set after the last
	// TREE JOIN refreshed it.
	treeTimeout = 9 * time.Second
	// coreTimeout is how long a suppressed source waits without hearing its
	// adopted core before reclaiming the core role (core failover).
	coreTimeout = 7 * time.Second
	// announceJitter decorrelates the announce flood; joinJitter does the
	// same for join propagation.
	announceJitter = 4 * time.Millisecond
	joinJitter     = 2 * time.Millisecond
)

// policy is MCST under metric k as the flood-round kernel sees it: CORE
// ANNOUNCE floods answered by TREE JOIN grafts, timed by the constants above.
// δ and α are ODMRP's 30 ms and 20 ms under every link-quality metric; under
// MinHop, the shortest-delay shared-tree baseline, both are zero (first-copy
// joins, no duplicate re-flooding). The tree is shared, so the core relays
// other senders' data by role (OriginRelays).
func policy(k metric.Kind) multicast.Policy {
	p := multicast.Policy{
		FloodKind:     packet.TypeCoreAnnounce,
		GraftKind:     packet.TypeTreeJoin,
		FloodInterval: announceInterval,
		FlagTimeout:   treeTimeout,
		Delta:         30 * time.Millisecond,
		Alpha:         20 * time.Millisecond,
		FloodJitter:   announceJitter,
		GraftJitter:   joinJitter,
		OriginRelays:  true,
	}
	if k == metric.MinHop {
		p.Delta, p.Alpha = 0, 0
	}
	return p
}

// coreBinding tracks the core a node has adopted for a group.
type coreBinding struct {
	core      packet.NodeID
	lastHeard time.Duration
}

// Router is one node's MCST instance: the shared flood-round kernel under
// MCST's policy, plus core election, announce suppression and failover. The
// node acts as core of a group exactly while the kernel originates its
// flood.
type Router struct {
	*multicast.Kernel
	// CoreHandovers counts core-binding changes seen by this node.
	CoreHandovers uint64

	engine *sim.Engine

	// sources marks groups this node actively sends to.
	sources map[packet.GroupID]bool
	cores   map[packet.GroupID]*coreBinding
	// failover marks groups with a pending core-liveness watchdog (armed
	// while this node is a suppressed source).
	failover map[packet.GroupID]bool
}

// New creates a router for node id using path metric pm and neighbor table
// table; pm's kind sets δ and α (policy).
func New(engine *sim.Engine, id packet.NodeID, pm metric.PathMetric, table *linkquality.Table) *Router {
	return &Router{
		Kernel:   multicast.NewKernel(engine, id, pm, table, policy(pm.Kind())),
		engine:   engine,
		sources:  make(map[packet.GroupID]bool),
		cores:    make(map[packet.GroupID]*coreBinding),
		failover: make(map[packet.GroupID]bool),
	}
}

// Reset purges all soft state, modeling a node crash: the kernel's rounds,
// flags, duplicate windows and announce floods, and the core bindings and
// source roles. A source stopped here must be re-registered via StartSource
// after restart.
func (r *Router) Reset() {
	r.Kernel.Reset()
	r.sources = make(map[packet.GroupID]bool)
	r.failover = make(map[packet.GroupID]bool)
	r.cores = make(map[packet.GroupID]*coreBinding)
}

// StartSource registers this node as an active source for group. Unless a
// lower-ID core is already known, the node assumes the core role and begins
// announcing immediately; it steps down on hearing a better core.
func (r *Router) StartSource(group packet.GroupID) {
	if r.sources[group] {
		return
	}
	r.sources[group] = true
	if b := r.cores[group]; b != nil && b.core < r.ID() && r.coreFresh(b) {
		// A better core is alive: graft as a sender on its next announce,
		// and watch its liveness in case it dies (core failover).
		r.armFailover(group)
		return
	}
	r.StartFlood(group)
}

// StopSource stops sending to group, relinquishing the core role if held.
func (r *Router) StopSource(group packet.GroupID) {
	delete(r.sources, group)
	r.StopFlood(group)
}

func (r *Router) coreFresh(b *coreBinding) bool {
	return r.engine.Now() < b.lastHeard+coreTimeout
}

// Handle processes a received MCST packet. It reports whether the packet
// kind belonged to MCST.
func (r *Router) Handle(p *packet.Packet, from packet.NodeID) bool {
	switch p.Kind {
	case packet.TypeCoreAnnounce:
		// Members and suppressed senders graft onto the tree.
		if p.Src != r.ID() && r.adoptCore(p, from) {
			r.HandleFlood(p, from, r.sources[p.Group])
		}
	case packet.TypeTreeJoin:
		r.HandleGraft(p, from)
	case packet.TypeData:
		r.HandleData(p, from)
	default:
		return false
	}
	return true
}

// adoptCore updates the group's core binding for the announce p heard from
// neighbor from. It reports false when the announce is from a worse
// (higher-ID) core than a live adopted one and must be suppressed.
func (r *Router) adoptCore(p *packet.Packet, from packet.NodeID) bool {
	group, core := p.Group, p.Src
	now := r.engine.Now()
	acting := r.Originating(group)
	// While we act as core ourselves, only a strictly lower ID displaces us.
	if acting && core > r.ID() {
		return false
	}
	b := r.cores[group]
	switch {
	case b == nil || !r.coreFresh(b):
		if b != nil && b.core != core {
			r.CoreHandovers++
		}
		r.cores[group] = &coreBinding{core: core, lastHeard: now}
	case core == b.core:
		b.lastHeard = now
	case core < b.core:
		r.CoreHandovers++
		r.cores[group] = &coreBinding{core: core, lastHeard: now}
	default:
		return false // live better core already adopted
	}
	// A suppressed source steps down from the core role but keeps watching
	// the winner: if it goes silent, the source reclaims the role.
	if acting && core < r.ID() {
		r.StopFlood(group)
		r.Tracer.Span(trace.SpanCoreStepdown, r.ID(), from, p)
		if r.sources[group] {
			r.armFailover(group)
		}
	}
	return true
}

// armFailover schedules the core-liveness watchdog for a suppressed source:
// if the adopted core stays silent past coreTimeout, the source reclaims the
// core role and resumes announcing. At most one watchdog is pending per
// group; it re-arms itself while the core stays alive and disarms when this
// node stops sourcing or becomes core through another path.
func (r *Router) armFailover(group packet.GroupID) {
	if r.failover[group] {
		return
	}
	r.failover[group] = true
	r.engine.Schedule(coreTimeout, func() {
		delete(r.failover, group)
		if !r.sources[group] || r.Originating(group) {
			return
		}
		if b := r.cores[group]; b != nil && r.coreFresh(b) {
			r.armFailover(group)
			return
		}
		// In a trace the failover is the originate span of the announce
		// StartFlood sends at once.
		r.CoreHandovers++
		r.StartFlood(group)
	})
}
