// Package multicast defines the protocol-agnostic multicast plane: the
// Protocol interface every multicast routing protocol implements, the
// registry that maps protocol names to factories, and the flood-round kernel
// the in-tree protocols embed (kernel.go): per-(group, origin) rounds with
// best-cost upstream tracking, the δ graft timer and α re-flood window,
// reverse-path grafts and forwarder flags, the data plane with its
// duplicate-suppression window, and the common counters.
//
// The kernel's jittered sends — a relayed data copy, a relayed flood copy, a
// graft — are each one pending-send record: the packet, the previous hop,
// what to count once the MAC accepts it and, for a graft, the round it
// answers. The kernel recycles the records and the engine fires them
// through sim.Engine.ScheduleArgPooled, so relaying a copy allocates only
// the copy.
//
// The node assembly, traffic generators, experiment harness, and live
// testbed all depend only on this package; concrete protocols (mesh-based
// ODMRP in internal/odmrp, the core-based shared tree in internal/mcst)
// register themselves by name and are selected per run.
package multicast

import (
	"fmt"
	"strconv"
	"strings"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/trace"
)

// Edge is a directed link used by delivered or forwarded data, for
// tree/mesh analysis (paper Figure 5).
type Edge struct {
	From, To packet.NodeID
}

// MarshalText renders the edge as "from>to" in decimal node IDs, which lets
// a map keyed by Edge be a JSON object (encoding/json sorts text keys, so
// the output is deterministic).
func (e Edge) MarshalText() ([]byte, error) {
	b := strconv.AppendUint(nil, uint64(e.From), 10)
	b = append(b, '>')
	return strconv.AppendUint(b, uint64(e.To), 10), nil
}

// UnmarshalText parses the "from>to" form.
func (e *Edge) UnmarshalText(text []byte) error {
	from, to, ok := strings.Cut(string(text), ">")
	if !ok {
		return fmt.Errorf("multicast: edge %q is not from>to", text)
	}
	f, err := strconv.ParseUint(from, 10, 16)
	if err != nil {
		return fmt.Errorf("multicast: edge %q: %w", text, err)
	}
	t, err := strconv.ParseUint(to, 10, 16)
	if err != nil {
		return fmt.Errorf("multicast: edge %q: %w", text, err)
	}
	e.From, e.To = packet.NodeID(f), packet.NodeID(t)
	return nil
}

// Stats is the counter set every protocol maintains, in the kernel's
// vocabulary: a flood is the protocol's route-establishment broadcast (JOIN
// QUERY, CORE ANNOUNCE), a graft its reverse-path answer (JOIN REPLY, TREE
// JOIN). It is the common currency the experiment layers aggregate.
type Stats struct {
	// FloodsOriginated / FloodsForwarded count floods this node started
	// and first copies it rebroadcast; DupFloodsForwarded counts improving
	// duplicates re-flooded within α.
	FloodsOriginated   uint64
	FloodsForwarded    uint64
	DupFloodsForwarded uint64
	// GraftsSent counts grafts sent, own and propagated.
	GraftsSent uint64
	// ControlBytesSent counts control-plane bytes handed to the MAC.
	ControlBytesSent uint64
	// DataOriginated / DataForwarded / DataDelivered count data-plane
	// activity at this node.
	DataOriginated uint64
	DataForwarded  uint64
	DataDelivered  uint64
	// DataDuplicates counts data copies dropped by the duplicate window.
	DataDuplicates uint64
}

// Protocol is one node's multicast routing instance. Implementations are
// single-goroutine (driven by the sim engine or a daemon loop) and hold
// only soft state besides group membership and sequence counters.
type Protocol interface {
	// Name returns the registered protocol name (e.g. "odmrp", "mcst").
	Name() string
	// ID returns the node ID.
	ID() packet.NodeID
	// Metric returns the path metric routing decisions are weighted by.
	Metric() metric.PathMetric

	// JoinGroup / LeaveGroup / IsMember manage receiver membership.
	JoinGroup(group packet.GroupID)
	LeaveGroup(group packet.GroupID)
	IsMember(group packet.GroupID) bool
	// IsForwarder reports whether this node currently relays data for
	// group (FG flag for mesh protocols, on-tree flag for tree protocols).
	IsForwarder(group packet.GroupID) bool

	// StartSource registers this node as an active source for group,
	// beginning the protocol's route-establishment activity (query floods,
	// core announces). StopSource halts it.
	StartSource(group packet.GroupID)
	StopSource(group packet.GroupID)
	// SendData multicasts one application payload of payloadBytes to group.
	SendData(group packet.GroupID, payloadBytes int)

	// Handle processes a received packet, reporting whether the packet
	// kind belonged to this protocol.
	Handle(p *packet.Packet, from packet.NodeID) bool
	// Reset purges all soft state, modeling a node crash (Fail/Restore
	// lifecycle). Group membership and sequence counters survive; active
	// sources must be re-registered via StartSource.
	Reset()

	// SetSend installs the broadcast function (the node's MAC).
	SetSend(send func(p *packet.Packet) bool)
	// SetOnDeliver installs the member delivery callback (first copy only).
	SetOnDeliver(fn func(p *packet.Packet, from packet.NodeID))
	// SetTracer installs the packet-journey span tracer (nil disables).
	SetTracer(t *trace.Tracer)

	// Counters returns the protocol-independent counter snapshot.
	Counters() Stats
	// EdgeUse returns a copy of the per-link data usage counters.
	EdgeUse() map[Edge]uint64
	// RoundCount returns the number of live route-establishment rounds —
	// the protocol's main soft-state table, exposed for state-size gauges.
	RoundCount() int
	// DupWindowCount returns the number of duplicate windows held.
	DupWindowCount() int
}
