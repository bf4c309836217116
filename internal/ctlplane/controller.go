// Package ctlplane is the live testbed's HTTP/JSON control plane: a small
// API that exposes a running fleet's state (nodes, links, delivery stats,
// health) and accepts mutations — link impairment, partitions, node
// kill/restart, and whole fault-script injection — against it while it
// serves traffic.
//
// The package splits three ways: Controller is the behavior a backend
// exposes, Server maps it onto HTTP with validation, bounded request bodies,
// idempotent mutations, and load shedding, and Client is the reader
// meshstat -watch polls GET /stats with. There are two backends over one
// emu.Medium: MediumController is everything that can be said about and
// done to a medium alone (etherd's, bare), FleetController embeds it and
// adds the daemons — the roster check in front of link mutations, liveness,
// lifecycle and script injection.
//
// The package keeps no timer of its own: a request is answered from the
// backend's state, and what it reports of the run (uptime, event offsets)
// is read from the run's clock (CONTRIBUTING "One clock per run"). Windows
// over the cumulative counters are the poller's to compute.
package ctlplane

import (
	"encoding/json"
	"errors"
)

// ErrUnsupported marks an operation the backing controller cannot perform
// (e.g. killing a daemon etherd does not manage). The server maps it to
// 501 Not Implemented.
var ErrUnsupported = errors.New("ctlplane: operation not supported by this controller")

// RequestError is a caller mistake — a reference to an unknown node, an
// invalid fault script — mapped to 400 Bad Request rather than 500.
type RequestError struct{ Msg string }

func (e RequestError) Error() string { return e.Msg }

// Controller is the behavior the HTTP server exposes. Implementations must
// be safe for concurrent use; every method may be called from any request.
type Controller interface {
	// Nodes returns per-node liveness and lifecycle accounting.
	Nodes() []NodeState
	// Links returns the configured link profiles and active partition.
	Links() LinksState
	// Stats returns cumulative medium and delivery counters.
	Stats() Stats
	// Health classifies the backend as "ok" or "degraded" — the admission
	// control input.
	Health() Health

	// Impair replaces one directed (or symmetric) link profile.
	Impair(ImpairRequest) error
	// Partition installs or clears the medium partition mask.
	Partition(PartitionRequest) error
	// KillNode stops a managed daemon; recovery is the supervisor's job.
	KillNode(node int) error
	// RestartNode revives a killed daemon immediately.
	RestartNode(node int) error
	// InjectScript compiles a fault script and arms it against the running
	// backend, offset from the moment of injection.
	InjectScript(ScriptRequest) (ScriptResult, error)
}

// NodeState is one node as the control plane reports it.
type NodeState struct {
	ID    int  `json:"id"`
	Alive bool `json:"alive"`
	// Protocol is the multicast protocol the node's daemon runs (empty for
	// backends that do not manage daemons).
	Protocol string `json:"protocol,omitempty"`
	// Kills/Restarts/DowntimeSeconds carry the cross-generation lifecycle
	// ledger (always zero for backends that do not manage daemons).
	Kills           int     `json:"kills,omitempty"`
	Restarts        int     `json:"restarts,omitempty"`
	DowntimeSeconds float64 `json:"downtimeSeconds,omitempty"`
}

// LinkProfileState is a link profile in wire form (times in milliseconds).
type LinkProfileState struct {
	DF       float64 `json:"df"`
	DelayMS  float64 `json:"delayMs,omitempty"`
	JitterMS float64 `json:"jitterMs,omitempty"`
	DupProb  float64 `json:"dupProb,omitempty"`
}

// LinkState is one explicitly configured directed link.
type LinkState struct {
	From int `json:"from"`
	To   int `json:"to"`
	LinkProfileState
}

// LinksState is the full link-table view: default profile, explicit
// entries, and the active partition's side-A node IDs (empty when whole).
type LinksState struct {
	Default   LinkProfileState `json:"default"`
	Links     []LinkState      `json:"links"`
	Partition []int            `json:"partition,omitempty"`
}

// EtherCounters mirrors the medium's frame accounting.
type EtherCounters struct {
	FramesIn      uint64 `json:"framesIn"`
	FramesOut     uint64 `json:"framesOut"`
	FramesDropped uint64 `json:"framesDropped"`
	FramesDup     uint64 `json:"framesDup"`
	Registrations uint64 `json:"registrations"`
}

// Stats is the cumulative state a poller diffs to see the fleet move:
// Expected/Delivered are monotone delivery counters whose windowed deltas
// give a live PDR estimate.
type Stats struct {
	UptimeSeconds float64       `json:"uptimeSeconds"`
	EtherUp       bool          `json:"etherUp"`
	NodesAlive    int           `json:"nodesAlive"`
	NodesTotal    int           `json:"nodesTotal"`
	Expected      uint64        `json:"expected"`
	Delivered     uint64        `json:"delivered"`
	Ether         EtherCounters `json:"ether"`
}

// Health states.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

// Health is the admission-control verdict: degraded backends shed
// mutations (503 + Retry-After) until they recover.
type Health struct {
	Status        string  `json:"status"`
	EtherUp       bool    `json:"etherUp"`
	AliveFraction float64 `json:"aliveFraction"`
	Reason        string  `json:"reason,omitempty"`
	// Protocol is the multicast protocol the backend's daemons run (empty
	// for backends that do not manage daemons).
	Protocol string `json:"protocol,omitempty"`
}

// ImpairRequest replaces the profile of one directed link (both directions
// with Symmetric). DF is a pointer so "df": 0 — a dead link — is
// distinguishable from an omitted field, which is a validation error.
type ImpairRequest struct {
	From      int      `json:"from"`
	To        int      `json:"to"`
	DF        *float64 `json:"df"`
	DelayMS   float64  `json:"delayMs,omitempty"`
	JitterMS  float64  `json:"jitterMs,omitempty"`
	DupProb   float64  `json:"dupProb,omitempty"`
	Symmetric bool     `json:"symmetric,omitempty"`
}

// PartitionRequest installs a partition (SideA vs everyone else) or, with
// Clear, heals the active one.
type PartitionRequest struct {
	SideA []int `json:"sideA,omitempty"`
	Clear bool  `json:"clear,omitempty"`
}

// NodeRequest names the target of a kill or restart.
type NodeRequest struct {
	Node int `json:"node"`
}

// ScriptRequest injects a fault script (internal/faults JSON form) into the
// running backend. Script times are relative to the moment of injection;
// TimeScale maps virtual seconds to wall seconds (default 1).
type ScriptRequest struct {
	Script    json.RawMessage `json:"script"`
	TimeScale float64         `json:"timeScale,omitempty"`
	Seed      uint64          `json:"seed,omitempty"`
}

// ScriptResult reports what an accepted script compiled to.
type ScriptResult struct {
	// Events is the number of scheduled fault events.
	Events int `json:"events"`
	// SpanSeconds is the wall-clock span until the last event fires.
	SpanSeconds float64 `json:"spanSeconds"`
}
