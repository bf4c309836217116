// Package trace records packet journeys through a simulation run: every
// originated packet carries a trace ID, and the PHY, the MAC and the routing
// kernel emit one typed Span per step it takes. Sinks stream spans to a file,
// keep them in memory, or print them; Reconstruct stitches them back into
// forwarding trees. Tracing is pull-wired (components take a *Tracer that
// may be nil) so the hot path pays a single nil check when disabled.
package trace

import (
	"time"

	"meshcast/internal/packet"
)

// Tracer stamps spans with virtual time and hands them to a sink. A nil
// *Tracer is valid and discards everything, so components can hold one
// unconditionally.
type Tracer struct {
	now func() time.Duration
	// spans receives the span records; nil disables tracing.
	spans SpanSink
	// nextTraceID backs NewTraceID. Only touched from the single
	// simulation goroutine (or a single daemon's receive loop).
	nextTraceID uint64
}

// New creates a tracer feeding sink (nil disables tracing until SetSpanSink
// installs one). now supplies virtual time.
func New(sink SpanSink, now func() time.Duration) *Tracer {
	return &Tracer{spans: sink, now: now}
}

// SetSpanSink replaces the sink (nil disables tracing again).
func (t *Tracer) SetSpanSink(s SpanSink) {
	t.spans = s
}

// SpanEnabled reports whether span tracing is active. The nil receiver is
// valid, so hot paths pay one check.
func (t *Tracer) SpanEnabled() bool {
	return t != nil && t.spans != nil
}

// NewTraceID allocates a trace ID for a packet originated by node, or 0
// when span tracing is disabled (zero means "untraced" on the wire). The
// node occupies the high bits so IDs from independently-counting live
// daemons never collide.
func (t *Tracer) NewTraceID(node packet.NodeID) uint64 {
	if !t.SpanEnabled() {
		return 0
	}
	t.nextTraceID++
	return (uint64(node)+1)<<40 | t.nextTraceID
}

// Span records one journey step for the packet p. It is a no-op on a nil
// tracer, a disabled span sink, or an untraced packet (TraceID zero), and
// allocates nothing in those cases.
func (t *Tracer) Span(kind SpanKind, node, peer packet.NodeID, p *packet.Packet) {
	if t == nil || t.spans == nil || p == nil || p.TraceID == 0 {
		return
	}
	t.spans.EmitSpan(Span{
		At:      t.now(),
		Kind:    kind,
		TraceID: p.TraceID,
		Node:    node,
		Peer:    peer,
		PktKind: p.Kind,
		Group:   p.Group,
		Seq:     p.Seq,
		Hop:     p.HopCount,
	})
}
