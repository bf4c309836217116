// Package trace records packet journeys through a simulation run: every
// originated packet carries a trace ID, and the PHY, the MAC and the routing
// kernel emit one typed Span per step it takes. The steps a broadcast causes
// at each of its receivers are the exception: the PHY collects a frame's
// decodes in one phy-arrive record (Arrivals), and the dup-suppress or deliver
// span the routing layer emits while a decode is open becomes that receiver's
// outcome in the record. A sink gets the record once, when the frame has left
// the air; the JSONL file holds it as one line, and ReadSpans and every
// in-process sink see the spans it stands for. Sinks stream spans to a file,
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
	// open is the record whose last decode is open (Decode), nil when none
	// is.
	open *Arrivals
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
// allocates nothing in those cases. A dup-suppress or deliver span for the
// node, peer and packet of the open decode becomes that decode's outcome, once.
func (t *Tracer) Span(kind SpanKind, node, peer packet.NodeID, p *packet.Packet) {
	if t == nil || t.spans == nil || p == nil || p.TraceID == 0 {
		return
	}
	if a := t.open; a != nil && (kind == SpanDupSuppress || kind == SpanDeliver) &&
		p.TraceID == a.TraceID && peer == a.Peer {
		if d := &a.Decodes[len(a.Decodes)-1]; d.Node == node && d.Outcome == OutcomeNone {
			d.Outcome = OutcomeDupSuppress
			if kind == SpanDeliver {
				d.Outcome = OutcomeDeliver
			}
			return
		}
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

// Decode appends node's decode, now, of frame f to f's record a, and holds it
// open until EndDecode: the receiver's routing-layer outcome lands in it
// (Span). It reports whether it did, which it does not on a nil tracer, a
// disabled span sink or a frame without a traced packet. The first decode
// fills in the record's packet fields.
func (t *Tracer) Decode(a *Arrivals, node packet.NodeID, f *packet.Frame) bool {
	return t != nil && t.decode(a, node, f)
}

// decode is Decode on a tracer, out of line so that Decode inlines to a nil
// check.
func (t *Tracer) decode(a *Arrivals, node packet.NodeID, f *packet.Frame) bool {
	if t.spans == nil || f.Payload == nil || f.Payload.TraceID == 0 {
		return false
	}
	if len(a.Decodes) == 0 {
		p := f.Payload
		a.TraceID, a.Peer, a.PktKind, a.Group, a.Seq, a.Hop = p.TraceID, f.Src, p.Kind, p.Group, p.Seq, p.HopCount
	}
	a.Decodes = append(a.Decodes, Decode{At: t.now(), Node: node})
	t.open = a
	return true
}

// EndDecode closes the open decode.
func (t *Tracer) EndDecode() { t.open = nil }

// EmitArrivals hands a record holding decodes to the sink, when spans are
// enabled, and empties it for the next frame; its Decodes keep their
// capacity.
func (t *Tracer) EmitArrivals(a *Arrivals) {
	if len(a.Decodes) == 0 {
		return
	}
	if t.SpanEnabled() {
		t.spans.EmitArrivals(a)
	}
	a.Decodes = a.Decodes[:0]
}
