// Package trace provides lightweight structured event tracing for
// simulation runs: protocol and MAC components emit typed events, and
// sinks filter, count, or render them. Tracing is pull-wired (components
// take a *Tracer that may be nil) so the hot path pays a single nil check
// when disabled.
package trace

import (
	"fmt"
	"io"
	"time"

	"meshcast/internal/packet"
)

// Category classifies trace events.
type Category uint8

// Event categories.
const (
	// CatQuery covers JOIN QUERY origination and forwarding.
	CatQuery Category = iota + 1
	// CatReply covers JOIN REPLY traffic and FG transitions.
	CatReply
	// CatData covers data origination, forwarding and delivery.
	CatData
	// CatCore covers MCST CORE ANNOUNCE traffic, core election and
	// failover.
	CatCore
	// CatJoin covers MCST TREE JOIN traffic and tree-set transitions.
	CatJoin
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatQuery:
		return "QUERY"
	case CatReply:
		return "REPLY"
	case CatData:
		return "DATA"
	case CatCore:
		return "CORE"
	case CatJoin:
		return "JOIN"
	default:
		return fmt.Sprintf("CAT(%d)", uint8(c))
	}
}

// Event is one traced occurrence.
type Event struct {
	// At is the virtual time of the event.
	At time.Duration
	// Node is the node the event occurred on.
	Node packet.NodeID
	// Cat classifies the event.
	Cat Category
	// Msg is a short human-readable description.
	Msg string
}

// String implements fmt.Stringer: "12.3456s n7 QUERY forward seq=3".
func (e Event) String() string {
	return fmt.Sprintf("%10.4fs %-5v %-5v %s", e.At.Seconds(), e.Node, e.Cat, e.Msg)
}

// Sink consumes trace events. Implementations must be safe for use from the
// single simulation goroutine; the Tracer does not add locking around Emit.
type Sink interface {
	Emit(e Event)
}

// Tracer fans events out to a sink with category filtering. A nil *Tracer
// is valid and discards everything, so components can hold one
// unconditionally.
type Tracer struct {
	sink Sink
	mask uint16 // bit per category
	now  func() time.Duration

	// spans receives typed per-packet span records; nil disables span
	// tracing independently of event tracing.
	spans SpanSink
	// nextTraceID backs NewTraceID. Only touched from the single
	// simulation goroutine (or a single daemon's receive loop).
	nextTraceID uint64
}

// New creates a tracer feeding sink, enabled for the given categories (all
// categories when none are listed). A nil sink disables event tracing but
// still allows span tracing via SetSpanSink. now supplies virtual time.
func New(sink Sink, now func() time.Duration, cats ...Category) *Tracer {
	var mask uint16
	if sink != nil {
		if len(cats) == 0 {
			mask = ^uint16(0)
		}
		for _, c := range cats {
			mask |= 1 << c
		}
	}
	return &Tracer{sink: sink, mask: mask, now: now}
}

// Enabled reports whether a category is currently traced.
func (t *Tracer) Enabled(c Category) bool {
	return t != nil && t.mask&(1<<c) != 0
}

// Emit records an event for node in category c. It is a no-op on a nil
// tracer or a filtered category; the format string is only rendered when
// the event is kept.
func (t *Tracer) Emit(node packet.NodeID, c Category, format string, args ...any) {
	if !t.Enabled(c) {
		return
	}
	t.sink.Emit(Event{
		At:   t.now(),
		Node: node,
		Cat:  c,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// Writer is a Sink that renders events as lines to an io.Writer.
type Writer struct {
	W io.Writer
}

var _ Sink = Writer{}

// Emit implements Sink.
func (w Writer) Emit(e Event) {
	fmt.Fprintln(w.W, e.String())
}

// Buffer is a Sink that retains events in memory (bounded), for tests and
// post-run analysis. Like every Sink it runs on the single simulation
// goroutine, so it carries no locking; readers (Events, Dropped) are meant
// for after the run, or between events from that same goroutine. The drop
// count is exported through the telemetry registry as the "trace.dropped"
// gauge when a run records telemetry.
type Buffer struct {
	// Cap bounds retained events; 0 means unbounded.
	Cap int

	events []Event
	// dropped counts events discarded because the buffer was full.
	dropped uint64
}

var _ Sink = (*Buffer)(nil)

// Emit implements Sink.
func (b *Buffer) Emit(e Event) {
	if b.Cap > 0 && len(b.events) >= b.Cap {
		b.dropped++
		return
	}
	b.events = append(b.events, e)
}

// Events returns a snapshot of the retained events.
func (b *Buffer) Events() []Event {
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// Dropped returns the number of discarded events.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// CountByCategory tallies retained events per category.
func (b *Buffer) CountByCategory() map[Category]int {
	out := make(map[Category]int)
	for _, e := range b.events {
		out[e.Cat]++
	}
	return out
}
