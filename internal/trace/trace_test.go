package trace

import (
	"strings"
	"testing"
	"time"

	"meshcast/internal/packet"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Span(SpanMACTx, 1, 2, &packet.Packet{TraceID: 1}) // must not panic
	if tr.SpanEnabled() {
		t.Fatal("nil tracer reports spans enabled")
	}
	if id := tr.NewTraceID(3); id != 0 {
		t.Fatalf("nil tracer allocated trace ID %d, want 0", id)
	}
}

// TestSpanString pins the one text form of a span, the `meshsim -trace` line.
func TestSpanString(t *testing.T) {
	s := Span{At: 12345600 * time.Microsecond, Kind: SpanFlagSet, TraceID: 0xd0000000003, Node: 7, Peer: 12,
		PktKind: packet.TypeTreeJoin, Group: 1, Seq: 3, Hop: 2}
	const want = "   12.3456s n7    flag-set      TREE_JOIN grp=g1 seq=3 hop=2 from=n12 id=d0000000003"
	if got := s.String(); got != want {
		t.Fatalf("String() =\n%q, want\n%q", got, want)
	}
	if got := SpanKind(99).String(); got != "span(99)" || !strings.HasPrefix(SpanKind(0).String(), "span(") {
		t.Fatalf("unknown kinds render as %q and %q", got, SpanKind(0))
	}
}

// TestDecodeTakesOutcome drives the open decode: the first dup-suppress or
// deliver span for its node, peer and packet becomes its outcome; any other
// span, and any span once the decode is closed, is a span of its own. The
// record reaches the sink as the spans it stands for, once.
func TestDecodeTakesOutcome(t *testing.T) {
	buf := &SpanBuffer{}
	tr, now := spanTracer(buf)
	p := &packet.Packet{Kind: packet.TypeData, Group: 1, Seq: 4, HopCount: 2, TraceID: tr.NewTraceID(1)}
	f := &packet.Frame{Src: 1, Payload: p}
	var a Arrivals

	*now = 10 * time.Millisecond
	if !tr.Decode(&a, 2, f) {
		t.Fatal("traced frame not decoded into the record")
	}
	tr.Span(SpanDeliver, 2, 1, p)     // the outcome
	tr.Span(SpanDupSuppress, 2, 1, p) // a second one
	tr.Span(SpanForward, 2, 1, p)     // no outcome kind
	tr.EndDecode()
	*now = 11 * time.Millisecond
	tr.Decode(&a, 3, f)
	tr.Span(SpanDupSuppress, 4, 1, p) // another node
	tr.Span(SpanDupSuppress, 3, 9, p) // another peer
	tr.Span(SpanDupSuppress, 3, 1, &packet.Packet{Kind: packet.TypeData, TraceID: p.TraceID + 1})
	tr.EndDecode()
	tr.Span(SpanDeliver, 3, 1, p) // after the decode closed

	spans := buf.Spans()
	if len(spans) != 6 {
		t.Fatalf("%d spans before the record, want 6: %+v", len(spans), spans)
	}
	tr.EmitArrivals(&a)
	if len(a.Decodes) != 0 || cap(a.Decodes) == 0 {
		t.Fatalf("record after emission: %d decodes, capacity %d; want empty, capacity kept", len(a.Decodes), cap(a.Decodes))
	}
	tr.EmitArrivals(&a) // empty: nothing
	want := Arrivals{TraceID: p.TraceID, Peer: 1, PktKind: packet.TypeData, Group: 1, Seq: 4, Hop: 2,
		Decodes: []Decode{{At: 10 * time.Millisecond, Node: 2, Outcome: OutcomeDeliver}, {At: 11 * time.Millisecond, Node: 3}}}
	got := buf.Spans()[6:]
	wantSpans := want.AppendSpans(nil)
	if len(got) != len(wantSpans) {
		t.Fatalf("record emitted as %+v, want %+v", got, wantSpans)
	}
	for i := range wantSpans {
		if got[i] != wantSpans[i] {
			t.Fatalf("record span %d = %+v, want %+v", i, got[i], wantSpans[i])
		}
	}

	// Frames without a traced packet, a nil tracer and a sink-less one
	// collect nothing.
	var nilTracer *Tracer
	noSink := New(nil, func() time.Duration { return 0 })
	for _, c := range []struct {
		tr *Tracer
		f  *packet.Frame
	}{
		{tr, &packet.Frame{Src: 1}},
		{tr, &packet.Frame{Src: 1, Payload: &packet.Packet{}}},
		{nilTracer, f},
		{noSink, f},
	} {
		if c.tr.Decode(&a, 5, c.f) || len(a.Decodes) != 0 {
			t.Fatalf("Decode collected %+v on %+v", a.Decodes, c)
		}
	}
	nilTracer.EmitArrivals(&a)
}
