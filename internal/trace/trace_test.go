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
