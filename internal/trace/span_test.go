package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"meshcast/internal/packet"
)

func spanTracer(sink SpanSink) (*Tracer, *time.Duration) {
	now := new(time.Duration)
	return New(sink, func() time.Duration { return *now }), now
}

func TestSpanNilSafety(t *testing.T) {
	p := &packet.Packet{TraceID: 1}
	// A tracer without a span sink behaves like a nil tracer, also after
	// its sink is taken away again.
	noSink := New(&SpanBuffer{}, func() time.Duration { return 0 })
	noSink.SetSpanSink(nil)
	noSink.Span(SpanMACTx, 1, 2, p)
	if noSink.SpanEnabled() {
		t.Fatal("sink-less tracer reports spans enabled")
	}
	if id := noSink.NewTraceID(3); id != 0 {
		t.Fatalf("sink-less tracer allocated trace ID %d, want 0", id)
	}

	// Nil packets (control frames) and untraced packets are discarded.
	buf := &SpanBuffer{}
	traced, _ := spanTracer(buf)
	traced.Span(SpanPhyArrive, 1, 2, nil)
	traced.Span(SpanMACTx, 1, 2, &packet.Packet{})
	if n := len(buf.Spans()); n != 0 {
		t.Fatalf("untraced packets emitted %d spans, want 0", n)
	}
}

// TestSpanDisabledPathAllocationFree pins the acceptance bar: with span
// tracing off, every instrumentation call is a nil check.
func TestSpanDisabledPathAllocationFree(t *testing.T) {
	var nilTracer *Tracer
	noSink := New(nil, func() time.Duration { return 0 })
	p := &packet.Packet{TraceID: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		nilTracer.Span(SpanForward, 1, 2, p)
		noSink.Span(SpanForward, 1, 2, p)
		nilTracer.NewTraceID(1)
		noSink.NewTraceID(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f per op, want 0", allocs)
	}
}

func TestNewTraceIDUniqueAcrossNodes(t *testing.T) {
	tr, _ := spanTracer(&SpanBuffer{})
	seen := map[uint64]bool{}
	for node := packet.NodeID(0); node < 3; node++ {
		for i := 0; i < 4; i++ {
			id := tr.NewTraceID(node)
			if id == 0 {
				t.Fatal("enabled tracer returned zero trace ID")
			}
			if seen[id] {
				t.Fatalf("trace ID %x repeated", id)
			}
			seen[id] = true
			if got := packet.NodeID(id>>40) - 1; got != node {
				t.Fatalf("trace ID %x encodes node %d, want %d", id, got, node)
			}
		}
	}

	// Two tracers on different daemons must not collide either: the node
	// component differs even when counters align.
	other, _ := spanTracer(&SpanBuffer{})
	if id := other.NewTraceID(7); seen[id] {
		t.Fatalf("cross-tracer trace ID %x collided", id)
	}
}

func TestSpanEmission(t *testing.T) {
	buf := &SpanBuffer{}
	tr, now := spanTracer(buf)
	p := &packet.Packet{Kind: packet.TypeData, Group: 2, Seq: 9, HopCount: 3, TraceID: tr.NewTraceID(5)}
	*now = 42 * time.Millisecond
	tr.Span(SpanForward, 6, 5, p)

	spans := buf.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Kind != SpanForward || s.Node != 6 || s.Peer != 5 || s.TraceID != p.TraceID ||
		s.PktKind != packet.TypeData || s.Group != 2 || s.Seq != 9 || s.Hop != 3 ||
		s.At != 42*time.Millisecond {
		t.Fatalf("span = %+v", s)
	}
}

func TestSpanJSONLRoundTrip(t *testing.T) {
	var out bytes.Buffer
	w := NewSpanJSONLWriter(&out)
	want := []Span{
		{At: 1500 * time.Millisecond, Kind: SpanOriginate, TraceID: 0x42, Node: 3, Peer: 3,
			PktKind: packet.TypeData, Group: 2, Seq: 17, Hop: 0},
		{At: 1503 * time.Millisecond, Kind: SpanPhyArrive, TraceID: 0x42, Node: 4, Peer: 3,
			PktKind: packet.TypeData, Group: 2, Seq: 17, Hop: 1},
		{At: 1600 * time.Millisecond, Kind: SpanDeliver, TraceID: 0x42, Node: 4, Peer: 4,
			PktKind: packet.TypeTreeJoin, Group: 2, Seq: 17, Hop: 2},
		{At: 1601 * time.Millisecond, Kind: SpanFlagSet, TraceID: 0x43, Node: 5, Peer: 4,
			PktKind: packet.TypeTreeJoin, Group: 2, Seq: 17, Hop: 0},
		{At: 1602 * time.Millisecond, Kind: SpanCoreStepdown, TraceID: 0x44, Node: 6, Peer: 5,
			PktKind: packet.TypeCoreAnnounce, Group: 2, Seq: 18, Hop: 1},
	}
	for _, s := range want {
		w.EmitSpan(s)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadSpans(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSpanJSONLRoundTripExactNanoseconds pins that a span time survives the
// file to the nanosecond: random instants up to two hours, and the instant
// ISSUE 17 cites as read back one nanosecond early.
func TestSpanJSONLRoundTripExactNanoseconds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	instants := []time.Duration{271211445515, 0, 1, 2 * time.Hour}
	for len(instants) < 20000 {
		instants = append(instants, time.Duration(rng.Int63n(int64(2*time.Hour))))
	}
	var out bytes.Buffer
	w := NewSpanJSONLWriter(&out)
	for _, at := range instants {
		w.EmitSpan(Span{At: at, Kind: SpanMACTx, TraceID: 1, PktKind: packet.TypeData})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpans(&out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(instants) {
		t.Fatalf("round-tripped %d spans, want %d", len(got), len(instants))
	}
	for i, at := range instants {
		if got[i].At != at {
			t.Fatalf("instant %d ns read back as %d ns", at, got[i].At)
		}
	}
}

// TestSpanJSONLWriterAllocationFree runs long enough to cross several buffer
// hand-offs (io.Discard allocates nothing itself).
func TestSpanJSONLWriterAllocationFree(t *testing.T) {
	w := NewSpanJSONLWriter(io.Discard)
	s := Span{At: 271211445515, Kind: SpanPhyArrive, TraceID: 6<<40 | 99, Node: 7, Peer: 5,
		PktKind: packet.TypeJoinQuery, Group: 2, Seq: 1234, Hop: 3}
	w.EmitSpan(s)
	if allocs := testing.AllocsPerRun(5000, func() { w.EmitSpan(s) }); allocs != 0 {
		t.Fatalf("EmitSpan allocates %.2f per span, want 0", allocs)
	}
}

// TestSpanJSONLLineMatchesSchema checks the hand-written line against
// encoding/json: every kind, every packet type and the extreme field values
// unmarshal into the spanRecord the reflecting encoder used to be given, with
// the keys in schema order and one line per span.
func TestSpanJSONLLineMatchesSchema(t *testing.T) {
	spans := schemaSpans()
	var out bytes.Buffer
	w := NewSpanJSONLWriter(&out)
	for _, s := range spans {
		w.EmitSpan(s)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(out.String(), "\n")
	if last := len(lines) - 1; lines[last] != "" {
		t.Fatalf("output does not end in a newline: %q", lines[last])
	} else {
		lines = lines[:last]
	}
	if len(lines) != len(spans) {
		t.Fatalf("%d lines for %d spans", len(lines), len(spans))
	}
	for i, s := range spans {
		want := spanRecord{T: s.At.Seconds(), Kind: s.Kind.String(), ID: s.TraceID,
			Node: uint16(s.Node), Peer: uint16(s.Peer), Pkt: s.PktKind.String(),
			Grp: uint16(s.Group), Seq: s.Seq, Hop: s.Hop}
		var got spanRecord
		dec := json.NewDecoder(strings.NewReader(lines[i]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("line %q: %v", lines[i], err)
		}
		// Duration.Seconds is not correctly rounded, so the exact decimal may
		// parse to a neighbouring float64; the round-trip test pins exactness.
		if math.Abs(got.T-want.T) > 1e-15*math.Abs(want.T) {
			t.Fatalf("line %q has t = %v, want %v", lines[i], got.T, want.T)
		}
		got.T = want.T
		if got != want {
			t.Fatalf("line %q decodes to %+v, want %+v", lines[i], got, want)
		}
		// Same keys in the same order as the reflecting encoder wrote them:
		// re-encoding the record differs from the line only in how t is spelt.
		enc, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if afterT(lines[i]) != afterT(string(enc)+"\n") {
			t.Fatalf("line %q, want the fields of %s", lines[i], enc)
		}
	}
}

// schemaSpans are the spans whose lines TestSpanJSONLLineMatchesSchema checks:
// every kind against every packet type, and extreme field values at extreme
// instants.
func schemaSpans() []Span {
	var spans []Span
	for k := SpanOriginate; k <= SpanDeliver; k++ {
		for p := packet.TypeData; p <= packet.TypeTreeJoin; p++ {
			spans = append(spans, Span{At: 1503 * time.Millisecond, Kind: k, TraceID: 0x42,
				Node: 4, Peer: 3, PktKind: p, Group: 2, Seq: 17, Hop: 1})
		}
	}
	extreme := Span{Kind: SpanForward, TraceID: math.MaxUint64, Node: 65535, Peer: 65535,
		PktKind: packet.TypeCoreAnnounce, Group: 65535, Seq: math.MaxUint32, Hop: 255}
	for _, at := range []time.Duration{0, 1, 10, 999999999, time.Second, 1000000001,
		300 * time.Second, time.Hour + 1, math.MaxInt64, -1500 * time.Millisecond} {
		extreme.At = at
		spans = append(spans, extreme, Span{At: at, Kind: SpanOriginate, PktKind: packet.TypeData})
	}
	return spans
}

// afterT cuts a span line's leading {"t":<number> off.
func afterT(line string) string {
	return line[strings.Index(line, `,"kind"`):]
}

func TestSpanJSONLTimeIsExactDecimal(t *testing.T) {
	for at, want := range map[time.Duration]string{
		0:                        "0",
		1:                        "0.000000001",
		1500 * time.Millisecond:  "1.5",
		271211445515:             "271.211445515",
		2 * time.Hour:            "7200",
		time.Second + 10:         "1.00000001",
		-1500 * time.Millisecond: "-1.5",
	} {
		if got := string(appendSeconds(nil, at)); got != want {
			t.Errorf("appendSeconds(%d ns) = %s, want %s", at, got, want)
		}
	}
}

// TestReadSpansParentFormat reads three lines as the reflecting encoder wrote
// them before ISSUE 17 (t through a float64, including its exponent form).
func TestReadSpansParentFormat(t *testing.T) {
	const file = `{"t":271.211445515,"kind":"phy-arrive","id":7696581394433,"node":12,"peer":6,"pkt":"DATA","grp":1,"seq":4012,"hop":0}
{"t":1e-09,"kind":"originate","id":1099511627777,"node":0,"peer":0,"pkt":"JOIN_QUERY","grp":2,"seq":1,"hop":0}
{"t":20.000448,"kind":"mac-tx","id":1099511627778,"node":49,"peer":49,"pkt":"TREE_JOIN","grp":1,"seq":3,"hop":4}
`
	want := []Span{
		{At: 271211445515, Kind: SpanPhyArrive, TraceID: 7696581394433, Node: 12, Peer: 6,
			PktKind: packet.TypeData, Group: 1, Seq: 4012},
		{At: 1, Kind: SpanOriginate, TraceID: 1099511627777, PktKind: packet.TypeJoinQuery, Group: 2, Seq: 1},
		{At: 20000448 * time.Microsecond, Kind: SpanMACTx, TraceID: 1099511627778, Node: 49, Peer: 49,
			PktKind: packet.TypeTreeJoin, Group: 1, Seq: 3, Hop: 4},
	}
	got, err := ReadSpans(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadSpansRejectsUnknownNames(t *testing.T) {
	const good = `{"t":1,"kind":"mac-tx","id":1,"node":0,"peer":0,"pkt":"DATA","grp":1,"seq":1,"hop":0}` + "\n"
	for bad, want := range map[string]string{
		`{"t":1,"kind":"mac-tx","id":1,"node":0,"peer":0,"pkt":"DATUM","grp":1,"seq":1,"hop":0}`:    `record 1: unknown pkt "DATUM"`,
		`{"t":1,"kind":"teleport","id":1,"node":0,"peer":0,"pkt":"DATA","grp":1,"seq":1,"hop":0}`:   `record 1: unknown kind "teleport"`,
		`{"t":1e10,"kind":"mac-tx","id":1,"node":0,"peer":0,"pkt":"DATA","grp":1,"seq":1,"hop":0}`:  `record 1: t out of range`,
		`{"t":-1e10,"kind":"mac-tx","id":1,"node":0,"peer":0,"pkt":"DATA","grp":1,"seq":1,"hop":0}`: `record 1: t out of range`,
		`{"t":1e300,"kind":"mac-tx","id":1,"node":0,"peer":0,"pkt":"DATA","grp":1,"seq":1,"hop":0}`: `record 1: t out of range`,
	} {
		got, err := ReadSpans(strings.NewReader(good + bad + "\n"))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadSpans error = %v, want it to contain %q", err, want)
		}
		if len(got) != 1 {
			t.Errorf("ReadSpans kept %d spans before the bad record, want 1", len(got))
		}
	}
}

// failAfter accepts ok writes, then fails every later one.
type failAfter struct {
	ok     int
	writes [][]byte
}

var errSinkFull = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(f.writes) >= f.ok {
		return 0, errSinkFull
	}
	f.writes = append(f.writes, append([]byte(nil), p...))
	return len(p), nil
}

func TestSpanJSONLWriterStickyError(t *testing.T) {
	s := Span{At: time.Second, Kind: SpanMACTx, TraceID: 1, PktKind: packet.TypeData}

	// A span still buffered at Flush reaches the writer, in one write.
	sink := &failAfter{ok: 1}
	w := NewSpanJSONLWriter(sink)
	w.EmitSpan(s)
	if len(sink.writes) != 0 {
		t.Fatalf("one span caused %d writes before Flush, want 0", len(sink.writes))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.writes) != 1 || bytes.Count(sink.writes[0], []byte{'\n'}) != 1 {
		t.Fatalf("Flush wrote %q, want one line", sink.writes)
	}
	if err := w.Flush(); err != nil || len(sink.writes) != 1 {
		t.Fatalf("Flush of an empty buffer: err %v, %d writes", err, len(sink.writes))
	}

	// The second hand-off fails: the error sticks, EmitSpan stops buffering
	// and writing, and Flush keeps returning that first error.
	for i := 0; len(sink.writes) == 1 && w.err == nil; i++ {
		if i > 2*spanFlushAt {
			t.Fatal("buffer never handed off")
		}
		w.EmitSpan(s)
	}
	if !errors.Is(w.err, errSinkFull) {
		t.Fatalf("writer error = %v, want %v", w.err, errSinkFull)
	}
	sink.ok = 10 // the sink recovering must not revive the writer
	for i := 0; i < 3; i++ {
		w.EmitSpan(s)
	}
	if len(w.buf) != 0 || len(sink.writes) != 1 {
		t.Fatalf("after the error: %d bytes buffered, %d writes; want 0 and 1", len(w.buf), len(sink.writes))
	}
	for i := 0; i < 2; i++ {
		if err := w.Flush(); !errors.Is(err, errSinkFull) {
			t.Fatalf("Flush = %v, want %v", err, errSinkFull)
		}
	}
}

// TestSpanJSONLWriterHandsOffWholeLines pins the buffer discipline: writes
// arrive in chunks of about spanFlushAt bytes, each ending on a line boundary,
// and the buffer never outgrows its first allocation.
func TestSpanJSONLWriterHandsOffWholeLines(t *testing.T) {
	sink := &failAfter{ok: math.MaxInt}
	w := NewSpanJSONLWriter(sink)
	capBefore := cap(w.buf)
	s := Span{At: math.MaxInt64, Kind: SpanDupSuppress, TraceID: math.MaxUint64, Node: 65535, Peer: 65535,
		PktKind: packet.TypeCoreAnnounce, Group: 65535, Seq: math.MaxUint32, Hop: 255}
	const n = 2000
	for i := 0; i < n; i++ {
		w.EmitSpan(s)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) != capBefore {
		t.Fatalf("buffer grew from %d to %d bytes", capBefore, cap(w.buf))
	}
	lines := 0
	for i, chunk := range sink.writes {
		if chunk[len(chunk)-1] != '\n' {
			t.Fatalf("write %d ends mid-line", i)
		}
		if i < len(sink.writes)-1 && (len(chunk) < spanFlushAt || len(chunk) >= spanFlushAt+spanLineMax) {
			t.Fatalf("write %d is %d bytes, want [%d, %d)", i, len(chunk), spanFlushAt, spanFlushAt+spanLineMax)
		}
		lines += bytes.Count(chunk, []byte{'\n'})
	}
	if lines != n || len(sink.writes) < 2 {
		t.Fatalf("%d lines in %d writes, want %d lines in several writes", lines, len(sink.writes), n)
	}
}

// buildJourneySpans fabricates one packet's life: 0 originates, floods to
// 1 and 2, 1 relays to 3 (delivered there), 2 suppresses a duplicate, and
// one transmission from 3 dies in the air.
func buildJourneySpans() []Span {
	id := uint64(0x99)
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	mk := func(kind SpanKind, t time.Duration, node, peer packet.NodeID, hop uint8) Span {
		return Span{At: t, Kind: kind, TraceID: id, Node: node, Peer: peer,
			PktKind: packet.TypeData, Group: 1, Seq: 5, Hop: hop}
	}
	return []Span{
		mk(SpanOriginate, at(10), 0, 0, 0),
		mk(SpanMACTx, at(11), 0, 0, 0),
		mk(SpanPhyArrive, at(13), 1, 0, 0),
		mk(SpanPhyArrive, at(13), 2, 0, 0),
		mk(SpanForward, at(13), 1, 0, 0),
		mk(SpanMACTx, at(14), 1, 1, 1),
		mk(SpanPhyArrive, at(16), 3, 1, 1),
		mk(SpanPhyArrive, at(16), 2, 1, 1),
		mk(SpanDupSuppress, at(16), 2, 1, 1),
		mk(SpanDeliver, at(16), 3, 3, 1),
		mk(SpanMACTx, at(17), 3, 3, 2), // never heard: lost in the air
	}
}

func TestReconstructJourney(t *testing.T) {
	// The two kinds that record a protocol state change on a packet's way
	// are not journey steps: with them in, every count below is unchanged.
	spans := append(buildJourneySpans(),
		Span{At: 15 * time.Millisecond, Kind: SpanFlagSet, TraceID: 0x99, Node: 2, Peer: 1, PktKind: packet.TypeData, Group: 1, Seq: 5},
		Span{At: 15 * time.Millisecond, Kind: SpanCoreStepdown, TraceID: 0x99, Node: 2, Peer: 1, PktKind: packet.TypeData, Group: 1, Seq: 5})
	js := Reconstruct(spans)
	if len(js) != 1 {
		t.Fatalf("got %d journeys, want 1", len(js))
	}
	j := js[0]
	if j.Origin != 0 || j.OriginAt != 10*time.Millisecond {
		t.Fatalf("origin %d @ %v", j.Origin, j.OriginAt)
	}
	if j.TxCount != 3 || j.LostTx != 1 || j.Forwards != 1 || j.DupSuppressed != 1 {
		t.Fatalf("tx=%d lost=%d fwd=%d dup=%d", j.TxCount, j.LostTx, j.Forwards, j.DupSuppressed)
	}
	if len(j.Hops) != 4 {
		t.Fatalf("got %d hops, want 4", len(j.Hops))
	}
	// The 1->3 hop pairs the arrival with node 1's transmission at 14 ms.
	var hop13 *Hop
	for i := range j.Hops {
		if j.Hops[i].From == 1 && j.Hops[i].To == 3 {
			hop13 = &j.Hops[i]
		}
	}
	if hop13 == nil {
		t.Fatal("no 1->3 hop reconstructed")
	}
	if hop13.TxAt != 14*time.Millisecond || hop13.Latency != 2*time.Millisecond {
		t.Fatalf("1->3 hop tx %v latency %v, want 14ms / 2ms", hop13.TxAt, hop13.Latency)
	}
	if len(j.Deliveries) != 1 || j.Deliveries[0].Node != 3 ||
		j.Deliveries[0].Latency != 6*time.Millisecond {
		t.Fatalf("deliveries = %+v", j.Deliveries)
	}
	if !j.Complete() {
		t.Fatal("journey with a connected tree reports incomplete")
	}
	if j.Losses() != 1 {
		t.Fatalf("losses = %d, want 1", j.Losses())
	}
}

func TestJourneyIncompleteWhenDeliveryUnexplained(t *testing.T) {
	spans := buildJourneySpans()
	// A delivery at a node no reconstructed edge reaches.
	spans = append(spans, Span{At: 20 * time.Millisecond, Kind: SpanDeliver,
		TraceID: 0x99, Node: 9, Peer: 9, PktKind: packet.TypeData, Group: 1, Seq: 5})
	js := Reconstruct(spans)
	if len(js) != 1 {
		t.Fatalf("got %d journeys, want 1", len(js))
	}
	if js[0].Complete() {
		t.Fatal("journey with an unexplained delivery reports complete")
	}
}

func TestReconstructOrdersByOrigination(t *testing.T) {
	mk := func(id uint64, at time.Duration) Span {
		return Span{At: at, Kind: SpanOriginate, TraceID: id, Node: 1, Peer: 1, PktKind: packet.TypeData}
	}
	js := Reconstruct([]Span{
		mk(7, 30*time.Millisecond),
		mk(5, 10*time.Millisecond),
		mk(6, 20*time.Millisecond),
		{At: 0, Kind: SpanMACTx}, // untraced: skipped
	})
	if len(js) != 3 {
		t.Fatalf("got %d journeys, want 3", len(js))
	}
	for i, want := range []uint64{5, 6, 7} {
		if js[i].TraceID != want {
			t.Fatalf("journey %d has trace ID %d, want %d", i, js[i].TraceID, want)
		}
	}
}

// testArrivals is a frame from node 3 that n receivers decoded 40 ns apart,
// every third delivering it and every third suppressing a duplicate.
func testArrivals(n int) *Arrivals {
	a := &Arrivals{TraceID: 4<<40 | 17, Peer: 3, PktKind: packet.TypeData, Group: 2, Seq: 17, Hop: 1}
	for i := 0; i < n; i++ {
		a.Decodes = append(a.Decodes, Decode{At: 1503*time.Millisecond + time.Duration(40*i),
			Node: packet.NodeID(10 + i), Outcome: Outcome(i % 3)})
	}
	return a
}

func TestArrivalsAppendSpans(t *testing.T) {
	a := testArrivals(3)
	s := Span{TraceID: a.TraceID, Peer: 3, PktKind: packet.TypeData, Group: 2, Seq: 17, Hop: 1}
	at := func(s Span, ns int, kind SpanKind, node packet.NodeID) Span {
		s.At, s.Kind, s.Node = 1503*time.Millisecond+time.Duration(ns), kind, node
		return s
	}
	want := []Span{
		at(s, 0, SpanPhyArrive, 10),
		at(s, 40, SpanPhyArrive, 11), at(s, 40, SpanDupSuppress, 11),
		at(s, 80, SpanPhyArrive, 12), at(s, 80, SpanDeliver, 12),
	}
	got := a.AppendSpans([]Span{{Kind: SpanMACTx}})
	if len(got) != 1+len(want) || got[0].Kind != SpanMACTx {
		t.Fatalf("AppendSpans = %+v", got)
	}
	for i := range want {
		if got[1+i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[1+i], want[i])
		}
	}
	buf := &SpanBuffer{}
	buf.EmitArrivals(a)
	if spans := buf.Spans(); len(spans) != len(want) || spans[4] != want[4] {
		t.Fatalf("SpanBuffer retains %+v", spans)
	}
}

// TestArrivalsJSONLRoundTrip writes a record between two spans: it is one
// line, with rx and without node, and reads back as the spans it stands for.
func TestArrivalsJSONLRoundTrip(t *testing.T) {
	var out bytes.Buffer
	w := NewSpanJSONLWriter(&out)
	a := testArrivals(3)
	before := Span{At: 1500 * time.Millisecond, Kind: SpanMACTx, TraceID: a.TraceID, Node: 3, Peer: 3,
		PktKind: packet.TypeData, Group: 2, Seq: 17, Hop: 1}
	after := before
	after.At, after.Kind = 1504*time.Millisecond, SpanOriginate
	w.EmitSpan(before)
	w.EmitArrivals(a)
	w.EmitArrivals(&Arrivals{}) // no decodes: no line
	w.EmitSpan(after)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	const record = `{"t":1.503,"kind":"phy-arrive","id":4398046511121,"peer":3,"pkt":"DATA","grp":2,"seq":17,"hop":1,"rx":[[10,0,0],[11,40,1],[12,80,2]]}`
	if len(lines) != 3 || lines[1] != record {
		t.Fatalf("lines = %q, want the record\n%s\nbetween two spans", lines, record)
	}
	got, err := ReadSpans(&out)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Span{before}, a.AppendSpans(nil)...), after)
	if len(got) != len(want) {
		t.Fatalf("read %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestReadSpansPerDecodeFile keeps a file from before the phy-arrive record,
// one line per decode and one per outcome, reading as the same spans as the
// record that replaces those lines.
func TestReadSpansPerDecodeFile(t *testing.T) {
	const perDecode = `{"t":1.503,"kind":"phy-arrive","id":4398046511121,"node":10,"peer":3,"pkt":"DATA","grp":2,"seq":17,"hop":1}
{"t":1.50300004,"kind":"phy-arrive","id":4398046511121,"node":11,"peer":3,"pkt":"DATA","grp":2,"seq":17,"hop":1}
{"t":1.50300004,"kind":"dup-suppress","id":4398046511121,"node":11,"peer":3,"pkt":"DATA","grp":2,"seq":17,"hop":1}
{"t":1.50300008,"kind":"phy-arrive","id":4398046511121,"node":12,"peer":3,"pkt":"DATA","grp":2,"seq":17,"hop":1}
{"t":1.50300008,"kind":"deliver","id":4398046511121,"node":12,"peer":3,"pkt":"DATA","grp":2,"seq":17,"hop":1}
`
	const record = `{"t":1.503,"kind":"phy-arrive","id":4398046511121,"peer":3,"pkt":"DATA","grp":2,"seq":17,"hop":1,"rx":[[10,0,0],[11,40,1],[12,80,2]]}
`
	old, err := ReadSpans(strings.NewReader(perDecode))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReadSpans(strings.NewReader(record))
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 5 || len(rec) != len(old) {
		t.Fatalf("%d spans per decode, %d from the record; want 5 each", len(old), len(rec))
	}
	for i := range old {
		if old[i] != rec[i] {
			t.Fatalf("span %d: %+v per decode, %+v from the record", i, old[i], rec[i])
		}
	}
}

// TestReadSpansRejectsBadRecords names the bad record by its line index and
// keeps the spans read before it.
func TestReadSpansRejectsBadRecords(t *testing.T) {
	const good = `{"t":1,"kind":"mac-tx","id":1,"node":3,"peer":3,"pkt":"DATA","grp":1,"seq":1,"hop":0}` + "\n"
	line := func(t, kind, rx string) string {
		return `{"t":` + t + `,"kind":"` + kind + `","id":1,"peer":3,"pkt":"DATA","grp":1,"seq":1,"hop":0,"rx":` + rx + "}\n"
	}
	for _, tc := range []struct{ line, want string }{
		{line("1", "phy-arrive", `5`), "record 1: json: cannot unmarshal number"},
		{line("1", "phy-arrive", `[5]`), "record 1: json: cannot unmarshal number"},
		{line("1", "phy-arrive", `{"node":5}`), "record 1: json: cannot unmarshal object"},
		{line("1", "phy-arrive", `[]`), "record 1: empty rx"},
		{line("1", "phy-arrive", `[[4,0]]`), "record 1: rx entry 0 is [4 0], not [node, offset, outcome]"},
		{line("1", "phy-arrive", `[[4,0,0,1]]`), "record 1: rx entry 0 is [4 0 0 1], not [node, offset, outcome]"},
		{line("1", "phy-arrive", `[[4,0,0],[65536,0,0]]`), "record 1: rx entry 1: node 65536 out of range"},
		{line("1", "phy-arrive", `[[-1,0,0]]`), "record 1: rx entry 0: node -1 out of range"},
		{line("1", "phy-arrive", `[[4,-1,0]]`), "record 1: rx entry 0: offset -1 ns out of range"},
		{line("1", "phy-arrive", `[[4,9223372036854775807,0]]`), "record 1: rx entry 0: offset 9223372036854775807 ns out of range"},
		{line("1", "phy-arrive", `[[4,1e3,0]]`), "record 1: json: cannot unmarshal number 1e3"},
		{line("1", "phy-arrive", `[[4,0,3]]`), "record 1: rx entry 0: unknown outcome 3"},
		{line("1", "phy-arrive", `[[4,0,-1]]`), "record 1: rx entry 0: unknown outcome -1"},
		{line("1", "deliver", `[[4,0,0]]`), "record 1: rx on a deliver line"},
		{line("1e10", "phy-arrive", `[[4,0,0]]`), "record 1: t out of range"},
	} {
		got, err := ReadSpans(strings.NewReader(good + tc.line))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ReadSpans error = %v, want it to contain %q", tc.line, err, tc.want)
		}
		if len(got) != 1 {
			t.Errorf("%s: ReadSpans kept %d spans before the bad record, want 1", tc.line, len(got))
		}
	}
	// A negative t takes any offset that keeps the sum in range.
	if spans, err := ReadSpans(strings.NewReader(line("-1", "phy-arrive", `[[4,9223372036854775807,0]]`))); err != nil || len(spans) != 1 {
		t.Fatalf("record at t = -1 s: %d spans, %v", len(spans), err)
	}
}

// TestSpanJSONLWriterRecordAllocationFree writes records too long for the
// writer's per-line slack (60 receivers, about 900 bytes) across several
// hand-offs: no allocation, the buffer never grows, and every write still
// ends on a line boundary.
func TestSpanJSONLWriterRecordAllocationFree(t *testing.T) {
	sink := &failAfter{ok: math.MaxInt}
	w := NewSpanJSONLWriter(sink)
	capBefore := cap(w.buf)
	a := testArrivals(60)
	w.EmitArrivals(a)
	if n := len(w.buf); n <= spanLineMax {
		t.Fatalf("a 60-receiver record is %d bytes, want it past the %d-byte slack", n, spanLineMax)
	}
	if allocs := testing.AllocsPerRun(500, func() { w.EmitArrivals(a) }); allocs != 0 {
		t.Fatalf("EmitArrivals allocates %.2f per record, want 0", allocs)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) != capBefore {
		t.Fatalf("buffer grew from %d to %d bytes", capBefore, cap(w.buf))
	}
	lines := 0
	for i, chunk := range sink.writes {
		if chunk[len(chunk)-1] != '\n' {
			t.Fatalf("write %d ends mid-line", i)
		}
		lines += bytes.Count(chunk, []byte{'\n'})
	}
	if lines != 502 || len(sink.writes) < 2 {
		t.Fatalf("%d lines in %d writes, want 502 in several", lines, len(sink.writes))
	}
}

// BenchmarkSpanRecord writes a ten-receiver phy-arrive record, about the
// decodes of one broadcast on the 50-node scenario.
func BenchmarkSpanRecord(b *testing.B) {
	w := NewSpanJSONLWriter(io.Discard)
	a := testArrivals(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.EmitArrivals(a)
	}
}
