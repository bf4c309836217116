package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"time"

	"meshcast/internal/packet"
)

// SpanKind classifies one step in a packet's journey through the stack.
type SpanKind uint8

// Span kinds, in rough lifecycle order.
const (
	// SpanOriginate marks a packet entering the network at its source.
	SpanOriginate SpanKind = iota + 1
	// SpanMACTx marks the MAC putting the packet on the air. A second one
	// for the same trace ID at the same node is a retransmission (ODMRP's
	// passive-ack JOIN REPLY retry).
	SpanMACTx
	// SpanMACDrop marks the MAC discarding the packet (queue overflow,
	// retry exhaustion).
	SpanMACDrop
	// SpanPhyArrive marks a radio decoding the packet off the air. The PHY
	// reports these per frame, in its phy-arrive record (Arrivals).
	SpanPhyArrive
	// SpanDupSuppress marks the routing layer discarding a duplicate. One
	// emitted during a decode is the decode's outcome in the frame's record.
	SpanDupSuppress
	// SpanForward marks a relay re-transmitting the packet.
	SpanForward
	// SpanDeliver marks delivery to a group member; like SpanDupSuppress, it
	// can be a decode's outcome.
	SpanDeliver
	// SpanFlagSet marks a graft (JOIN REPLY, TREE JOIN) raising the
	// forwarder flag of the node it names, off to on; refreshes of a flag
	// already set emit nothing.
	SpanFlagSet
	// SpanCoreStepdown marks an acting MCST core yielding to the lower-ID
	// core whose CORE ANNOUNCE this is.
	SpanCoreStepdown
)

// spanKindNames are the kinds' names in the JSONL schema and the text form.
var spanKindNames = [...]string{
	SpanOriginate:    "originate",
	SpanMACTx:        "mac-tx",
	SpanMACDrop:      "mac-drop",
	SpanPhyArrive:    "phy-arrive",
	SpanDupSuppress:  "dup-suppress",
	SpanForward:      "forward",
	SpanDeliver:      "deliver",
	SpanFlagSet:      "flag-set",
	SpanCoreStepdown: "core-stepdown",
}

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if k == 0 || int(k) >= len(spanKindNames) {
		return fmt.Sprintf("span(%d)", uint8(k))
	}
	return spanKindNames[k]
}

// Span is one typed step in a packet journey. Spans sharing a TraceID
// belong to the same originated packet; the journey reconstructor stitches
// them back into a forwarding tree.
type Span struct {
	// At is the virtual time of the step.
	At time.Duration
	// Kind classifies the step.
	Kind SpanKind
	// TraceID links the step to the originated packet (never zero).
	TraceID uint64
	// Node is where the step happened.
	Node packet.NodeID
	// Peer is the transmitting node (who we heard) for SpanPhyArrive and
	// the routing steps that follow a reception, and equals Node otherwise.
	Peer packet.NodeID
	// PktKind, Group, Seq and Hop snapshot the packet at this step.
	PktKind packet.Type
	Group   packet.GroupID
	Seq     uint32
	Hop     uint8
}

// String renders the span as one line of the `meshsim -trace` stream and of
// a flight-recorder dump: time, node, step, then the packet it happened to
// and the neighbor it came from (the node itself where there is none):
//
//	20.0312s n7    flag-set      TREE_JOIN grp=g1 seq=0 hop=0 from=n12 id=d0000000003
func (s Span) String() string {
	return fmt.Sprintf("%10.4fs %-5v %-13v %v grp=%v seq=%d hop=%d from=%v id=%x",
		s.At.Seconds(), s.Node, s.Kind, s.PktKind, s.Group, s.Seq, s.Hop, s.Peer, s.TraceID)
}

// SpanSink consumes spans. Implementations run on the single simulation
// goroutine (or a single daemon receive loop); the Tracer adds no locking.
type SpanSink interface {
	// EmitSpan receives one span as the step happens.
	EmitSpan(s Span)
	// EmitArrivals receives a frame's phy-arrive record when the frame's last
	// arrival has ended, or when the run stops with the frame on the air. a
	// and its Decodes are valid only during the call.
	EmitArrivals(a *Arrivals)
}

// Outcome is what the routing layer made of one decoded copy of a packet. It
// rides in the frame's phy-arrive record instead of a span line of its own;
// further loss classes can take further codes.
type Outcome uint8

// Outcomes, with their codes in the JSONL schema.
const (
	// OutcomeNone: the routing layer emitted no dup-suppress or deliver span
	// for the decode.
	OutcomeNone Outcome = iota
	// OutcomeDupSuppress stands for the decode's SpanDupSuppress.
	OutcomeDupSuppress
	// OutcomeDeliver stands for the decode's SpanDeliver.
	OutcomeDeliver
	numOutcomes
)

// outcomeKinds are the span kinds the outcomes stand for.
var outcomeKinds = [numOutcomes]SpanKind{OutcomeDupSuppress: SpanDupSuppress, OutcomeDeliver: SpanDeliver}

// Decode is one receiver's decode of a frame.
type Decode struct {
	At      time.Duration
	Node    packet.NodeID
	Outcome Outcome
}

// Arrivals is the phy-arrive record of one frame: the packet it carried, its
// transmitter (Peer), and every traced decode of it in decode order, each with
// what the routing layer made of that copy. The PHY collects it while a tracer
// is attached (Tracer.Decode) and hands it to the sink once, when the frame
// has left the air.
type Arrivals struct {
	TraceID uint64
	Peer    packet.NodeID
	PktKind packet.Type
	Group   packet.GroupID
	Seq     uint32
	Hop     uint8
	Decodes []Decode
}

// AppendSpans appends the spans the record stands for to dst and returns the
// extended slice: per decode, its phy-arrive span, then the dup-suppress or
// deliver span its outcome names — exactly the spans per-decode tracing
// emitted, in the same order.
func (a *Arrivals) AppendSpans(dst []Span) []Span {
	for _, d := range a.Decodes {
		s := Span{At: d.At, Kind: SpanPhyArrive, TraceID: a.TraceID, Node: d.Node, Peer: a.Peer,
			PktKind: a.PktKind, Group: a.Group, Seq: a.Seq, Hop: a.Hop}
		dst = append(dst, s)
		if d.Outcome != OutcomeNone {
			s.Kind = outcomeKinds[d.Outcome]
			dst = append(dst, s)
		}
	}
	return dst
}

// SpanBuffer is a SpanSink retaining every span in memory, for tests,
// benchmarks and in-process journey reconstruction.
type SpanBuffer struct {
	spans []Span
}

var _ SpanSink = (*SpanBuffer)(nil)

// EmitSpan implements SpanSink.
func (b *SpanBuffer) EmitSpan(s Span) { b.spans = append(b.spans, s) }

// EmitArrivals implements SpanSink: it retains the spans the record stands
// for.
func (b *SpanBuffer) EmitArrivals(a *Arrivals) { b.spans = a.AppendSpans(b.spans) }

// Spans returns a snapshot of the retained spans.
func (b *SpanBuffer) Spans() []Span {
	out := make([]Span, len(b.spans))
	copy(out, b.spans)
	return out
}

// spanRecord is the JSONL persistence schema of a span, as ReadSpans decodes
// it: one object per line, keys in this order. t is seconds of virtual time;
// kind and pkt are the SpanKind and packet.Type strings.
type spanRecord struct {
	T    float64 `json:"t"`
	Kind string  `json:"kind"`
	ID   uint64  `json:"id"`
	Node uint16  `json:"node"`
	Peer uint16  `json:"peer"`
	Pkt  string  `json:"pkt"`
	Grp  uint16  `json:"grp"`
	Seq  uint32  `json:"seq"`
	Hop  uint8   `json:"hop"`
}

// lineRecord is any line of the file. A frame's phy-arrive record (Arrivals)
// is a phy-arrive line without node and with rx, one [node, offset, outcome]
// triple per decode: the receiver, its decode instant as nanoseconds after t
// (the first decode's), and its Outcome code.
type lineRecord struct {
	spanRecord
	Rx [][]int64 `json:"rx"`
}

var spanKindByName = func() map[string]SpanKind {
	m := make(map[string]SpanKind)
	for k := SpanOriginate; int(k) < len(spanKindNames); k++ {
		m[spanKindNames[k]] = k
	}
	return m
}()

var pktTypeByName = func() map[string]packet.Type {
	m := make(map[string]packet.Type)
	for k := packet.TypeData; k <= packet.TypeTreeJoin; k++ {
		m[k.String()] = k
	}
	return m
}()

// spanFlushAt is the buffered size at which the writer hands its buffer to
// the io.Writer. spanLineMax exceeds the longest span line (about 170 bytes)
// and a record's line without its rx entries, decodeMax the longest rx entry,
// so a record of up to spanFlushAt/decodeMax decodes fits the buffer that
// NewSpanJSONLWriter allocates once the buffer has been handed off; only a
// longer one grows it.
const (
	spanFlushAt = 64 << 10
	spanLineMax = 256
	decodeMax   = len(`[65535,9223372036854775807,255],`)
)

// SpanJSONLWriter is a SpanSink streaming spans and phy-arrive records as
// JSON lines (one object per '\n'-terminated line, the spanRecord schema)
// through a buffer it owns; call Flush before closing the underlying file.
type SpanJSONLWriter struct {
	w   io.Writer
	buf []byte
	err error
}

var _ SpanSink = (*SpanJSONLWriter)(nil)

// NewSpanJSONLWriter wraps w in a SpanJSONLWriter.
func NewSpanJSONLWriter(w io.Writer) *SpanJSONLWriter {
	return &SpanJSONLWriter{w: w, buf: make([]byte, 0, spanFlushAt+spanLineMax)}
}

// EmitSpan implements SpanSink: it appends the span's line to the buffer
// without allocating, and writes the buffer out once it holds spanFlushAt
// bytes. Write errors are sticky and reported by Flush.
func (w *SpanJSONLWriter) EmitSpan(s Span) {
	if w.err != nil {
		return
	}
	b := append(w.buf, `{"t":`...)
	b = appendSeconds(b, s.At)
	b = append(b, `,"kind":"`...)
	b = append(b, s.Kind.String()...)
	b = append(b, `","id":`...)
	b = strconv.AppendUint(b, s.TraceID, 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendUint(b, uint64(s.Node), 10)
	b = appendPacket(b, s.Peer, s.PktKind, s.Group, s.Seq, s.Hop)
	w.buf = append(b, '}', '\n')
	if len(w.buf) >= spanFlushAt {
		w.writeOut()
	}
}

// EmitArrivals implements SpanSink: it appends the record's one line to the
// buffer without allocating. A line that might not fit the buffer's spare
// capacity hands the buffer off first, so it is not grown.
func (w *SpanJSONLWriter) EmitArrivals(a *Arrivals) {
	if w.err != nil || len(a.Decodes) == 0 {
		return
	}
	if len(w.buf) > 0 && len(w.buf)+spanLineMax+decodeMax*len(a.Decodes) > cap(w.buf) {
		if w.writeOut(); w.err != nil {
			return
		}
	}
	t0 := a.Decodes[0].At
	b := append(w.buf, `{"t":`...)
	b = appendSeconds(b, t0)
	b = append(b, `,"kind":"phy-arrive","id":`...)
	b = strconv.AppendUint(b, a.TraceID, 10)
	b = appendPacket(b, a.Peer, a.PktKind, a.Group, a.Seq, a.Hop)
	b = append(b, `,"rx":[`...)
	for i, d := range a.Decodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendUint(b, uint64(d.Node), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(d.At-t0), 10)
		b = append(b, ',')
		b = strconv.AppendUint(b, uint64(d.Outcome), 10)
		b = append(b, ']')
	}
	w.buf = append(b, ']', '}', '\n')
	if len(w.buf) >= spanFlushAt {
		w.writeOut()
	}
}

// appendPacket appends the keys a span line and a record line share, from
// peer on.
func appendPacket(b []byte, peer packet.NodeID, pkt packet.Type, grp packet.GroupID, seq uint32, hop uint8) []byte {
	b = append(b, `,"peer":`...)
	b = strconv.AppendUint(b, uint64(peer), 10)
	b = append(b, `,"pkt":"`...)
	b = append(b, pkt.String()...)
	b = append(b, `","grp":`...)
	b = strconv.AppendUint(b, uint64(grp), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(seq), 10)
	b = append(b, `,"hop":`...)
	return strconv.AppendUint(b, uint64(hop), 10)
}

// appendSeconds appends d as exact decimal seconds: the integer nanoseconds
// with the point moved nine places, trailing zeros trimmed.
func appendSeconds(b []byte, d time.Duration) []byte {
	ns := uint64(d)
	if d < 0 {
		b = append(b, '-')
		ns = -ns
	}
	b = strconv.AppendUint(b, ns/1e9, 10)
	frac := ns % 1e9
	if frac == 0 {
		return b
	}
	width := 9
	for frac%10 == 0 {
		frac /= 10
		width--
	}
	b = append(b, ".000000000"[:1+width]...)
	for i := len(b) - 1; frac > 0; i-- {
		b[i] = '0' + byte(frac%10)
		frac /= 10
	}
	return b
}

// writeOut hands the buffered lines to the io.Writer and empties the buffer.
func (w *SpanJSONLWriter) writeOut() {
	_, w.err = w.w.Write(w.buf)
	w.buf = w.buf[:0]
}

// Flush drains the buffer and returns the first error seen.
func (w *SpanJSONLWriter) Flush() error {
	if w.err == nil && len(w.buf) > 0 {
		w.writeOut()
	}
	return w.err
}

// ReadSpans decodes a spans JSONL stream written by SpanJSONLWriter into
// spans: a span line into its span, a phy-arrive record into the spans it
// stands for (Arrivals.AppendSpans). Files from before the record, one line
// per decode, read the same. A time is rounded to the nearest nanosecond,
// which recovers the written instant exactly below 2^51 ns (26 days), also
// from files whose t went through a float64 (the format before t was written
// as an exact decimal). A time that rounds outside time.Duration's range,
// [-2^63, 2^63) ns, is an error, and so is a record whose rx is not a list of
// [node, offset, outcome] triples with a node in [0, 65535], an offset that
// keeps t + offset in range and a known outcome code. Errors name the line by
// its index from zero.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(r)
	for n := 0; ; n++ {
		var rec lineRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: bad span record %d: %w", n, err)
		}
		s, err := rec.span()
		switch {
		case err != nil:
		case rec.Rx != nil:
			out, err = rec.appendArrivals(out, s)
		default:
			out = append(out, s)
		}
		if err != nil {
			return out, fmt.Errorf("trace: bad span record %d: %w", n, err)
		}
	}
}

// span decodes the keys every line has.
func (rec *spanRecord) span() (Span, error) {
	kind, ok := spanKindByName[rec.Kind]
	if !ok {
		return Span{}, fmt.Errorf("unknown kind %q", rec.Kind)
	}
	pkt, ok := pktTypeByName[rec.Pkt]
	if !ok {
		return Span{}, fmt.Errorf("unknown pkt %q", rec.Pkt)
	}
	// Converting a float64 outside int64's range is implementation-defined
	// in Go, so the range is checked before the conversion.
	ns := math.Round(rec.T * float64(time.Second))
	if ns < -(1<<63) || ns >= 1<<63 {
		return Span{}, fmt.Errorf("t out of range (%g s)", rec.T)
	}
	return Span{
		At:      time.Duration(ns),
		Kind:    kind,
		TraceID: rec.ID,
		Node:    packet.NodeID(rec.Node),
		Peer:    packet.NodeID(rec.Peer),
		PktKind: pkt,
		Group:   packet.GroupID(rec.Grp),
		Seq:     rec.Seq,
		Hop:     rec.Hop,
	}, nil
}

// appendArrivals checks a phy-arrive record, whose other keys s holds, and
// appends the spans it stands for to out.
func (rec *lineRecord) appendArrivals(out []Span, s Span) ([]Span, error) {
	if s.Kind != SpanPhyArrive {
		return out, fmt.Errorf("rx on a %v line", s.Kind)
	}
	if len(rec.Rx) == 0 {
		return out, fmt.Errorf("empty rx")
	}
	a := Arrivals{TraceID: s.TraceID, Peer: s.Peer, PktKind: s.PktKind, Group: s.Group, Seq: s.Seq, Hop: s.Hop,
		Decodes: make([]Decode, len(rec.Rx))}
	for i, e := range rec.Rx {
		switch {
		case len(e) != 3:
			return out, fmt.Errorf("rx entry %d is %v, not [node, offset, outcome]", i, e)
		case e[0] < 0 || e[0] > math.MaxUint16:
			return out, fmt.Errorf("rx entry %d: node %d out of range", i, e[0])
		case e[1] < 0 || s.At > 0 && e[1] > math.MaxInt64-int64(s.At):
			return out, fmt.Errorf("rx entry %d: offset %d ns out of range", i, e[1])
		case e[2] < 0 || e[2] >= int64(numOutcomes):
			return out, fmt.Errorf("rx entry %d: unknown outcome %d", i, e[2])
		}
		a.Decodes[i] = Decode{At: s.At + time.Duration(e[1]), Node: packet.NodeID(e[0]), Outcome: Outcome(e[2])}
	}
	return a.AppendSpans(out), nil
}

// LoadSpans reads a spans.jsonl file from disk.
func LoadSpans(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpans(bufio.NewReader(f))
}
