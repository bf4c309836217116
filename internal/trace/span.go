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
	// SpanPhyArrive marks a radio decoding the packet off the air.
	SpanPhyArrive
	// SpanDupSuppress marks the routing layer discarding a duplicate.
	SpanDupSuppress
	// SpanForward marks a relay re-transmitting the packet.
	SpanForward
	// SpanDeliver marks delivery to a group member.
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
	EmitSpan(s Span)
}

// SpanBuffer is a SpanSink retaining every span in memory, for tests,
// benchmarks and in-process journey reconstruction.
type SpanBuffer struct {
	spans []Span
}

var _ SpanSink = (*SpanBuffer)(nil)

// EmitSpan implements SpanSink.
func (b *SpanBuffer) EmitSpan(s Span) { b.spans = append(b.spans, s) }

// Spans returns a snapshot of the retained spans.
func (b *SpanBuffer) Spans() []Span {
	out := make([]Span, len(b.spans))
	copy(out, b.spans)
	return out
}

// spanRecord is the JSONL persistence schema for a Span, as ReadSpans
// decodes it: one object per line, keys in this order. t is seconds of
// virtual time; kind and pkt are the SpanKind and packet.Type strings.
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

// spanFlushAt is the buffered size at which EmitSpan hands its buffer to the
// io.Writer. spanLineMax exceeds the longest line (about 170 bytes), so the
// buffer allocated by NewSpanJSONLWriter never grows.
const (
	spanFlushAt = 64 << 10
	spanLineMax = 256
)

// SpanJSONLWriter is a SpanSink streaming spans as JSON lines (one object
// per '\n'-terminated line, the spanRecord schema) through a buffer it
// owns; call Flush before closing the underlying file.
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
	b = append(b, `,"peer":`...)
	b = strconv.AppendUint(b, uint64(s.Peer), 10)
	b = append(b, `,"pkt":"`...)
	b = append(b, s.PktKind.String()...)
	b = append(b, `","grp":`...)
	b = strconv.AppendUint(b, uint64(s.Group), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, uint64(s.Seq), 10)
	b = append(b, `,"hop":`...)
	b = strconv.AppendUint(b, uint64(s.Hop), 10)
	w.buf = append(b, '}', '\n')
	if len(w.buf) >= spanFlushAt {
		w.writeOut()
	}
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

// ReadSpans decodes a spans JSONL stream written by SpanJSONLWriter. A time
// is rounded to the nearest nanosecond, which recovers the written instant
// exactly below 2^51 ns (26 days), also from files whose t went through a
// float64 (the format before t was written as an exact decimal). A time that
// rounds outside time.Duration's range, [-2^63, 2^63) ns, is an error.
func ReadSpans(r io.Reader) ([]Span, error) {
	var out []Span
	dec := json.NewDecoder(r)
	for {
		var rec spanRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("trace: bad span record %d: %w", len(out), err)
		}
		kind, ok := spanKindByName[rec.Kind]
		if !ok {
			return out, fmt.Errorf("trace: bad span record %d: unknown kind %q", len(out), rec.Kind)
		}
		pkt, ok := pktTypeByName[rec.Pkt]
		if !ok {
			return out, fmt.Errorf("trace: bad span record %d: unknown pkt %q", len(out), rec.Pkt)
		}
		// Converting a float64 outside int64's range is implementation-defined
		// in Go, so the range is checked before the conversion.
		ns := math.Round(rec.T * float64(time.Second))
		if ns < -(1<<63) || ns >= 1<<63 {
			return out, fmt.Errorf("trace: bad span record %d: t out of range (%g s)", len(out), rec.T)
		}
		out = append(out, Span{
			At:      time.Duration(ns),
			Kind:    kind,
			TraceID: rec.ID,
			Node:    packet.NodeID(rec.Node),
			Peer:    packet.NodeID(rec.Peer),
			PktKind: pkt,
			Group:   packet.GroupID(rec.Grp),
			Seq:     rec.Seq,
			Hop:     rec.Hop,
		})
	}
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
