package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadSpans checks the span reader on arbitrary bytes: it never panics,
// every span it accepts has a kind and a packet type that print as schema
// names, and accepted spans within 2^51 ns of zero survive being written and
// read again, both one line per span and with every run of decodes of one
// frame regrouped into a phy-arrive record, the way the PHY emits them. The
// corpus is the schema test's lines and a few records, one per entry.
func FuzzReadSpans(f *testing.F) {
	var buf bytes.Buffer
	w := NewSpanJSONLWriter(&buf)
	for _, s := range schemaSpans() {
		w.EmitSpan(s)
	}
	for _, n := range []int{1, 3, 60} {
		w.EmitArrivals(testArrivals(n))
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.SplitAfter(buf.String(), "\n") {
		if line != "" {
			f.Add([]byte(line))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spans, _ := ReadSpans(bytes.NewReader(data))
		exact := true
		for i, s := range spans {
			if spanKindByName[s.Kind.String()] != s.Kind || pktTypeByName[s.PktKind.String()] != s.PktKind {
				t.Fatalf("span %d reads back as kind %v, pkt %v", i, s.Kind, s.PktKind)
			}
			exact = exact && s.At < 1<<51 && s.At > -1<<51
		}
		if !exact {
			return
		}
		for _, regroup := range []bool{false, true} {
			var out bytes.Buffer
			w := NewSpanJSONLWriter(&out)
			if regroup {
				writeRegrouped(w, spans)
			} else {
				for _, s := range spans {
					w.EmitSpan(s)
				}
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			back, err := ReadSpans(&out)
			if err != nil {
				t.Fatalf("re-encoded spans (regrouped %v) do not read back: %v", regroup, err)
			}
			if len(back) != len(spans) {
				t.Fatalf("%d spans read back as %d (regrouped %v)", len(spans), len(back), regroup)
			}
			for i := range spans {
				if back[i] != spans[i] {
					t.Fatalf("span %d = %+v, read back as %+v (regrouped %v)", i, spans[i], back[i], regroup)
				}
			}
		}
	})
}

// writeRegrouped writes spans through w, each run of phy-arrive spans of one
// frame — same packet and peer, in time order — as one record, a decode
// taking the dup-suppress or deliver span right after it, of its node at its
// instant, as its outcome.
func writeRegrouped(w *SpanJSONLWriter, spans []Span) {
	var a Arrivals
	flush := func() {
		if len(a.Decodes) > 0 {
			w.EmitArrivals(&a)
			a.Decodes = a.Decodes[:0]
		}
	}
	for i := 0; i < len(spans); i++ {
		s := spans[i]
		if s.Kind != SpanPhyArrive {
			flush()
			w.EmitSpan(s)
			continue
		}
		if n := len(a.Decodes); n == 0 || s.At < a.Decodes[n-1].At || a.TraceID != s.TraceID || a.Peer != s.Peer ||
			a.PktKind != s.PktKind || a.Group != s.Group || a.Seq != s.Seq || a.Hop != s.Hop {
			flush()
			a = Arrivals{TraceID: s.TraceID, Peer: s.Peer, PktKind: s.PktKind, Group: s.Group, Seq: s.Seq, Hop: s.Hop,
				Decodes: a.Decodes}
		}
		d := Decode{At: s.At, Node: s.Node}
		if i+1 < len(spans) {
			next := spans[i+1]
			next.Kind = SpanPhyArrive
			switch k := spans[i+1].Kind; {
			case next != s:
			case k == SpanDupSuppress:
				d.Outcome, i = OutcomeDupSuppress, i+1
			case k == SpanDeliver:
				d.Outcome, i = OutcomeDeliver, i+1
			}
		}
		a.Decodes = append(a.Decodes, d)
	}
	flush()
}
