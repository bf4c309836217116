package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadSpans checks the span reader on arbitrary bytes: it never panics,
// every span it accepts has a kind and a packet type that print as schema
// names, and accepted spans within 2^51 ns of zero survive being written and
// read again. The corpus is the schema test's lines, one per entry.
func FuzzReadSpans(f *testing.F) {
	var buf bytes.Buffer
	w := NewSpanJSONLWriter(&buf)
	for _, s := range schemaSpans() {
		w.EmitSpan(s)
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

		var out bytes.Buffer
		w := NewSpanJSONLWriter(&out)
		for _, s := range spans {
			w.EmitSpan(s)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSpans(&out)
		if err != nil {
			t.Fatalf("re-encoded spans do not read back: %v", err)
		}
		if len(back) != len(spans) {
			t.Fatalf("%d spans read back as %d", len(spans), len(back))
		}
		for i := range spans {
			if back[i] != spans[i] {
				t.Fatalf("span %d = %+v, read back as %+v", i, spans[i], back[i])
			}
		}
	})
}
