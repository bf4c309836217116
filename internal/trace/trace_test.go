package trace

import (
	"strings"
	"testing"
	"time"
)

func fixedNow(d time.Duration) func() time.Duration {
	return func() time.Duration { return d }
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, CatData, "should not panic %d", 42)
	if tr.Enabled(CatData) {
		t.Fatal("nil tracer reports enabled")
	}
}

func TestTracerAllCategoriesByDefault(t *testing.T) {
	var buf Buffer
	tr := New(&buf, fixedNow(time.Second))
	for _, c := range []Category{CatQuery, CatReply, CatData, CatCore, CatJoin} {
		if !tr.Enabled(c) {
			t.Fatalf("category %v not enabled by default", c)
		}
		tr.Emit(3, c, "hello")
	}
	if got := len(buf.Events()); got != 5 {
		t.Fatalf("events = %d, want 5", got)
	}
}

func TestTracerCategoryFilter(t *testing.T) {
	var buf Buffer
	tr := New(&buf, fixedNow(0), CatData)
	tr.Emit(1, CatQuery, "filtered")
	tr.Emit(1, CatData, "kept")
	events := buf.Events()
	if len(events) != 1 || events[0].Cat != CatData {
		t.Fatalf("events = %v", events)
	}
	if tr.Enabled(CatQuery) {
		t.Fatal("CatQuery should be filtered")
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 12345600 * time.Microsecond, Node: 7, Cat: CatQuery, Msg: "forward seq=3"}
	s := e.String()
	for _, want := range []string{"12.3456", "n7", "QUERY", "forward seq=3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestWriterSink(t *testing.T) {
	var sb strings.Builder
	tr := New(Writer{W: &sb}, fixedNow(time.Second))
	tr.Emit(2, CatData, "sent %d bytes", 512)
	if !strings.Contains(sb.String(), "sent 512 bytes") || !strings.Contains(sb.String(), "DATA") {
		t.Fatalf("writer output = %q", sb.String())
	}
}

func TestBufferCapAndDropped(t *testing.T) {
	buf := Buffer{Cap: 2}
	tr := New(&buf, fixedNow(0))
	for i := 0; i < 5; i++ {
		tr.Emit(1, CatData, "e%d", i)
	}
	if len(buf.Events()) != 2 {
		t.Fatalf("retained = %d, want 2", len(buf.Events()))
	}
	if buf.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", buf.Dropped())
	}
}

func TestBufferCountByCategory(t *testing.T) {
	var buf Buffer
	tr := New(&buf, fixedNow(0))
	tr.Emit(1, CatData, "a")
	tr.Emit(1, CatData, "b")
	tr.Emit(1, CatQuery, "c")
	counts := buf.CountByCategory()
	if counts[CatData] != 2 || counts[CatQuery] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestCategoryStrings(t *testing.T) {
	if CatQuery.String() != "QUERY" || Category(99).String() != "CAT(99)" {
		t.Fatal("category strings wrong")
	}
}
