package stats

import (
	"math"
	"testing"
	"time"
)

func TestSummarizeBasicPDR(t *testing.T) {
	c := NewCollector()
	c.Subscribe(5, 1, 0)
	for i := 0; i < 10; i++ {
		c.RecordSent(1, 0)
	}
	for i := 0; i < 8; i++ {
		c.RecordDelivered(5, 1, 0, 512, 10*time.Millisecond)
	}
	s := c.Summarize()
	if math.Abs(s.PDR-0.8) > 1e-9 {
		t.Fatalf("PDR = %v, want 0.8", s.PDR)
	}
	if s.PacketsSent != 10 || s.PacketsDelivered != 8 {
		t.Fatalf("counts = (%d, %d)", s.PacketsSent, s.PacketsDelivered)
	}
	if s.DataBytesReceived != 8*512 {
		t.Fatalf("bytes = %d", s.DataBytesReceived)
	}
	if math.Abs(s.MeanDelaySeconds-0.010) > 1e-9 {
		t.Fatalf("delay = %v, want 0.010", s.MeanDelaySeconds)
	}
}

// TestSubscribeSourceIsNotItsOwnReceiver pins the one subscription rule:
// a source listed among its group's members is not subscribed, a repeated
// subscription counts once, and Receivers counts each flow's members.
func TestSubscribeSourceIsNotItsOwnReceiver(t *testing.T) {
	c := NewCollector()
	c.Subscribe(5, 1, 0)
	c.Subscribe(5, 1, 0)
	c.Subscribe(0, 1, 0)
	c.Subscribe(6, 1, 0)
	c.Subscribe(0, 1, 6)
	c.Subscribe(6, 1, 6)
	if r0, r6, none := c.Receivers(1, 0), c.Receivers(1, 6), c.Receivers(2, 0); r0 != 2 || r6 != 1 || none != 0 {
		t.Fatalf("receivers = %d, %d, %d, want 2, 1, 0", r0, r6, none)
	}
	if rows := c.PerMemberPDR(); len(rows) != 3 {
		t.Fatalf("subscriptions = %v, want 0->5, 0->6 and 6->0 in group 1", rows)
	}
}

func TestSummarizeAveragesAcrossMembers(t *testing.T) {
	c := NewCollector()
	c.Subscribe(5, 1, 0)
	c.Subscribe(6, 1, 0)
	for i := 0; i < 10; i++ {
		c.RecordSent(1, 0)
	}
	for i := 0; i < 10; i++ {
		c.RecordDelivered(5, 1, 0, 512, time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		c.RecordDelivered(6, 1, 0, 512, time.Millisecond)
	}
	s := c.Summarize()
	if math.Abs(s.PDR-0.75) > 1e-9 {
		t.Fatalf("PDR = %v, want 0.75", s.PDR)
	}
}

func TestSilentMemberDragsPDRDown(t *testing.T) {
	c := NewCollector()
	c.Subscribe(5, 1, 0)
	c.Subscribe(6, 1, 0) // never receives anything
	for i := 0; i < 10; i++ {
		c.RecordSent(1, 0)
	}
	for i := 0; i < 10; i++ {
		c.RecordDelivered(5, 1, 0, 512, time.Millisecond)
	}
	s := c.Summarize()
	if math.Abs(s.PDR-0.5) > 1e-9 {
		t.Fatalf("PDR = %v, want 0.5 (silent member counts as 0)", s.PDR)
	}
}

func TestProbeOverheadPct(t *testing.T) {
	c := NewCollector()
	c.Subscribe(5, 1, 0)
	c.RecordSent(1, 0)
	c.RecordDelivered(5, 1, 0, 1000, time.Millisecond)
	c.ProbeBytes = 30
	s := c.Summarize()
	if math.Abs(s.ProbeOverheadPct-3.0) > 1e-9 {
		t.Fatalf("overhead = %v%%, want 3%%", s.ProbeOverheadPct)
	}
}

func TestEmptyCollector(t *testing.T) {
	s := NewCollector().Summarize()
	if s.PDR != 0 || s.MeanDelaySeconds != 0 || s.ProbeOverheadPct != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestPerMemberPDRSorted(t *testing.T) {
	c := NewCollector()
	c.Subscribe(7, 2, 1)
	c.Subscribe(5, 1, 0)
	c.Subscribe(6, 1, 0)
	for i := 0; i < 4; i++ {
		c.RecordSent(1, 0)
		c.RecordSent(2, 1)
	}
	c.RecordDelivered(6, 1, 0, 512, time.Millisecond)
	got := c.PerMemberPDR()
	if len(got) != 3 {
		t.Fatalf("entries = %d, want 3", len(got))
	}
	if got[0].Member != 5 || got[1].Member != 6 || got[2].Member != 7 {
		t.Fatalf("order = %v", got)
	}
	if got[0].PDR != 0 || math.Abs(got[1].PDR-0.25) > 1e-9 {
		t.Fatalf("PDRs = %v", got)
	}
	if got[1].String() == "" {
		t.Fatal("String should be non-empty")
	}
}

func TestMultipleFlowsIndependent(t *testing.T) {
	c := NewCollector()
	c.Subscribe(5, 1, 0)
	c.Subscribe(5, 2, 9)
	for i := 0; i < 10; i++ {
		c.RecordSent(1, 0)
	}
	for i := 0; i < 2; i++ {
		c.RecordSent(2, 9)
	}
	for i := 0; i < 5; i++ {
		c.RecordDelivered(5, 1, 0, 512, time.Millisecond)
	}
	c.RecordDelivered(5, 2, 9, 512, time.Millisecond)
	// Flow 1: 0.5; flow 2: 0.5 → mean 0.5.
	s := c.Summarize()
	if math.Abs(s.PDR-0.5) > 1e-9 {
		t.Fatalf("PDR = %v, want 0.5", s.PDR)
	}
}

func TestFairnessIndex(t *testing.T) {
	c := NewCollector()
	c.Subscribe(5, 1, 0)
	c.Subscribe(6, 1, 0)
	for i := 0; i < 10; i++ {
		c.RecordSent(1, 0)
	}
	// Perfectly equal members: fairness 1.
	for i := 0; i < 6; i++ {
		c.RecordDelivered(5, 1, 0, 512, time.Millisecond)
		c.RecordDelivered(6, 1, 0, 512, time.Millisecond)
	}
	if f := c.Summarize().Fairness; math.Abs(f-1) > 1e-9 {
		t.Fatalf("equal members fairness = %v, want 1", f)
	}
	// Skew one member heavily: fairness drops.
	for i := 0; i < 4; i++ {
		c.RecordDelivered(5, 1, 0, 512, time.Millisecond)
	}
	if f := c.Summarize().Fairness; f >= 0.999 {
		t.Fatalf("skewed fairness = %v, want < 1", f)
	}
}

func TestGroupSummaryIsolation(t *testing.T) {
	c := NewCollector()
	c.Subscribe(5, 1, 0)
	c.Subscribe(6, 2, 9)
	for i := 0; i < 10; i++ {
		c.RecordSent(1, 0)
		c.RecordSent(2, 9)
	}
	for i := 0; i < 10; i++ {
		c.RecordDelivered(5, 1, 0, 512, time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		c.RecordDelivered(6, 2, 9, 512, time.Millisecond)
	}
	g1 := c.GroupSummary(1)
	g2 := c.GroupSummary(2)
	if math.Abs(g1.PDR-1.0) > 1e-9 {
		t.Fatalf("group 1 PDR = %v", g1.PDR)
	}
	if math.Abs(g2.PDR-0.2) > 1e-9 {
		t.Fatalf("group 2 PDR = %v", g2.PDR)
	}
	if g1.PacketsSent != 10 || g2.PacketsDelivered != 2 {
		t.Fatalf("group isolation broken: %+v %+v", g1, g2)
	}
	empty := c.GroupSummary(99)
	if empty.PDR != 0 || empty.PacketsSent != 0 {
		t.Fatalf("unknown group summary = %+v", empty)
	}
}
