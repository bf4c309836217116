package stats

import (
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestHealthSplitsPDRByWindow(t *testing.T) {
	windows := []Window{{Start: sec(10), End: sec(20)}}
	h := NewDisruptionTracker(nil, windows)

	// 4 sends outside (all delivered), 4 inside (1 delivered).
	for _, s := range []float64{1, 2, 3, 4} {
		h.RecordSent(1, sec(s), 1)
		h.RecordDelivered(1, sec(s)+time.Millisecond)
	}
	for _, s := range []float64{11, 12, 13, 14} {
		h.RecordSent(1, sec(s), 1)
	}
	h.RecordDelivered(1, sec(11)+time.Millisecond)

	got := h.Health()
	if len(got) != 1 {
		t.Fatalf("groups = %d", len(got))
	}
	g := got[0]
	if g.SteadyPDR != 1 {
		t.Fatalf("steady PDR = %v", g.SteadyPDR)
	}
	if g.OutagePDR != 0.25 {
		t.Fatalf("outage PDR = %v", g.OutagePDR)
	}
	if g.SentInWindows != 4 || g.SentOutside != 4 {
		t.Fatalf("denominators = %d/%d", g.SentInWindows, g.SentOutside)
	}
}

func TestHealthRepairLatency(t *testing.T) {
	onsets := []time.Duration{sec(10), sec(30)}
	h := NewDisruptionTracker(onsets, []Window{
		{Start: sec(10), End: sec(12)},
		{Start: sec(30), End: sec(32)},
	})

	h.RecordDelivered(1, sec(5))
	// First fault at 10s; delivery resumes at 13s → 3s repair.
	h.RecordSent(1, sec(11), 1)
	h.RecordDelivered(1, sec(13))
	// Second fault at 30s; delivery resumes at 30.5s → 0.5s repair.
	h.RecordDelivered(1, sec(30.5))

	g := h.Health()[0]
	if len(g.RepairLatencies) != 2 {
		t.Fatalf("repairs = %v", g.RepairLatencies)
	}
	if g.RepairLatencies[0] != sec(3) || g.RepairLatencies[1] != sec(0.5) {
		t.Fatalf("repairs = %v", g.RepairLatencies)
	}
	if g.MaxRepair != sec(3) {
		t.Fatalf("max repair = %v", g.MaxRepair)
	}
	if want := sec(1.75); g.MeanRepair != want {
		t.Fatalf("mean repair = %v, want %v", g.MeanRepair, want)
	}
}

func TestHealthAvailability(t *testing.T) {
	h := NewDisruptionTracker(nil, nil)
	// Deliveries at 0..10s every 100ms, then a 5s silence, then 15..20s.
	for ms := 0; ms <= 10_000; ms += 100 {
		h.RecordDelivered(1, time.Duration(ms)*time.Millisecond)
	}
	for ms := 15_000; ms <= 20_000; ms += 100 {
		h.RecordDelivered(1, time.Duration(ms)*time.Millisecond)
	}
	g := h.Health()[0]
	// Span 20s; one 5s gap exceeds the 1s threshold by 4s → 16/20 available.
	if want := 0.8; g.Availability < want-1e-9 || g.Availability > want+1e-9 {
		t.Fatalf("availability = %v, want %v", g.Availability, want)
	}
}

func TestHealthGroupsAreIndependent(t *testing.T) {
	onsets := []time.Duration{sec(10)}
	h := NewDisruptionTracker(onsets, []Window{{Start: sec(10), End: sec(15)}})
	h.RecordDelivered(1, sec(5))
	h.RecordDelivered(2, sec(5))
	h.RecordDelivered(1, sec(11)) // group 1 repairs after 1s
	h.RecordDelivered(2, sec(14)) // group 2 repairs after 4s

	hs := h.Health()
	if len(hs) != 2 || hs[0].Group != 1 || hs[1].Group != 2 {
		t.Fatalf("health = %+v", hs)
	}
	if hs[0].MeanRepair != sec(1) || hs[1].MeanRepair != sec(4) {
		t.Fatalf("repairs = %v / %v", hs[0].MeanRepair, hs[1].MeanRepair)
	}
}

// TestHealthOverlappingOutages: two faults whose windows overlap arrive as
// two onsets but ONE merged window (faults.Scheduler merges them). Each
// onset gets its own repair latency, PDR bucketing sees one window, and the
// delivery gap they cause is charged to availability exactly once.
func TestHealthOverlappingOutages(t *testing.T) {
	onsets := []time.Duration{sec(10), sec(11)}
	h := NewDisruptionTracker(onsets, []Window{{Start: sec(10), End: sec(20)}})

	h.RecordDelivered(1, sec(5))
	h.RecordSent(1, sec(12), 1) // inside the merged window: bucketed once
	h.RecordDelivered(1, sec(15))

	g := h.Health()[0]
	if len(g.RepairLatencies) != 2 {
		t.Fatalf("repairs = %v, want one per onset", g.RepairLatencies)
	}
	if g.RepairLatencies[0] != sec(5) || g.RepairLatencies[1] != sec(4) {
		t.Fatalf("repairs = %v, want [5s 4s]", g.RepairLatencies)
	}
	if g.SentInWindows != 1 || g.SentOutside != 0 {
		t.Fatalf("send buckets = %d/%d, want 1/0", g.SentInWindows, g.SentOutside)
	}
	// Span 5..15s; a single 10s gap exceeds the threshold by 9s. Two
	// overlapping outages must not charge it twice: 1 - 9/10 = 0.1.
	if want := 0.1; g.Availability < want-1e-9 || g.Availability > want+1e-9 {
		t.Fatalf("availability = %v, want %v (gap double-counted?)", g.Availability, want)
	}
}

// TestHealthBackToBackOutageWindows: outages that touch without overlapping
// stay separate windows; a send in each window buckets as in-window, and the
// repair of the second outage is measured from its own onset.
func TestHealthBackToBackOutageWindows(t *testing.T) {
	onsets := []time.Duration{sec(10), sec(12)}
	h := NewDisruptionTracker(onsets, []Window{
		{Start: sec(10), End: sec(12)},
		{Start: sec(12), End: sec(14)},
	})
	h.RecordDelivered(1, sec(9))
	h.RecordSent(1, sec(11), 1)
	h.RecordSent(1, sec(13), 1)
	h.RecordSent(1, sec(15), 1)
	h.RecordDelivered(1, sec(13.5))

	g := h.Health()[0]
	if g.SentInWindows != 2 || g.SentOutside != 1 {
		t.Fatalf("send buckets = %d/%d, want 2/1", g.SentInWindows, g.SentOutside)
	}
	if len(g.RepairLatencies) != 2 || g.RepairLatencies[0] != sec(3.5) || g.RepairLatencies[1] != sec(1.5) {
		t.Fatalf("repairs = %v, want [3.5s 1.5s]", g.RepairLatencies)
	}
}

// TestHealthOnsetBeforeGroupSeen: a fault that precedes a group's first
// traffic owes that group no repair (the fault-axis twin of
// TestMobilityBreaksBeforeGroupSeen). Two trackers used to disagree here:
// the fault one reported a 3.1 s repair.
func TestHealthOnsetBeforeGroupSeen(t *testing.T) {
	h := NewDisruptionTracker([]time.Duration{sec(2)}, []Window{{Start: sec(2), End: sec(4)}})
	h.RecordSent(1, sec(5), 1)
	h.RecordDelivered(1, sec(5.1))
	if g := h.Health()[0]; len(g.RepairLatencies) != 0 || g.MeanRepair != 0 {
		t.Fatalf("repairs = %v, want none (the fault predates the group)", g.RepairLatencies)
	}
}

func TestHealthNoFaultsNoRepairs(t *testing.T) {
	h := NewDisruptionTracker(nil, nil)
	h.RecordSent(1, sec(1), 1)
	h.RecordDelivered(1, sec(1))
	g := h.Health()[0]
	if len(g.RepairLatencies) != 0 || g.MeanRepair != 0 {
		t.Fatalf("phantom repairs: %+v", g)
	}
	if g.Availability != 1 {
		t.Fatalf("availability = %v", g.Availability)
	}
	if g.SteadyPDR != 1 || g.OutagePDR != 0 {
		t.Fatalf("PDRs = %v/%v", g.SteadyPDR, g.OutagePDR)
	}
}
