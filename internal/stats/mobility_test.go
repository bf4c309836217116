package stats

import (
	"testing"
	"time"
)

func TestMobilitySplitsPDRByMotionWindow(t *testing.T) {
	m := NewDisruptionTracker(nil, []Window{{Start: sec(10), End: sec(20)}})
	for _, s := range []float64{1, 2, 3, 4} {
		m.RecordSent(1, sec(s), 1)
		m.RecordDelivered(1, sec(s)+time.Millisecond)
	}
	for _, s := range []float64{11, 12, 13, 14} {
		m.RecordSent(1, sec(s), 1)
	}
	m.RecordDelivered(1, sec(11)+time.Millisecond)

	got := m.Mobility()
	if len(got) != 1 {
		t.Fatalf("groups = %d", len(got))
	}
	g := got[0]
	if g.StaticPDR != 1 || g.MotionPDR != 0.25 {
		t.Fatalf("PDRs = %v/%v, want 1/0.25", g.StaticPDR, g.MotionPDR)
	}
	if g.SentInMotion != 4 || g.SentStatic != 4 {
		t.Fatalf("denominators = %d/%d", g.SentInMotion, g.SentStatic)
	}
}

func TestMobilityRepairAndReconvergence(t *testing.T) {
	m := NewDisruptionTracker(nil, []Window{{Start: 0, End: sec(60)}})
	m.RecordSent(1, sec(1), 1)
	m.RecordDelivered(1, sec(1))

	// Breaks at 10s cause a 3s silence → one repair (3s) and one
	// reconvergence episode (3s: first unanswered break to recovery).
	m.Onset(sec(10))
	m.RecordDelivered(1, sec(13))

	// Breaks at 20s with delivery flowing right before and 100ms after:
	// routes survived — a repair latency of 0.1s, but no reconvergence
	// (gap under the threshold).
	m.RecordDelivered(1, sec(19.9))
	m.Onset(sec(20))
	m.RecordDelivered(1, sec(20.1))

	g := m.Mobility()[0]
	if g.Repairs != 2 {
		t.Fatalf("repairs = %d, want 2", g.Repairs)
	}
	if g.MaxRepair != sec(3) {
		t.Fatalf("max repair = %v, want 3s", g.MaxRepair)
	}
	if want := sec(1.55); g.MeanRepair != want {
		t.Fatalf("mean repair = %v, want %v", g.MeanRepair, want)
	}
	if g.Reconvergences != 1 || g.MeanReconvergence != sec(3) {
		t.Fatalf("reconvergences = %d (mean %v), want 1 (3s)", g.Reconvergences, g.MeanReconvergence)
	}
}

// TestMobilityCoalescesBreaksPerTick: a tick that breaks ten links is one
// repair episode, not ten — the repair metric answers "how long until the
// group delivers again", which is per-disruption. A second onset at the same
// instant is dropped.
func TestMobilityCoalescesBreaksPerTick(t *testing.T) {
	m := NewDisruptionTracker(nil, []Window{{Start: 0, End: sec(60)}})
	m.RecordDelivered(1, sec(1))
	m.Onset(sec(5))
	m.Onset(sec(5))
	m.RecordDelivered(1, sec(6))
	g := m.Mobility()[0]
	if g.Repairs != 1 {
		t.Fatalf("repairs = %d, want 1 (breaks within a tick coalesce)", g.Repairs)
	}
}

// TestMobilityBreaksBeforeGroupSeen: breaks that precede a group's first
// activity don't owe that group a repair.
func TestMobilityBreaksBeforeGroupSeen(t *testing.T) {
	m := NewDisruptionTracker(nil, []Window{{Start: 0, End: sec(60)}})
	m.Onset(sec(2))
	m.RecordSent(1, sec(5), 1)
	m.RecordDelivered(1, sec(5.1))
	if g := m.Mobility()[0]; g.Repairs != 0 {
		t.Fatalf("repairs = %d, want 0 (break predates the group)", g.Repairs)
	}
}

// TestMobilityAndHealthSplitAccounting is the no-double-count contract: when
// faults and mobility run together, one tracker per axis sees the same
// send/delivery feed, but availability is read out only on the fault axis
// (GroupMobility has no availability field at all), health repairs come only
// from fault onsets, and mobility repairs only from link breaks — the same
// delivery gap surfaces once per axis, never twice on one.
func TestMobilityAndHealthSplitAccounting(t *testing.T) {
	h := NewDisruptionTracker([]time.Duration{sec(10)}, []Window{{Start: sec(10), End: sec(12)}})
	m := NewDisruptionTracker(nil, []Window{{Start: 0, End: sec(30)}})

	feedSent := func(at time.Duration) { h.RecordSent(1, at, 1); m.RecordSent(1, at, 1) }
	feedDeliv := func(at time.Duration) { h.RecordDelivered(1, at); m.RecordDelivered(1, at) }

	feedSent(sec(1))
	for s := 1.0; s <= 5; s++ {
		feedDeliv(sec(s)) // steady 1 Hz delivery: no availability gaps here
	}
	// A mobility link break at 5s, repaired at 5.5s: mobility records the
	// repair; health must not (no fault onset is pending).
	m.Onset(sec(5))
	feedDeliv(sec(5.5))
	// A fault at 10s causing a 4s silence: health records repair latency and
	// the availability hit; mobility sees no pending break, so it records
	// neither a repair nor a reconvergence for the same gap.
	feedSent(sec(11))
	feedDeliv(sec(14))

	gh := h.Health()[0]
	gm := m.Mobility()[0]
	if len(gh.RepairLatencies) != 1 || gh.RepairLatencies[0] != sec(4) {
		t.Fatalf("health repairs = %v, want [4s] (fault onset only)", gh.RepairLatencies)
	}
	if gm.Repairs != 1 || gm.MeanRepair != sec(0.5) {
		t.Fatalf("mobility repairs = %d (mean %v), want 1 (0.5s) (link break only)", gm.Repairs, gm.MeanRepair)
	}
	if gm.Reconvergences != 0 {
		t.Fatalf("mobility reconvergences = %d, want 0 (the 9s gap belongs to the fault axis)", gm.Reconvergences)
	}
	// The 13s span has one 8.5s gap beyond the threshold by 7.5s — charged
	// once, on the fault axis.
	want := 1 - 7.5/13.0
	if gh.Availability < want-1e-9 || gh.Availability > want+1e-9 {
		t.Fatalf("availability = %v, want %v", gh.Availability, want)
	}
}
