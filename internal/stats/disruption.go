package stats

import (
	"fmt"
	"sort"
	"time"

	"meshcast/internal/packet"
)

// gapThreshold is the delivery silence that is more than ordinary
// inter-packet spacing: a gap beyond it costs availability, and one that
// follows a disruption is a reconvergence episode. A handful of CBR
// intervals.
const gapThreshold = time.Second

// Window is a half-open [Start, End) interval of virtual time: a span during
// which some fault is active, or the span during which radios move.
type Window struct {
	Start, End time.Duration
}

// DisruptionTracker measures per-group delivery around disruptions: PDR
// inside its windows against PDR outside them, the latency from each
// disruption onset to the group's next delivery (repair), the delivery
// silences that follow onsets (reconvergence), and the share of the group's
// active span not lost to long silences (availability). A fault schedule
// gives it its onsets and windows up front; a mover appends an onset for
// every tick that broke links. Health and Mobility are the two read-outs of
// the same accumulator.
//
// An onset is a repair for the groups that had already sent or received
// when it happened: a group first seen at t skips every onset not after t.
// Accounting is per group rather than per flow — the question is "when does
// the group hear from its sources again" — and calls must be in
// nondecreasing time order per group.
type DisruptionTracker struct {
	onsets  []time.Duration // sorted
	windows []Window        // sorted, disjoint
	groups  map[packet.GroupID]*groupDisruption
}

// groupDisruption is one group's accumulator.
type groupDisruption struct {
	sentIn, sentOut           uint64 // delivery opportunities inside / outside the windows
	deliveredIn, deliveredOut uint64

	// next indexes the first onset the group has not answered with a
	// delivery yet; the next delivery answers every onset up to its time.
	next int

	firstDelivery, lastDelivery time.Duration
	anyDelivery                 bool
	unavailable                 time.Duration // gap time beyond gapThreshold

	repairs, reconv []time.Duration
}

// NewDisruptionTracker builds a tracker over sorted onsets (more may follow
// through Onset) and sorted, disjoint windows.
func NewDisruptionTracker(onsets []time.Duration, windows []Window) *DisruptionTracker {
	return &DisruptionTracker{
		onsets:  onsets,
		windows: windows,
		groups:  make(map[packet.GroupID]*groupDisruption),
	}
}

// Onset appends a disruption at time at. An onset not after the last one is
// dropped: a tick that breaks ten links is one repair episode, not ten.
func (t *DisruptionTracker) Onset(at time.Duration) {
	if n := len(t.onsets); n > 0 && t.onsets[n-1] >= at {
		return
	}
	t.onsets = append(t.onsets, at)
}

func (t *DisruptionTracker) group(g packet.GroupID, now time.Duration) *groupDisruption {
	gd, ok := t.groups[g]
	if !ok {
		gd = &groupDisruption{next: sort.Search(len(t.onsets), func(i int) bool { return t.onsets[i] > now })}
		t.groups[g] = gd
	}
	return gd
}

// inWindow reports whether now falls inside any window.
func (t *DisruptionTracker) inWindow(now time.Duration) bool {
	i := sort.Search(len(t.windows), func(i int) bool { return t.windows[i].End > now })
	return i < len(t.windows) && t.windows[i].Start <= now
}

// RecordSent notes that a source multicast one data packet to group at time
// now, creating receivers delivery opportunities (the collector's PDR
// denominator). A send with no receivers creates none and is ignored.
func (t *DisruptionTracker) RecordSent(group packet.GroupID, now time.Duration, receivers int) {
	if receivers <= 0 {
		return
	}
	gd := t.group(group, now)
	if t.inWindow(now) {
		gd.sentIn += uint64(receivers)
	} else {
		gd.sentOut += uint64(receivers)
	}
}

// RecordDelivered notes that a member of group received a data packet at
// time now. It answers every onset up to now (the mesh repaired whatever
// they broke, or they never broke the group's delivery: near-zero repairs),
// and when it ends a silence longer than gapThreshold that followed an onset
// it closes a reconvergence episode, measured from the first unanswered
// onset.
func (t *DisruptionTracker) RecordDelivered(group packet.GroupID, now time.Duration) {
	gd := t.group(group, now)
	if t.inWindow(now) {
		gd.deliveredIn++
	} else {
		gd.deliveredOut++
	}
	end := gd.next
	for end < len(t.onsets) && t.onsets[end] <= now {
		end++
	}
	if pending := t.onsets[gd.next:end]; len(pending) > 0 {
		if gd.anyDelivery && now-gd.lastDelivery > gapThreshold && now > pending[0] {
			gd.reconv = append(gd.reconv, now-pending[0])
		}
		for _, onset := range pending {
			gd.repairs = append(gd.repairs, now-onset)
		}
		gd.next = end
	}
	if !gd.anyDelivery {
		gd.anyDelivery, gd.firstDelivery = true, now
	} else if gap := now - gd.lastDelivery; gap > gapThreshold {
		gd.unavailable += gap - gapThreshold
	}
	gd.lastDelivery = now
}

// each calls fn for every group in ID order.
func (t *DisruptionTracker) each(fn func(packet.GroupID, *groupDisruption)) {
	ids := make([]packet.GroupID, 0, len(t.groups))
	for g := range t.groups {
		ids = append(ids, g)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, g := range ids {
		fn(g, t.groups[g])
	}
}

// ratio is n/d, zero when d is.
func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// meanMax summarizes latencies (zeros when empty).
func meanMax(ds []time.Duration) (mean, longest time.Duration) {
	if len(ds) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
		longest = max(longest, d)
	}
	return sum / time.Duration(len(ds)), longest
}

// GroupHealth is one group's self-healing summary: the fault read-out.
type GroupHealth struct {
	Group packet.GroupID
	// OutagePDR / SteadyPDR are the delivery ratios for packets sent inside
	// and outside fault windows respectively.
	OutagePDR, SteadyPDR float64
	// SentInWindows / SentOutside are the corresponding denominators.
	SentInWindows, SentOutside uint64
	// RepairLatencies lists, for each fault onset that occurred while the
	// group was active, the time until the group's next delivery.
	RepairLatencies []time.Duration
	// MeanRepair and MaxRepair summarize RepairLatencies (0 when empty).
	MeanRepair, MaxRepair time.Duration
	// Availability is the fraction of the group's active span (first to last
	// delivery) not spent in delivery gaps longer than a second.
	Availability float64
}

// Health returns the fault read-out, one summary per group sorted by ID.
func (t *DisruptionTracker) Health() []GroupHealth {
	out := make([]GroupHealth, 0, len(t.groups))
	t.each(func(g packet.GroupID, gd *groupDisruption) {
		r := GroupHealth{
			Group:         g,
			OutagePDR:     ratio(gd.deliveredIn, gd.sentIn),
			SteadyPDR:     ratio(gd.deliveredOut, gd.sentOut),
			SentInWindows: gd.sentIn,
			SentOutside:   gd.sentOut,
			Availability:  1,
		}
		if len(gd.repairs) > 0 {
			r.RepairLatencies = append([]time.Duration(nil), gd.repairs...)
		}
		r.MeanRepair, r.MaxRepair = meanMax(gd.repairs)
		if span := gd.lastDelivery - gd.firstDelivery; span > 0 {
			r.Availability = 1 - float64(gd.unavailable)/float64(span)
		}
		out = append(out, r)
	})
	return out
}

// String renders one group's health line, fixed-format for deterministic
// scenario output.
func (g GroupHealth) String() string {
	return fmt.Sprintf(
		"group %v: steady PDR %.3f, outage PDR %.3f, repairs %d (mean %.3fs, max %.3fs), availability %.4f",
		g.Group, g.SteadyPDR, g.OutagePDR, len(g.RepairLatencies),
		g.MeanRepair.Seconds(), g.MaxRepair.Seconds(), g.Availability)
}

// GroupMobility is one group's motion-robustness summary: the motion
// read-out. It has no availability: a run with faults and motion holds one
// tracker per axis, and availability is the fault axis's alone, so the same
// delivery gap is never charged twice.
type GroupMobility struct {
	Group packet.GroupID
	// MotionPDR / StaticPDR are delivery ratios for packets sent inside and
	// outside the motion window.
	MotionPDR, StaticPDR float64
	// SentInMotion / SentStatic are the corresponding denominators.
	SentInMotion, SentStatic uint64
	// Repairs counts break ticks answered by a later delivery; MeanRepair
	// and MaxRepair summarize the latencies (0 when none).
	Repairs               int
	MeanRepair, MaxRepair time.Duration
	// Reconvergences counts delivery silences longer than a second that
	// followed link breaks; MeanReconvergence and MaxReconvergence measure
	// first-break-to-recovery spans.
	Reconvergences                      int
	MeanReconvergence, MaxReconvergence time.Duration
}

// Mobility returns the motion read-out, one summary per group sorted by ID.
func (t *DisruptionTracker) Mobility() []GroupMobility {
	out := make([]GroupMobility, 0, len(t.groups))
	t.each(func(g packet.GroupID, gd *groupDisruption) {
		r := GroupMobility{
			Group:          g,
			MotionPDR:      ratio(gd.deliveredIn, gd.sentIn),
			StaticPDR:      ratio(gd.deliveredOut, gd.sentOut),
			SentInMotion:   gd.sentIn,
			SentStatic:     gd.sentOut,
			Repairs:        len(gd.repairs),
			Reconvergences: len(gd.reconv),
		}
		r.MeanRepair, r.MaxRepair = meanMax(gd.repairs)
		r.MeanReconvergence, r.MaxReconvergence = meanMax(gd.reconv)
		out = append(out, r)
	})
	return out
}

// String renders one group's mobility line, fixed-format for deterministic
// scenario output.
func (g GroupMobility) String() string {
	return fmt.Sprintf(
		"group %v: motion PDR %.3f, static PDR %.3f, repairs %d (mean %.3fs, max %.3fs), reconvergences %d (mean %.3fs)",
		g.Group, g.MotionPDR, g.StaticPDR, g.Repairs,
		g.MeanRepair.Seconds(), g.MaxRepair.Seconds(),
		g.Reconvergences, g.MeanReconvergence.Seconds())
}
