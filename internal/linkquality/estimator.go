// Package linkquality implements the probing subsystem the routing metrics
// feed on (paper §2.2): periodic broadcast probes, a sliding-window loss
// estimator (ETX/METX/SPP), a packet-pair delay/bandwidth estimator with the
// 20% loss penalty (PP/ETT), and the per-node NEIGHBOR TABLE that maps each
// neighbor to its current link estimate.
//
// All estimators measure the *forward* direction only: the receiver of the
// probes maintains the estimate for the link from the prober to itself,
// which is exactly the direction a broadcast data packet would travel.
package linkquality

import (
	"time"

	"meshcast/internal/metric"
)

// LossWindow estimates the forward delivery ratio df of a link from the
// sequence numbers of received periodic probes, over a sliding window of the
// last Size probes sent. Missing sequence numbers count as losses, so the
// estimator needs no feedback channel.
type LossWindow struct {
	size     int
	received []uint32 // seqs seen, pruned to the window
	lastSeq  uint32
	any      bool
}

// NewLossWindow returns a window over the last size probes.
func NewLossWindow(size int) *LossWindow {
	if size <= 0 {
		size = 10
	}
	return &LossWindow{size: size}
}

// Observe records the reception of probe seq.
func (w *LossWindow) Observe(seq uint32) {
	if !w.any || seq > w.lastSeq {
		w.lastSeq = seq
		w.any = true
	}
	w.received = append(w.received, seq)
	w.prune()
}

func (w *LossWindow) prune() {
	if !w.any {
		return
	}
	var lo uint32
	if w.lastSeq >= uint32(w.size) {
		lo = w.lastSeq - uint32(w.size) + 1
	}
	kept := w.received[:0]
	for _, s := range w.received {
		if s >= lo {
			kept = append(kept, s)
		}
	}
	w.received = kept
}

// DeliveryProb returns the estimated df: the fraction of the last Size
// probes that arrived. Before any probe arrives it returns 0.
func (w *LossWindow) DeliveryProb() float64 {
	if !w.any {
		return 0
	}
	w.prune()
	n := len(w.received)
	if n > w.size {
		n = w.size
	}
	return float64(n) / float64(w.size)
}

// PairEstimator maintains PP's loss-penalized EWMA of the packet-pair
// inter-arrival delay, plus ETT's bandwidth estimate, from a stream of
// (small, large) probe pairs.
//
// The EWMA weights are the paper's: 90% history, 10% new measurement. When
// either packet of a pair is lost, a 20% multiplicative penalty is applied
// instead. On a persistently lossy link the penalties compound while the
// long memory retains them — the cost grows exponentially, which is what
// makes PP avoid bad links so aggressively (§4.2.1) and keep avoiding them
// long after a lossy episode (§5.3).
type PairEstimator struct {
	// HistoryWeight and PenaltyFactor are the paper's 0.9 and 1.2; they are
	// fields so the history-length ablation can vary them.
	HistoryWeight float64
	PenaltyFactor float64

	ewmaSeconds  float64
	bandwidthBps float64
	loss         *LossWindow // df from the small packets (ETT's ETX input)

	lastPairSeq    uint32
	havePair       bool
	pendingSmall   uint32 // seq of a small packet awaiting its large half
	pendingAt      time.Duration
	pendingSmallOK bool
}

// NewPairEstimator returns a pair estimator with the paper's constants and
// a loss window of windowSize pairs.
func NewPairEstimator(windowSize int) *PairEstimator {
	return &PairEstimator{
		HistoryWeight: 0.9,
		PenaltyFactor: 1.2,
		loss:          NewLossWindow(windowSize),
	}
}

// penalize applies one loss penalty to the EWMA. With no baseline yet there
// is nothing to scale; the link simply stays unmeasured (infinite cost).
func (p *PairEstimator) penalize() {
	if p.ewmaSeconds > 0 {
		p.ewmaSeconds *= p.PenaltyFactor
	}
}

// accountGap applies penalties for pairs that disappeared entirely between
// the previously seen pair seq and the newly seen one.
func (p *PairEstimator) accountGap(seq uint32) {
	if !p.havePair {
		p.havePair = true
		p.lastPairSeq = seq
		return
	}
	if seq <= p.lastPairSeq {
		return
	}
	for missed := p.lastPairSeq + 1; missed < seq; missed++ {
		p.penalize()
	}
	p.lastPairSeq = seq
}

// ObserveSmall records reception of the small half of pair seq at time now.
func (p *PairEstimator) ObserveSmall(seq uint32, now time.Duration) {
	// A pending small whose large half never showed up is a half-lost pair.
	if p.pendingSmallOK && p.pendingSmall < seq {
		p.penalize()
	}
	p.accountGap(seq)
	p.loss.Observe(seq)
	p.pendingSmall = seq
	p.pendingAt = now
	p.pendingSmallOK = true
}

// ObserveLarge records reception of the large half of pair seq at time now;
// sizeBytes is the large probe's on-air payload size used for the bandwidth
// estimate. It reports whether a complete pair refreshed the EWMA.
func (p *PairEstimator) ObserveLarge(seq uint32, now time.Duration, sizeBytes int) bool {
	p.accountGap(seq)
	if p.pendingSmallOK && p.pendingSmall == seq {
		updated := false
		delay := (now - p.pendingAt).Seconds()
		if delay > 0 {
			if p.ewmaSeconds == 0 {
				p.ewmaSeconds = delay
			} else {
				p.ewmaSeconds = p.HistoryWeight*p.ewmaSeconds + (1-p.HistoryWeight)*delay
			}
			p.bandwidthBps = float64(sizeBytes*8) / delay
			updated = true
		}
		p.pendingSmallOK = false
		return updated
	}
	// Large half arrived without its small half: the small was lost.
	p.penalize()
	p.pendingSmallOK = false
	return false
}

// DelaySeconds returns the current penalized EWMA (0 until the first
// complete pair).
func (p *PairEstimator) DelaySeconds() float64 { return p.ewmaSeconds }

// BandwidthBps returns the latest packet-pair bandwidth estimate.
func (p *PairEstimator) BandwidthBps() float64 { return p.bandwidthBps }

// DeliveryProb returns df estimated from the small probes, ETT's loss input.
func (p *PairEstimator) DeliveryProb() float64 { return p.loss.DeliveryProb() }

// Entry is one neighbor's state in the NEIGHBOR TABLE.
type Entry struct {
	Loss      *LossWindow
	Pair      *PairEstimator
	UpdatedAt time.Duration
}

// Table is the per-node NEIGHBOR TABLE (paper §3.1): it records, for each
// neighbor, the measured cost of the link *from that neighbor to this node*.
// When a JOIN QUERY arrives, the node looks up the entry for the query's
// previous hop to extend the query's accumulated path cost.
type Table struct {
	// PacketBytes is the nominal data packet size handed to ETT.
	PacketBytes int
	// StaleAfter invalidates entries not refreshed by any probe for this
	// long; a silent neighbor's link is treated as dead. Zero disables
	// expiry.
	StaleAfter time.Duration
	// WindowSize configures new per-neighbor loss windows.
	WindowSize int
	// PairHistoryWeight overrides the EWMA history weight of new pair
	// estimators when non-zero (history-length ablation); the default is
	// the paper's 0.9.
	PairHistoryWeight float64
	// Stats counts the probes observed; it survives Reset.
	Stats Stats

	entries map[uint16]*Entry
	static  map[uint16]metric.LinkEstimate
}

// NewTable returns an empty neighbor table.
func NewTable(packetBytes, windowSize int, staleAfter time.Duration) *Table {
	return &Table{
		PacketBytes: packetBytes,
		StaleAfter:  staleAfter,
		WindowSize:  windowSize,
		entries:     make(map[uint16]*Entry),
	}
}

// Reset discards every probe-driven estimator, as a node restart would: the
// restarted node re-learns its neighborhood from scratch instead of trusting
// estimates measured before the outage (which StaleAfter would only expire
// later). Static (pinned) estimates survive — they are scenario
// configuration, not measurement.
func (t *Table) Reset() {
	t.entries = make(map[uint16]*Entry)
}

// SetStatic pins the estimate for a neighbor, bypassing the probe-driven
// estimators and staleness expiry. Used by analytic scenarios and tests that
// need exact link qualities.
func (t *Table) SetStatic(neighbor uint16, e metric.LinkEstimate) {
	if t.static == nil {
		t.static = make(map[uint16]metric.LinkEstimate)
	}
	if e.PacketBytes == 0 {
		e.PacketBytes = t.PacketBytes
	}
	t.static[neighbor] = e
}

// entry returns (creating if needed) the state for a neighbor.
func (t *Table) entry(neighbor uint16) *Entry {
	e, ok := t.entries[neighbor]
	if !ok {
		e = &Entry{
			Loss: NewLossWindow(t.WindowSize),
			Pair: NewPairEstimator(t.WindowSize),
		}
		if t.PairHistoryWeight > 0 {
			e.Pair.HistoryWeight = t.PairHistoryWeight
		}
		t.entries[neighbor] = e
	}
	return e
}

// ObserveProbe records a single probe from neighbor.
func (t *Table) ObserveProbe(neighbor uint16, seq uint32, now time.Duration) {
	e := t.entry(neighbor)
	e.Loss.Observe(seq)
	e.UpdatedAt = now
	t.Stats.ProbesReceived++
}

// ObservePairSmall records the small half of a probe pair from neighbor.
func (t *Table) ObservePairSmall(neighbor uint16, seq uint32, now time.Duration) {
	e := t.entry(neighbor)
	e.Pair.ObserveSmall(seq, now)
	e.UpdatedAt = now
	t.Stats.ProbesReceived++
}

// ObservePairLarge records the large half of a probe pair from neighbor.
func (t *Table) ObservePairLarge(neighbor uint16, seq uint32, now time.Duration, sizeBytes int) {
	e := t.entry(neighbor)
	if e.Pair.ObserveLarge(seq, now, sizeBytes) {
		t.Stats.EWMAUpdates++
	}
	e.UpdatedAt = now
	t.Stats.ProbesReceived++
}

// Estimate returns the current link estimate for the link neighbor → this
// node. Unknown or stale neighbors yield a zero estimate, which every
// metric maps to an unusable link.
func (t *Table) Estimate(neighbor uint16, now time.Duration) metric.LinkEstimate {
	if st, ok := t.static[neighbor]; ok {
		return st
	}
	e, ok := t.entries[neighbor]
	if !ok {
		return metric.LinkEstimate{PacketBytes: t.PacketBytes}
	}
	if t.StaleAfter > 0 && now-e.UpdatedAt > t.StaleAfter {
		return metric.LinkEstimate{PacketBytes: t.PacketBytes}
	}
	df := e.Loss.DeliveryProb()
	if pairDF := e.Pair.DeliveryProb(); pairDF > df {
		// Pair-mode probing feeds the pair loss window instead.
		df = pairDF
	}
	return metric.LinkEstimate{
		DeliveryProb:     df,
		PairDelaySeconds: e.Pair.DelaySeconds(),
		BandwidthBps:     e.Pair.BandwidthBps(),
		PacketBytes:      t.PacketBytes,
	}
}

// Len returns the number of neighbor entries held (live or stale), for
// table-size gauges.
func (t *Table) Len() int { return len(t.entries) }

// Neighbors returns the IDs with live entries.
func (t *Table) Neighbors(now time.Duration) []uint16 {
	out := make([]uint16, 0, len(t.entries))
	for id, e := range t.entries {
		if t.StaleAfter > 0 && now-e.UpdatedAt > t.StaleAfter {
			continue
		}
		out = append(out, id)
	}
	return out
}
