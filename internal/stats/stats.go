// Package stats collects and aggregates the measurements the paper reports:
// per-receiver throughput (packet delivery ratio), end-to-end delay, and
// probing overhead as a percentage of data bytes received.
package stats

import (
	"fmt"
	"sort"
	"time"

	"meshcast/internal/packet"
)

// flowKey identifies a (group, source) multicast flow.
type flowKey struct {
	group packet.GroupID
	src   packet.NodeID
}

// memberKey identifies one receiver's subscription to a flow.
type memberKey struct {
	flow   flowKey
	member packet.NodeID
}

// Collector accumulates end-to-end delivery measurements for a run.
type Collector struct {
	sent        map[flowKey]uint64
	delivered   map[memberKey]uint64
	bytes       map[memberKey]uint64
	delaySum    map[memberKey]time.Duration
	subscribers map[memberKey]bool
	receivers   map[flowKey]int // subscribed members per flow

	// ProbeBytes is the probing byte total of the measurement window, fed
	// in from the per-node counters; Summarize reports it as overhead.
	ProbeBytes uint64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		sent:      make(map[flowKey]uint64),
		delivered: make(map[memberKey]uint64),
		bytes:     make(map[memberKey]uint64),
		delaySum:  make(map[memberKey]time.Duration),
	}
}

// RecordSent notes that src multicast one data packet to group.
func (c *Collector) RecordSent(group packet.GroupID, src packet.NodeID) {
	c.sent[flowKey{group, src}]++
}

// RecordDelivered notes that member received a data packet of the given
// payload size from src on group, with end-to-end delay d.
func (c *Collector) RecordDelivered(member packet.NodeID, group packet.GroupID, src packet.NodeID, payloadBytes int, d time.Duration) {
	k := memberKey{flowKey{group, src}, member}
	c.delivered[k]++
	c.bytes[k] += uint64(payloadBytes)
	c.delaySum[k] += d
}

// DataBytes returns the payload bytes delivered to members so far: the
// per-subscription byte counts summed, read at telemetry snapshot time.
func (c *Collector) DataBytes() uint64 {
	var total uint64
	for _, b := range c.bytes {
		total += b
	}
	return total
}

// Summary aggregates a run's results.
type Summary struct {
	// PDR is the mean packet delivery ratio over all (flow, member) pairs:
	// the paper's throughput measure (CBR sources make the two
	// proportional).
	PDR float64
	// MeanDelaySeconds is the mean end-to-end delay over delivered packets.
	MeanDelaySeconds float64
	// DataBytesReceived is the total payload bytes delivered to members.
	DataBytesReceived uint64
	// PacketsSent / PacketsDelivered are run totals (delivered counts each
	// member separately).
	PacketsSent, PacketsDelivered uint64
	// ProbeOverheadPct is probe bytes as a percentage of data bytes
	// received (paper Table 1).
	ProbeOverheadPct float64
	// Fairness is Jain's fairness index over per-subscription delivery
	// ratios: 1.0 when every member fares equally, approaching 1/n when
	// one member gets everything. Multicast protocols can trade mean
	// throughput against member fairness; the index makes that visible.
	Fairness float64
}

// Summarize computes the run summary.
func (c *Collector) Summarize() Summary {
	var s Summary
	var pdrSum, pdrSqSum float64
	var pdrN int
	// Iterate in sorted key order: floating-point sums must not depend on
	// map iteration order, or same-seed runs would differ in the last bit.
	keys := make([]memberKey, 0, len(c.delivered))
	for mk := range c.delivered {
		keys = append(keys, mk)
	}
	sort.Slice(keys, func(i, j int) bool { return lessMemberKey(keys[i], keys[j]) })
	for _, mk := range keys {
		got := c.delivered[mk]
		sent := c.sent[mk.flow]
		if sent == 0 {
			continue
		}
		pdr := float64(got) / float64(sent)
		pdrSum += pdr
		pdrSqSum += pdr * pdr
		pdrN++
		s.PacketsDelivered += got
		s.DataBytesReceived += c.bytes[mk]
	}
	// Members that received nothing still count as PDR 0: enumerate
	// subscriptions via Subscribe.
	for mk := range c.subscribers {
		if _, ok := c.delivered[mk]; ok {
			continue
		}
		if c.sent[mk.flow] == 0 {
			continue
		}
		pdrN++
	}
	if pdrN > 0 {
		s.PDR = pdrSum / float64(pdrN)
	}
	if pdrSqSum > 0 {
		s.Fairness = pdrSum * pdrSum / (float64(pdrN) * pdrSqSum)
	}
	for _, sent := range c.sent {
		s.PacketsSent += sent
	}
	var delaySum time.Duration
	for _, d := range c.delaySum {
		delaySum += d
	}
	if s.PacketsDelivered > 0 {
		s.MeanDelaySeconds = (delaySum / time.Duration(s.PacketsDelivered)).Seconds()
	}
	if s.DataBytesReceived > 0 {
		s.ProbeOverheadPct = 100 * float64(c.ProbeBytes) / float64(s.DataBytesReceived)
	}
	return s
}

// lessMemberKey orders member keys by (group, source, member).
func lessMemberKey(a, b memberKey) bool {
	if a.flow.group != b.flow.group {
		return a.flow.group < b.flow.group
	}
	if a.flow.src != b.flow.src {
		return a.flow.src < b.flow.src
	}
	return a.member < b.member
}

// subscribers tracks declared (flow, member) pairs so that members that
// never received anything drag the PDR down instead of disappearing.
// Initialized lazily by Subscribe.
func (c *Collector) subscribe(k memberKey) {
	if c.subscribers == nil {
		c.subscribers = make(map[memberKey]bool)
		c.receivers = make(map[flowKey]int)
	}
	if !c.subscribers[k] {
		c.subscribers[k] = true
		c.receivers[k.flow]++
	}
}

// Subscribe declares that member intends to receive src's flow on group.
// It is the one subscription rule, for the simulator and the live fleet
// alike: a source is not its own receiver (the protocol never delivers a
// node its own packets), so Subscribe ignores member == src.
func (c *Collector) Subscribe(member packet.NodeID, group packet.GroupID, src packet.NodeID) {
	if member != src {
		c.subscribe(memberKey{flowKey{group, src}, member})
	}
}

// Receivers returns how many members are subscribed to src's flow on group:
// the delivery opportunities one packet of the flow creates.
func (c *Collector) Receivers(group packet.GroupID, src packet.NodeID) int {
	return c.receivers[flowKey{group, src}]
}

// GroupSummary computes a Summary restricted to one multicast group.
func (c *Collector) GroupSummary(group packet.GroupID) Summary {
	sub := NewCollector()
	for fk, n := range c.sent {
		if fk.group == group {
			sub.sent[fk] = n
		}
	}
	for mk, n := range c.delivered {
		if mk.flow.group == group {
			sub.delivered[mk] = n
			sub.bytes[mk] = c.bytes[mk]
			sub.delaySum[mk] = c.delaySum[mk]
		}
	}
	for mk := range c.subscribers {
		if mk.flow.group == group {
			sub.subscribe(mk)
		}
	}
	return sub.Summarize()
}

// PerMemberPDR returns each subscription's delivery ratio keyed by
// "group/src->member" strings, sorted for stable output.
func (c *Collector) PerMemberPDR() []MemberPDR {
	keys := make(map[memberKey]bool, len(c.subscribers)+len(c.delivered))
	for k := range c.subscribers {
		keys[k] = true
	}
	for k := range c.delivered {
		keys[k] = true
	}
	out := make([]MemberPDR, 0, len(keys))
	for k := range keys {
		sent := c.sent[k.flow]
		var pdr float64
		if sent > 0 {
			pdr = float64(c.delivered[k]) / float64(sent)
		}
		out = append(out, MemberPDR{
			Group:  k.flow.group,
			Source: k.flow.src,
			Member: k.member,
			PDR:    pdr,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		return a.Member < b.Member
	})
	return out
}

// MemberPDR is one receiver's delivery ratio for one flow.
type MemberPDR struct {
	Group  packet.GroupID
	Source packet.NodeID
	Member packet.NodeID
	PDR    float64
}

// String implements fmt.Stringer.
func (m MemberPDR) String() string {
	return fmt.Sprintf("%v/%v->%v: %.3f", m.Group, m.Source, m.Member, m.PDR)
}
