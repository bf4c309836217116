package trace

import (
	"sort"
	"time"

	"meshcast/internal/packet"
)

// Hop is one realized edge of a journey's forwarding tree: a MAC
// transmission at From that a radio at To decoded.
type Hop struct {
	From, To packet.NodeID
	// TxAt is when From put the packet on the air, ArriveAt when To
	// decoded it; Latency is the difference (queueing + airtime).
	TxAt, ArriveAt time.Duration
	Latency        time.Duration
	// HopCount is the packet's hop counter when transmitted.
	HopCount uint8
}

// Delivery is one member that received the journey's packet.
type Delivery struct {
	Node packet.NodeID
	At   time.Duration
	// Latency is end-to-end from origination.
	Latency time.Duration
}

// Journey is the reconstructed life of one originated packet: the
// forwarding tree it traced through the mesh, who it reached, and where
// copies of it died.
type Journey struct {
	TraceID  uint64
	PktKind  packet.Type
	Group    packet.GroupID
	Seq      uint32
	Origin   packet.NodeID
	OriginAt time.Duration

	// Hops are the realized forwarding-tree edges in arrival order.
	Hops []Hop
	// Deliveries are member receptions in delivery order.
	Deliveries []Delivery

	// TxCount counts MAC transmissions of this packet (origin + relays),
	// LostTx those of them that no radio decoded (the whole copy died in
	// the air), MACDrops copies discarded inside a MAC queue, and
	// DupSuppressed redundant receptions discarded by routing.
	TxCount       int
	LostTx        int
	MACDrops      int
	DupSuppressed int
	// Forwards counts relay re-transmissions handed to the MAC.
	Forwards int

	// MaxHopCount is the deepest hop counter seen on any realized edge.
	MaxHopCount uint8
}

// MaxLatency returns the worst end-to-end delivery latency (0 when
// nothing was delivered).
func (j *Journey) MaxLatency() time.Duration {
	var max time.Duration
	for _, d := range j.Deliveries {
		if d.Latency > max {
			max = d.Latency
		}
	}
	return max
}

// Losses totals the attributable loss events on this journey.
func (j *Journey) Losses() int {
	return j.LostTx + j.MACDrops
}

// Complete reports whether every delivery is reachable from the origin
// through the realized hop edges — i.e. the reconstructed forwarding tree
// explains all receptions.
func (j *Journey) Complete() bool {
	reach := map[packet.NodeID]bool{j.Origin: true}
	for changed := true; changed; {
		changed = false
		for _, h := range j.Hops {
			if reach[h.From] && !reach[h.To] {
				reach[h.To] = true
				changed = true
			}
		}
	}
	for _, d := range j.Deliveries {
		if !reach[d.Node] {
			return false
		}
	}
	return true
}

// txRecord tracks one MAC transmission awaiting arrival matches.
type txRecord struct {
	at    time.Duration
	hop   uint8
	heard bool
}

// Reconstruct stitches spans (any order) into one Journey per trace ID.
// Journeys come back ordered by origination time, ties broken by trace ID.
func Reconstruct(spans []Span) []*Journey {
	byID := make(map[uint64][]Span)
	for _, s := range spans {
		if s.TraceID == 0 {
			continue
		}
		byID[s.TraceID] = append(byID[s.TraceID], s)
	}
	out := make([]*Journey, 0, len(byID))
	for id, ss := range byID {
		out = append(out, reconstructOne(id, ss))
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].OriginAt != out[k].OriginAt {
			return out[i].OriginAt < out[k].OriginAt
		}
		return out[i].TraceID < out[k].TraceID
	})
	return out
}

func reconstructOne(id uint64, ss []Span) *Journey {
	// The key is total for one packet's spans, so the journey does not depend
	// on the order a file lists simultaneous steps in.
	sort.Slice(ss, func(i, k int) bool {
		a, b := &ss[i], &ss[k]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Kind < b.Kind
	})
	j := &Journey{TraceID: id}
	// Seed packet identity from the first span; SpanOriginate refines it.
	j.PktKind, j.Group, j.Seq = ss[0].PktKind, ss[0].Group, ss[0].Seq
	j.Origin, j.OriginAt = ss[0].Node, ss[0].At
	txs := make(map[packet.NodeID][]*txRecord)
	for _, s := range ss {
		switch s.Kind {
		case SpanOriginate:
			j.Origin, j.OriginAt = s.Node, s.At
			j.PktKind, j.Group, j.Seq = s.PktKind, s.Group, s.Seq
		case SpanMACTx:
			j.TxCount++
			txs[s.Node] = append(txs[s.Node], &txRecord{at: s.At, hop: s.Hop})
		case SpanMACDrop:
			j.MACDrops++
		case SpanPhyArrive:
			hop := Hop{From: s.Peer, To: s.Node, ArriveAt: s.At, HopCount: s.Hop}
			// Pair with the latest transmission from the peer that is
			// not in the future (broadcasts match many arrivals).
			peerTxs := txs[s.Peer]
			for i := len(peerTxs) - 1; i >= 0; i-- {
				if peerTxs[i].at <= s.At {
					peerTxs[i].heard = true
					hop.TxAt = peerTxs[i].at
					hop.Latency = s.At - peerTxs[i].at
					hop.HopCount = peerTxs[i].hop
					break
				}
			}
			if hop.HopCount > j.MaxHopCount {
				j.MaxHopCount = hop.HopCount
			}
			j.Hops = append(j.Hops, hop)
		case SpanDupSuppress:
			j.DupSuppressed++
		case SpanForward:
			j.Forwards++
		case SpanDeliver:
			j.Deliveries = append(j.Deliveries, Delivery{
				Node: s.Node, At: s.At, Latency: s.At - j.OriginAt,
			})
		}
	}
	for _, recs := range txs {
		for _, r := range recs {
			if !r.heard {
				j.LostTx++
			}
		}
	}
	return j
}
