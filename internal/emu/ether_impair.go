package emu

import (
	"net"
	"sort"
	"time"

	"meshcast/internal/packet"
)

// LinkProfile describes the emulated medium for one directed node pair:
// delivery probability, one-way latency (fixed delay plus uniform jitter —
// jitter larger than the inter-frame gap produces natural reordering), and
// a duplication probability (UDP broadcast over a real ether duplicates
// frames under multipath; ODMRP's duplicate windows must absorb this).
type LinkProfile struct {
	// DF is the delivery probability in [0, 1].
	DF float64
	// Delay is the fixed one-way latency added to every delivered frame.
	Delay time.Duration
	// Jitter adds a uniform draw in [0, Jitter) on top of Delay.
	Jitter time.Duration
	// DupProb is the probability a delivered frame arrives twice.
	DupProb float64
}

// shape overlays delay/jitter/duplication onto the profile, keeping DF.
func (p LinkProfile) shape(delay, jitter time.Duration, dup float64) LinkProfile {
	p.Delay, p.Jitter, p.DupProb = delay, jitter, dup
	return p
}

// SetProfile fixes the full profile for the directed pair from → to.
func (t *LinkTable) SetProfile(from, to packet.NodeID, p LinkProfile) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links[[2]packet.NodeID{from, to}] = p
}

// ShapeAll applies delay/jitter/duplication to the default profile and every
// existing entry, preserving per-link delivery probabilities — the etherd
// "make the whole medium slow and noisy" knob.
func (t *LinkTable) ShapeAll(delay, jitter time.Duration, dup float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.def = t.def.shape(delay, jitter, dup)
	for k, p := range t.links {
		t.links[k] = p.shape(delay, jitter, dup)
	}
}

// Profile returns the effective profile for from → to.
func (t *LinkTable) Profile(from, to packet.NodeID) LinkProfile {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if p, ok := t.links[[2]packet.NodeID{from, to}]; ok {
		return p
	}
	return t.def
}

// LinkEntry is one directed link's configured profile — the inspection
// shape the control plane serializes for GET /links.
type LinkEntry struct {
	From, To packet.NodeID
	Profile  LinkProfile
}

// Entries returns every explicitly configured directed link plus the
// default profile, sorted by (From, To) for stable output.
func (t *LinkTable) Entries() (entries []LinkEntry, def LinkProfile) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	entries = make([]LinkEntry, 0, len(t.links))
	for k, p := range t.links {
		entries = append(entries, LinkEntry{From: k[0], To: k[1], Profile: p})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].From != entries[j].From {
			return entries[i].From < entries[j].From
		}
		return entries[i].To < entries[j].To
	})
	return entries, t.def
}

// Partition returns the nodes on side A of the active partition mask,
// sorted ascending (nil when no partition is installed).
func (t *LinkTable) Partition() []packet.NodeID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.mask == nil {
		return nil
	}
	out := make([]packet.NodeID, 0, len(t.mask))
	for id, in := range t.mask {
		if in {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetPartition installs a partition mask: frames between a node in sideA and
// a node outside it are dropped until ClearPartition. Registration traffic
// is unaffected (the ether server itself is reachable from both sides).
func (t *LinkTable) SetPartition(sideA []packet.NodeID) {
	mask := make(map[packet.NodeID]bool, len(sideA))
	for _, id := range sideA {
		mask[id] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mask = mask
}

// ClearPartition heals the partition.
func (t *LinkTable) ClearPartition() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mask = nil
}

// Partitioned reports whether the active partition mask (if any) separates
// the pair.
func (t *LinkTable) Partitioned(a, b packet.NodeID) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.mask != nil && t.mask[a] != t.mask[b]
}

// ImpairFunc returns an extra drop probability for a directed pair at
// delivery time, on top of the link table's delivery probability. The live
// chaos controller installs one that evaluates the fault script, compiled
// and scaled to run time, at the run's current time
// (faults.Compiled.Impairment), which is how scripted link faults and
// partitions reach the real-socket medium.
type ImpairFunc func(from, to packet.NodeID) float64

// SetImpairment installs (or, with nil, removes) the impairment hook. Safe
// to call while the ether is serving.
func (e *Ether) SetImpairment(fn ImpairFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.impair = fn
}

// client pairs a registered node with its UDP return address.
type client struct {
	id   packet.NodeID
	addr *net.UDPAddr
}

// delivery is one decided frame delivery: where, after how long, and
// whether a duplicate copy follows.
type delivery struct {
	addr  *net.UDPAddr
	delay time.Duration
	dup   bool
}

// snapshotTargets returns every registered client except the sender, sorted
// by node ID. Sorting matters for determinism: decide consumes seeded RNG
// draws per target, so iteration order is part of the random stream — map
// order would make two same-seed runs drop different frames.
func (e *Ether) snapshotTargets(sender packet.NodeID) []client {
	targets := make([]client, 0, len(e.clients))
	for id, addr := range e.clients {
		if id != sender {
			targets = append(targets, client{id: id, addr: addr})
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].id < targets[j].id })
	return targets
}

// decide draws the delivery outcome for one frame against each target, in
// target order. Callers must hold e.mu (the RNG lives under it); RNG draws
// are only consumed where an outcome is actually probabilistic, so the
// random stream — and therefore every later decision — is identical across
// same-seed runs with the same link configuration.
func (e *Ether) decide(sender packet.NodeID, targets []client) (dels []delivery, dropped int) {
	for _, t := range targets {
		if e.links.Partitioned(sender, t.id) {
			dropped++
			continue
		}
		p := e.links.Profile(sender, t.id)
		if p.DF < 1 && e.rng.Float64() >= p.DF {
			dropped++
			continue
		}
		if e.impair != nil {
			if dp := e.impair(sender, t.id); dp >= 1 || (dp > 0 && e.rng.Float64() < dp) {
				dropped++
				continue
			}
		}
		d := delivery{addr: t.addr, delay: p.Delay}
		if p.Jitter > 0 {
			d.delay += time.Duration(e.rng.Int63n(int64(p.Jitter)))
		}
		if p.DupProb > 0 && e.rng.Float64() < p.DupProb {
			d.dup = true
		}
		dels = append(dels, d)
	}
	return dels, dropped
}
