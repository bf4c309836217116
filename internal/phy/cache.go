package phy

import (
	"fmt"
	"math"
	"slices"

	"meshcast/internal/propagation"
)

// The static link cache.
//
// Radio positions change only at discrete MoveRadio calls, so the per-(tx,
// rx) geometry — distance, mean received power under the path-loss model,
// and propagation delay — is invariant between moves. The seed
// implementation recomputed all of it for every receiver of every frame,
// which dominated the transmit fan-out on the paper's 50-node topologies.
// Instead, the medium lazily precomputes one candidate-receiver list per
// transmitter the first time that transmitter is heard, and reuses it for
// every subsequent frame until an attach or a move invalidates it.
//
// Determinism contract: the fan-out draws from the medium's RNG once per list
// entry, in list order, reserves the frame's event sequence numbers in list
// order (two per surviving entry), and delivers the frame's arrivals in
// (propDelay, list order), the order each entry's rank records; event keys are
// unique, so the engine's pop order does not depend on when an arrival was
// queued, and a fixed-seed run is a function of the lists alone.
//
// A list holds the transmitter's candidates in attach order with the skip set
// baked in: under the physics models, pairs whose mean power is below
// ignoreBelowW are dropped up front (no fading draw is spent on them), and
// under a LinkFunc every other radio is a candidate, because the oracle is
// consulted per frame. Whatever builds or invalidates lists must reproduce
// what a from-scratch buildLinksBrute over the current positions would give;
// the in-package reference media of the tests (no index, lists rebuilt for
// every frame) pin that run for run. Radio power state (SetDown) is
// deliberately not part of the cache; a down radio still receives arrivals
// and discards them at delivery.
//
// Staleness is a matter of clocks, not flags. The medium counts every change
// that can alter a list — an attach, a move, a switch of power model — on one
// change clock, and a list remembers the clock reading it was built (or last
// found current) at. While the clock stands still, which is the whole of a run
// without mobility, a frame pays one integer compare. After a change the
// spatial index says whether it reached this transmitter: attaches and moves
// stamp the cells they touch, and a list is stale iff a cell of its
// transmitter's 3×3 block is stamped later than the list (grid.go has the rule
// and why it marks exactly the lists a change can alter). Changes the index
// cannot bound — SetLinkFunc; any attach or move with no index or under a
// LinkFunc oracle, whose lists hold every radio with distance-derived delays —
// set the wipe mark, older than which every list is stale. Either way
// recording a change is O(1).

// link is one precomputed (tx, rx) entry: the receiver's mean (pre-fading)
// received power — zero and unused when a LinkFunc is active — the propagation
// delay to it in nanoseconds (linkDelay), its attach index, and its rank in
// delivery order: the position the entry takes when the list is sorted by
// (propDelay, list position), which is the arrival slot transmit fills for it
// (flight.go). Both indices fit 16 bits because a medium holds at most
// maxRadios radios, so a list holds at most maxRadios−1 entries. Sixteen bytes
// and no pointer: a 1000-node run holds over half a million candidates, whose
// lists the collector never scans and which are built and copied without write
// barriers. A field added here costs every one of them; TestRecordLayout pins
// the size.
type link struct {
	meanPower float64
	propDelay int32
	rx        uint16
	rank      uint16
}

// linkDelay returns the propagation delay across d metres as a link holds it,
// in int32 nanoseconds, and whether it fits (up to 2.1 s, ≈ 6.4×10⁸ m). Every
// candidate the cell index finds is within the interference radius (≈ 2 km,
// under 7 µs; interferenceRadius never exceeds 10⁷ m), so only the brute-force
// scan can meet a pair too far apart, and it panics rather than wrap.
func linkDelay(d float64) (int32, bool) {
	delay := propagation.Delay(d)
	return int32(delay), delay <= math.MaxInt32
}

// candidates is one transmitter's slot in the cache: its list in attach order,
// each entry ranked in delivery order. A stale list keeps its backing array and
// is rebuilt into it: moving radios outdate hundreds of lists per step, and
// allocating each rebuild afresh was half the bytes a mobile run allocated.
type candidates struct {
	links []link
	// asOf is the change clock the list was built, or last found current, at;
	// zero (the clock starts at one) until the first build.
	asOf uint64
}

// linksFrom returns src's candidate-receiver list, (re)building it if a
// change since the list's clock reading reached it.
func (m *Medium) linksFrom(src *Radio) *candidates {
	c := &m.links[src.index]
	if c.asOf != m.clock {
		if m.stale(src, c) {
			m.buildLinks(src, c)
		}
		c.asOf = m.clock
	}
	return c
}

// stale reports whether something changed src's candidates after c.asOf.
func (m *Medium) stale(src *Radio, c *candidates) bool {
	return c.asOf < m.wiped || m.grid != nil && m.grid.changedSince(src.Pos, c.asOf)
}

// changed records an attach or a move on the change clock and returns the
// reading to stamp the touched cells with; where the reach of the change
// cannot be bounded every list goes stale.
func (m *Medium) changed() uint64 {
	m.clock++
	if m.grid == nil || m.linkFunc != nil {
		m.wiped = m.clock
	}
	return m.clock
}

// invalidateLinks makes every cached candidate list stale.
func (m *Medium) invalidateLinks() {
	m.clock++
	m.wiped = m.clock
}

// buildLinks computes src's ranked candidate list, in radio-attach order, into
// c. Under the physics models it probes the spatial cell index when one is
// available (grid.go); under a LinkFunc oracle every other radio is a
// candidate, so the index cannot narrow anything and the brute-force scan
// runs. The list is assembled in a scratch buffer and copied, so a first build
// allocates what it keeps (the cell probe sees ~1.6× the radios a metro list
// ends up with) and a rebuild allocates nothing.
func (m *Medium) buildLinks(src *Radio, c *candidates) {
	if m.linkFunc == nil && m.grid != nil {
		m.linkScratch = m.buildLinksIndexed(src, m.linkScratch[:0])
	} else {
		m.linkScratch = m.buildLinksBrute(src, m.linkScratch[:0])
	}
	c.links = append(c.links[:0], m.linkScratch...)
}

// rankByDelay sets every entry's rank to its position when links is sorted by
// (propDelay, position). It is a byte-wise LSD radix sort — stable, so equal
// delays keep list order without a second key, and at most two passes for any
// list the cell index builds (delays under 65 µs) — whose last pass writes
// each entry's rank in place instead of its position into the order, so no
// permutation is kept beside the list. A comparison sort here cost more than
// assembling the list, and a moving radio invalidates hundreds of lists per
// step.
func (m *Medium) rankByDelay(links []link) {
	from, to := m.orderScratch[0][:0], m.orderScratch[1][:0]
	var longest int32
	for i := range links {
		from, to = append(from, int32(i)), append(to, 0)
		longest = max(longest, links[i].propDelay)
	}
	m.orderScratch = [2][]int32{from, to}
	for shift := 0; ; shift += 8 {
		// start[d+1] counts digit d; after the running sum start[d] is where
		// digit d's run begins in the order.
		var start [257]int
		for i := range links {
			start[(links[i].propDelay>>shift)&0xff+1]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		if longest>>shift <= 0xff {
			for _, i := range from {
				d := (links[i].propDelay >> shift) & 0xff
				links[i].rank = uint16(start[d])
				start[d]++
			}
			return
		}
		for _, i := range from {
			d := (links[i].propDelay >> shift) & 0xff
			to[start[d]] = i
			start[d]++
		}
		from, to = to, from
	}
}

// buildLinksBrute is the reference all-radios scan the cell index replaced;
// it stays as the fallback (LinkFunc, no computable interference radius) and
// as the oracle the index is tested against. The ranked list is built in dst's
// backing array.
func (m *Medium) buildLinksBrute(src *Radio, dst []link) []link {
	dst = dst[:0]
	for i, rx := range m.radios {
		if rx == src {
			continue
		}
		d := src.Pos.Distance(rx.Pos)
		var mean float64
		if m.linkFunc == nil {
			mean = m.pathLoss.ReceivedPower(m.params.TxPowerW, d)
			if mean < m.ignoreBelowW {
				continue
			}
		}
		delay, ok := linkDelay(d)
		if !ok {
			panic(fmt.Sprintf("phy: propagation delay %v from radio %d to radio %d exceeds a link's int32 nanoseconds",
				propagation.Delay(d), src.ID, rx.ID))
		}
		dst = append(dst, link{rx: uint16(i), meanPower: mean, propDelay: delay})
	}
	m.rankByDelay(dst)
	return dst
}

// LinksConsistent reports whether src's cached candidate list (built on
// demand) matches a brute-force recomputation entry for entry, ranks
// included. It exists so integration tests outside this package — the
// mobility subsystem moves radios mid-run — can assert the incremental
// invalidation never leaves a stale list behind.
func (m *Medium) LinksConsistent(src *Radio) bool {
	return slices.Equal(m.linksFrom(src).links, m.buildLinksBrute(src, nil))
}

// txEndThunk is the static callback for the pooled transmit-end event.
func txEndThunk(x any) { r := x.(*Radio); r.notifyBusy(r.CarrierBusy()) }
