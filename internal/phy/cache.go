package phy

import (
	"time"

	"meshcast/internal/packet"
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
// entry, in list order, so a fixed-seed run is a function of the lists alone.
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
// The cache is invalidated by SetLinkFunc (the skip set changes shape) and,
// incrementally, by AttachRadio and MoveRadio: only transmitters within the
// interference radius of the new radio (for a move: of either endpoint) can
// see their candidate set change, so only their lists are discarded (see
// invalidateLinksAround and invalidateLinksMoved in grid.go).

// link is one precomputed (tx, rx) entry: the receiver, its mean (pre-fading)
// received power — zero and unused when a LinkFunc is active — and the
// propagation delay to it.
type link struct {
	rx        *Radio
	meanPower float64
	propDelay time.Duration
}

// linksFrom returns src's candidate-receiver list, building it on first use.
func (m *Medium) linksFrom(src *Radio) []link {
	if m.links == nil {
		m.links = make([][]link, len(m.radios))
	}
	ls := m.links[src.index]
	if ls == nil {
		ls = m.buildLinks(src)
		m.links[src.index] = ls
	}
	return ls
}

// buildLinks computes src's candidate list in radio-attach order. Under the
// physics models it probes the spatial cell index when one is available
// (grid.go); under a LinkFunc oracle every other radio is a candidate, so
// the index cannot narrow anything and the brute-force scan runs.
func (m *Medium) buildLinks(src *Radio) []link {
	if m.linkFunc == nil && m.grid != nil {
		return m.buildLinksIndexed(src)
	}
	return m.buildLinksBrute(src)
}

// buildLinksBrute is the reference all-radios scan the cell index replaced;
// it stays as the fallback (LinkFunc, no computable interference radius) and
// as the oracle the index is tested against.
func (m *Medium) buildLinksBrute(src *Radio) []link {
	ls := make([]link, 0, len(m.radios)-1)
	for _, rx := range m.radios {
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
		ls = append(ls, link{rx: rx, meanPower: mean, propDelay: propagation.Delay(d)})
	}
	return ls
}

// invalidateLinks discards every cached candidate list.
func (m *Medium) invalidateLinks() { m.links = nil }

// LinksConsistent reports whether src's cached candidate list (built on
// demand) matches a brute-force recomputation entry for entry. It exists so
// integration tests outside this package — the mobility subsystem moves
// radios mid-run — can assert the incremental invalidation never leaves a
// stale list behind.
func (m *Medium) LinksConsistent(src *Radio) bool {
	got, want := m.linksFrom(src), m.buildLinksBrute(src)
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// newArrival takes an arrival from the pool (or allocates one) and
// initializes it for one (frame, receiver) delivery.
func (m *Medium) newArrival(rx *Radio, f *packet.Frame, power float64) *arrival {
	var a *arrival
	if n := len(m.arrivalPool); n > 0 {
		a = m.arrivalPool[n-1]
		m.arrivalPool[n-1] = nil
		m.arrivalPool = m.arrivalPool[:n-1]
	} else {
		a = new(arrival)
	}
	a.rx, a.frame, a.power = rx, f, power
	return a
}

// freeArrival returns a finished arrival to the pool.
func (m *Medium) freeArrival(a *arrival) {
	a.rx, a.frame, a.power, a.corrupted = nil, nil, 0, false
	m.arrivalPool = append(m.arrivalPool, a)
}

// Static event callbacks for sim.Engine.ScheduleArgPooled: scheduling through
// these instead of fresh closures removes two allocations per (frame,
// receiver) pair from the transmit fan-out.
func beginArrivalThunk(x any) { a := x.(*arrival); a.rx.beginArrival(a) }
func endArrivalThunk(x any)   { a := x.(*arrival); a.rx.endArrival(a) }
func txEndThunk(x any)        { r := x.(*Radio); r.notifyBusy(r.CarrierBusy()) }
