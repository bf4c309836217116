// Package phy models the physical layer: a shared wireless medium that
// distributes frames to radios according to a propagation model, per-packet
// Rayleigh fading, half-duplex radios, carrier sensing, and a capture-based
// collision model.
//
// Every simulated transmission fans out to all radios whose mean received
// power is non-negligible. Each (packet, receiver) pair gets an independent
// fading draw; a receiver locks onto the first decodable arrival and loses it
// if a sufficiently strong overlapping arrival appears (no capture) or if the
// receiver itself transmits (half duplex).
//
// Node positions change only through Medium.MoveRadio (mobility models), so
// the fan-out runs off a precomputed per-transmitter link cache (mean power
// and propagation delay per receiver — see cache.go and docs/PERFORMANCE.md) that
// a move invalidates incrementally. A frame in flight is one pooled record
// holding its arrivals in delivery order and two cursors that walk them; the
// medium merges the cursors of all frames on the air behind one engine event
// and delivers most edges without a trip through the event queue (flight.go).
package phy

import (
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/trace"
)

// Params configures all radios on a medium.
type Params struct {
	// TxPowerW is the transmit power in watts.
	TxPowerW float64
	// RxThresholdW is the minimum instantaneous power to decode a frame.
	RxThresholdW float64
	// CSThresholdW is the minimum instantaneous power to sense the channel
	// busy (and to count as interference).
	CSThresholdW float64
	// CaptureRatio is the linear power ratio by which a locked frame must
	// exceed an interferer to survive the overlap (10 ≈ 10 dB).
	CaptureRatio float64
	// BitrateBps is the channel bitrate. The paper uses 2 Mbps, the 802.11
	// broadcast basic rate.
	BitrateBps float64
	// PreambleDelay is the fixed PHY preamble+PLCP header time prepended
	// to every frame (192 µs for 802.11 long preamble at 1 Mbps PLCP).
	PreambleDelay time.Duration
}

// DefaultParams returns the parameters used throughout the paper's
// simulations: 2 Mbps channel, WaveLAN thresholds giving 250 m range and
// 550 m carrier sense, 10 dB capture.
func DefaultParams() Params {
	return Params{
		TxPowerW:      propagation.DefaultTxPowerW,
		RxThresholdW:  propagation.DefaultRxThresholdW,
		CSThresholdW:  propagation.DefaultCSThresholdW,
		CaptureRatio:  10,
		BitrateBps:    2e6,
		PreambleDelay: 192 * time.Microsecond,
	}
}

// AirTime returns the on-air duration of size bytes at the configured rate,
// including the PHY preamble.
func (p Params) AirTime(sizeBytes int) time.Duration {
	bits := float64(sizeBytes * 8)
	return p.PreambleDelay + time.Duration(bits/p.BitrateBps*float64(time.Second))
}

// Medium is the shared wireless channel. It owns all radios and delivers
// transmissions between them. Medium is driven entirely by the simulation
// engine's event loop and must not be used concurrently.
type Medium struct {
	engine   *sim.Engine
	pathLoss propagation.PathLoss
	fading   propagation.Fading
	rng      *sim.RNG
	params   Params
	radios   []*Radio

	// ignoreBelowW: arrivals with mean power under this are not modeled at
	// all. Set well below the CS threshold so that fading can never lift
	// an ignored arrival above it.
	ignoreBelowW float64

	// linkFunc, when set, replaces path loss + fading entirely: it returns
	// the instantaneous received power for a (tx, rx) pair. Trace-driven
	// emulations (the paper's 8-node testbed) use it to impose measured
	// per-link loss classes while keeping the MAC and collision machinery.
	linkFunc LinkFunc

	// impair, when set, injects per-(tx, rx) faults on top of the power
	// model (see ImpairFunc).
	impair ImpairFunc

	// links is the static link cache (see cache.go): per transmitter index,
	// the precomputed candidate receivers in attach order, built on first use.
	// clock counts the changes that can alter a list (attach, move, model
	// switch) and starts at one; wiped is its reading at the last change that
	// made every list stale.
	links        []candidates
	clock, wiped uint64
	// linkScratch and orderScratch are reusable buffers for list builds.
	linkScratch  []link
	orderScratch [2][]int32

	// grid is the spatial cell index (see grid.go): radios bucketed into
	// cells sized to the interference radius implied by ignoreBelowW, so
	// candidate-list construction probes ~9 cells instead of every radio.
	// nil when no interference radius exists for the path-loss model.
	grid *cellIndex

	// flightPool recycles the per-frame records (flight.go); a record lives
	// from transmit until its last arrival ends.
	flightPool []*flight
	// air is the merge heap of the cursors of every frame on the air and edge
	// the one engine event standing for its root; delivering is set while
	// edge's callback runs (flight.go).
	air        []cursor
	edge       *sim.Event
	delivering bool

	// onTransmit, when set, observes every frame as it is put on the air,
	// before the fan-out fetches the candidate list. Only this package's
	// tests set it.
	onTransmit func(at time.Duration, f *packet.Frame)

	// Tracer emits packet-journey spans for decoded arrivals (nil
	// disables). Shared by every attached radio.
	Tracer *trace.Tracer
}

// LinkFunc computes the instantaneous received power in watts for one
// transmission from tx to rx at virtual time now. Returning 0 removes the
// pair from the simulation entirely (not even carrier sense).
type LinkFunc func(tx, rx packet.NodeID, now time.Duration, rng *sim.RNG) float64

// SetLinkFunc installs a link oracle; pass nil to restore the physics
// models. Switching models invalidates the static link cache (the physics
// candidate lists skip sub-ignoreBelowW pairs; an oracle is consulted for
// every pair).
func (m *Medium) SetLinkFunc(f LinkFunc) {
	m.linkFunc = f
	m.invalidateLinks()
}

// Impairment is an externally injected degradation of one (tx, rx) pair at
// one instant: an extra drop probability (burst loss, jamming) and a linear
// attenuation factor applied to the received power (asymmetric degradation,
// shadowing episodes). The zero value means "unimpaired".
type Impairment struct {
	// DropProb is an extra independent loss probability in [0, 1]; 1 removes
	// the arrival entirely (not even carrier sense).
	DropProb float64
	// Attenuation scales the received power; 0 is treated as 1 (none).
	Attenuation float64
}

// ImpairFunc reports the current impairment for a transmission from tx to
// rx at virtual time now. It is consulted on top of whichever power model is
// active (physics or LinkFunc), which lets fault injection compose with both
// simulated and trace-driven media.
type ImpairFunc func(tx, rx packet.NodeID, now time.Duration) Impairment

// SetImpairment installs a fault-injection hook; pass nil to remove it.
func (m *Medium) SetImpairment(f ImpairFunc) { m.impair = f }

// NewMedium creates a medium using the engine's clock, the given propagation
// and fading models, and radio parameters.
func NewMedium(engine *sim.Engine, pathLoss propagation.PathLoss, fading propagation.Fading, params Params) *Medium {
	m := &Medium{
		engine:       engine,
		pathLoss:     pathLoss,
		fading:       fading,
		rng:          engine.RNG().Split(),
		params:       params,
		ignoreBelowW: params.CSThresholdW / 200,
		clock:        1,
		wiped:        1,
	}
	m.edge = engine.NewTimer(m.deliver)
	if radius := interferenceRadius(pathLoss, params.TxPowerW, m.ignoreBelowW); radius > 0 {
		m.grid = newCellIndex(radius)
	}
	return m
}

// Params returns the radio parameters shared by all radios on the medium.
func (m *Medium) Params() Params { return m.params }

// AttachRadio creates a radio for node id at position pos and registers it.
// Positions change only through MoveRadio (never by writing Radio.Pos
// directly); the link cache and cell index depend on it.
func (m *Medium) AttachRadio(id packet.NodeID, pos geom.Point) *Radio {
	r := &Radio{
		ID:     id,
		Pos:    pos,
		medium: m,
		index:  len(m.radios),
	}
	m.radios = append(m.radios, r)
	m.links = append(m.links, candidates{})
	if stamp := m.changed(); m.grid != nil {
		m.grid.add(r, stamp)
	}
	return r
}

// Radios returns the attached radios (shared slice; callers must not
// modify).
func (m *Medium) Radios() []*Radio { return m.radios }

// Changes returns the medium's change clock: it advances on every attach,
// every MoveRadio that changes a position and every SetLinkFunc, so two equal
// readings mean no radio was added or moved in between.
func (m *Medium) Changes() uint64 { return m.clock }

// MoveRadio relocates r to pos, rebucketing it in the spatial cell index and
// stamping the cells it leaves and enters with the advanced change clock. That
// makes stale exactly the candidate lists the move can change — r's own plus
// every transmitter with the old or the new cell in its 3×3 block (anyone
// farther away could not hear r before the move and cannot after it) — in
// O(1): nothing is visited here, each transmitter finds out when it next sends
// (cache.go). The result is byte-identical to discarding the whole cache — the
// property tests in move_test.go pin it — but leaves distant transmitters'
// lists warm, which is what keeps city-scale runs fast while nodes move.
//
// A move affects future transmissions only: frames already in flight carry
// the power and propagation delay computed when they were put on the air
// (no Doppler, no mid-flight re-routing).
func (m *Medium) MoveRadio(r *Radio, pos geom.Point) {
	if r.Pos == pos {
		return
	}
	if stamp := m.changed(); m.grid != nil {
		m.grid.move(r, pos, stamp)
	}
	r.Pos = pos
	r.Stats.RadioMoves++
}

// MeanPower returns the mean (pre-fading) received power at distance d.
func (m *Medium) MeanPower(d float64) float64 {
	return m.pathLoss.ReceivedPower(m.params.TxPowerW, d)
}

// DeliveryProbability returns the analytic per-packet delivery probability
// between two positions under the medium's path-loss and fading models.
// Used by topology tools and optimal-route analysis.
//
// Contract: the answer covers the *unimpaired physics* only — interference
// and any SetImpairment hook are deliberately ignored (impairments are
// per-(node, node, time) faults; a position pair has no well-defined answer
// under them). When a LinkFunc oracle replaces the physics models there is
// no analytic answer at all — the medium no longer delivers according to
// position-based path loss — so rather than silently reporting connectivity
// the medium won't deliver, the call panics; query the oracle itself, or
// restore the physics models with SetLinkFunc(nil) first.
func (m *Medium) DeliveryProbability(a, b geom.Point) float64 {
	if m.linkFunc != nil {
		panic("phy: DeliveryProbability is undefined while a LinkFunc oracle is active; query the oracle or SetLinkFunc(nil) first")
	}
	mean := m.MeanPower(a.Distance(b))
	if _, ok := m.fading.(propagation.NoFading); ok {
		if mean >= m.params.RxThresholdW {
			return 1
		}
		return 0
	}
	return propagation.ReceptionProbability(mean, m.params.RxThresholdW)
}

// transmit distributes a frame from radio src across the medium. The fan-out
// iterates src's precomputed candidate list; per candidate it only draws the
// fading (or oracle) power and consults the impairment hook, in the list's
// attach order (the RNG draw order — see the determinism contract in cache.go),
// and writes the surviving arrival into the frame's record at its
// delivery-order slot. The record's two cursors join the medium's merge heap,
// which delivers the arrivals one by one (flight.go); nothing is scheduled
// per receiver. The record keeps its own copy of the frame, so frame need
// not outlive the call.
func (m *Medium) transmit(src *Radio, frame *packet.Frame, airtime time.Duration) {
	now := m.engine.Now()
	fl := m.newFlight(frame, now, airtime)
	if m.onTransmit != nil {
		m.onTransmit(now, &fl.frame)
	}
	c := m.linksFrom(src)
	fl.size(len(c.links))
	survivors := 0
	for i := range c.links {
		l := &c.links[i]
		var power float64
		if m.linkFunc != nil {
			power = m.linkFunc(src.ID, m.radios[l.rx].ID, now, m.rng)
		} else {
			power = m.fading.Apply(l.meanPower, m.rng)
		}
		if m.impair != nil {
			imp := m.impair(src.ID, m.radios[l.rx].ID, now)
			if imp.DropProb >= 1 || (imp.DropProb > 0 && m.rng.Float64() < imp.DropProb) {
				continue
			}
			if imp.Attenuation > 0 {
				power *= imp.Attenuation
			}
		}
		if power < m.ignoreBelowW {
			continue
		}
		fl.arrivals[c.slot[i]] = arrival{rx: l.rx + 1, power: power, delay: l.propDelay, rank: uint32(survivors)}
		survivors++
	}
	fl.launch(survivors)
}

// RadioStats counts PHY-level outcomes at one radio.
type RadioStats struct {
	// FramesSent counts transmissions started.
	FramesSent uint64
	// FramesDelivered counts frames decoded and handed to the MAC.
	FramesDelivered uint64
	// Collisions counts locked frames lost to interference.
	Collisions uint64
	// BelowThreshold counts arrivals too weak to decode (fading/path loss).
	BelowThreshold uint64
	// HalfDuplexLoss counts frames that arrived while transmitting.
	HalfDuplexLoss uint64
	// CaptureWins counts decodes that survived overlapping interference via
	// capture.
	CaptureWins uint64
	// RadioDownDrops counts frames the radio would have handled had it not
	// been powered off: transmissions it discarded, plus arrivals at or
	// above the receive threshold that passed through undecoded.
	// Sub-threshold arrivals at a down radio are not counted — they would
	// have been lost regardless of power state (those count as
	// BelowThreshold when the radio is up).
	RadioDownDrops uint64
	// RadioMoves counts position changes applied through MoveRadio.
	RadioMoves uint64
}

// Radio is one node's half-duplex transceiver.
type Radio struct {
	// ID is the owning node.
	ID packet.NodeID
	// Pos is the radio's current position. Read-only for callers: moves must
	// go through Medium.MoveRadio so the cell index and link cache track the
	// change.
	Pos geom.Point

	// ReceiveFrame is invoked for every successfully decoded frame. Set by
	// the MAC layer. The frame belongs to the PHY's record of the
	// transmission and is valid only during the call: a receiver that keeps
	// the frame, or a field of it, past its return copies it. Its Payload
	// packet is not recycled and may be kept.
	ReceiveFrame func(f *packet.Frame)
	// BusyChanged is invoked when physical carrier sense changes state.
	// Set by the MAC layer.
	BusyChanged func(busy bool)

	// Stats accumulates PHY outcome counters.
	Stats RadioStats

	medium *Medium
	index  int // position in medium.radios (cache key)
	down   bool
	// txUntil is the virtual time the radio's last transmission leaves the
	// air. Tracking the end time instead of a boolean keeps the radio deaf
	// for the union of overlapping transmissions: a second Transmit before
	// the first ends extends the window rather than being cut short by the
	// first frame's end event.
	txUntil     time.Duration
	locked      *arrival
	sensedPower float64 // sum of in-flight arrival powers
	lastBusy    bool    // last state reported through BusyChanged
}

// transmitting reports whether the radio still has a frame on the air.
func (r *Radio) transmitting() bool { return r.medium.engine.Now() < r.txUntil }

// AirTime returns the on-air duration of a frame of the given size under
// the medium's parameters.
func (r *Radio) AirTime(sizeBytes int) time.Duration {
	return r.medium.params.AirTime(sizeBytes)
}

// SetDown powers the radio off (down=true) or on. A powered-off radio
// neither transmits nor decodes: in-flight arrivals are abandoned and later
// ones pass through as if the antenna were disconnected. Fault injection
// uses this to model node crashes.
//
// Both transitions re-derive physical carrier sense immediately: powering
// down while the channel is busy must release a MAC deferring on a stale
// busy report, and powering up amid in-flight arrivals must report the busy
// channel at once — not at the next arrival edge, which could be a whole
// frame away.
func (r *Radio) SetDown(down bool) {
	r.down = down
	if down && r.locked != nil {
		r.locked.corrupted = true
		r.locked = nil
	}
	r.notifyBusy(r.CarrierBusy())
}

// Down reports whether the radio is powered off.
func (r *Radio) Down() bool { return r.down }

// Transmit puts a frame on the air and returns its airtime. The caller (MAC)
// is responsible for deferring until the channel is idle; the radio itself
// will transmit regardless (that is what makes collisions possible). A
// powered-off radio silently discards the frame (zero airtime). The medium
// copies f, so the caller may reuse it, or keep it on its stack, once
// Transmit returns.
func (r *Radio) Transmit(f *packet.Frame) time.Duration {
	if r.down {
		r.Stats.RadioDownDrops++
		return 0
	}
	airtime := r.medium.params.AirTime(f.SizeBytes())
	r.Stats.FramesSent++
	if end := r.medium.engine.Now() + airtime; end > r.txUntil {
		r.txUntil = end
	}
	// Half duplex: anything currently being received is lost.
	if r.locked != nil {
		r.locked.corrupted = true
		r.Stats.HalfDuplexLoss++
		r.locked = nil
	}
	r.medium.transmit(r, f, airtime)
	// Re-derive carrier sense when this frame leaves the air; with an
	// earlier overlapping transmission still out, CarrierBusy stays true
	// (txUntil covers it) and the notification is a no-op.
	r.medium.engine.ScheduleArgPooled(airtime, txEndThunk, r)
	r.notifyBusy(true)
	return airtime
}

// CarrierBusy reports physical carrier sense: the radio is transmitting or
// the total in-flight power exceeds the carrier-sense threshold.
func (r *Radio) CarrierBusy() bool {
	if r.down {
		return false
	}
	return r.transmitting() || r.sensedPower >= r.medium.params.CSThresholdW
}

func (r *Radio) notifyBusy(busy bool) {
	if busy == r.lastBusy {
		return
	}
	r.lastBusy = busy
	if r.BusyChanged != nil {
		r.BusyChanged(busy)
	}
}

func (r *Radio) beginArrival(a *arrival) {
	r.sensedPower += a.power

	switch {
	case r.down:
		// Powered off: the signal passes through undetected. It still counts
		// in sensedPower so endArrival stays symmetric, but a dead
		// radio reports no carrier and decodes nothing. Only decodable
		// arrivals count as drops: a sub-threshold signal would have been
		// lost with the radio up too (see docs/OBSERVABILITY.md).
		a.corrupted = true
		if a.power >= r.medium.params.RxThresholdW {
			r.Stats.RadioDownDrops++
		}
	case r.transmitting():
		// Receiver deaf while transmitting.
		a.corrupted = true
		r.Stats.HalfDuplexLoss++
	case a.power < r.medium.params.RxThresholdW:
		// Too weak to decode; still contributes interference and carrier
		// sense.
		a.corrupted = true
		r.Stats.BelowThreshold++
	case r.locked == nil:
		// Try to lock. Existing interference may already drown the frame.
		interference := r.sensedPower - a.power
		if interference > 0 && a.power < r.medium.params.CaptureRatio*interference {
			a.corrupted = true
			r.Stats.Collisions++
		} else {
			if interference > 0 {
				r.Stats.CaptureWins++
			}
			r.locked = a
		}
	default:
		// Already locked onto another frame: this arrival cannot be
		// decoded, and it may also destroy the locked frame unless the
		// locked frame captures it.
		a.corrupted = true
		if r.locked.power < r.medium.params.CaptureRatio*a.power {
			r.locked.corrupted = true
			r.locked = nil
			r.Stats.Collisions++
		} else {
			r.Stats.CaptureWins++
		}
	}

	r.notifyBusy(r.CarrierBusy())
}

func (r *Radio) endArrival(a *arrival, f *packet.Frame) {
	r.sensedPower -= a.power
	if r.sensedPower < 0 {
		r.sensedPower = 0 // guard against float drift
	}
	if r.locked == a {
		r.locked = nil
		if !a.corrupted {
			r.Stats.FramesDelivered++
			r.medium.Tracer.Span(trace.SpanPhyArrive, r.ID, f.Src, f.Payload)
			if r.ReceiveFrame != nil {
				r.ReceiveFrame(f)
			}
		}
	}
	r.notifyBusy(r.CarrierBusy())
}
