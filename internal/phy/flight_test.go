package phy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
)

// edgePerEvent is the reference medium for the delivery path: every leading
// and trailing edge is its own engine event under its reserved key, as if
// transmit had scheduled all 2·k of a frame up front — no merge heap, no
// shared event, no in-place step. Like the other reference media (phy_test.go)
// it is made from package-private state and non-test code has no switch for
// it: holding delivering set keeps launch from arming the medium's event, and
// the returned function, which the test calls after every Transmit, takes the
// cursors launch pushed off the heap and schedules their flights' edges.
func edgePerEvent(m *Medium) (afterTransmit func()) {
	m.delivering = true
	return func() {
		for _, c := range m.air {
			if c.end {
				continue
			}
			fl := c.fl
			left := 0
			for i := range fl.arrivals {
				a := &fl.arrivals[i]
				if a.rx == 0 {
					continue
				}
				left++
				rx := m.receiver(a)
				at, seq := fl.t0+time.Duration(a.delay), fl.base+2*uint64(a.rank)
				m.engine.NewTimer(func() { rx.beginArrival(a) }).ArmReserved(at, seq, fl.t0)
				m.engine.NewTimer(func() {
					rx.endArrival(a, &fl.frame)
					*a = arrival{}
					if left--; left == 0 {
						fl.free()
					}
				}).ArmReserved(at+fl.airtime, seq+1, fl.t0)
			}
		}
		clear(m.air)
		m.air = m.air[:0]
	}
}

// TestMergedDeliveryMatchesEdgePerEvent replays one storm on a production
// medium and on the edge-per-event reference and requires the same run:
// delivery trace, carrier-sense edges, per-radio stats (capture wins,
// radio-down drops and moves among them), event count, final clock. The storm has every RNG consumer of the transmit
// path (Rayleigh fading, a probabilistic impairment), bursts of eight frames
// started within a frame time of each other so that their cursors interleave
// edge by edge (two of them at the same instant), lone frames that decode cleanly, radios that answer a decoded
// frame from inside ReceiveFrame — a launch in the middle of a delivery — and
// MoveRadio and SetDown while frames are in flight.
func TestMergedDeliveryMatchesEdgePerEvent(t *testing.T) {
	type outcome struct {
		trace               string
		replies, maxFlights int
		inPlace             uint64
	}
	run := func(reference bool) outcome {
		engine := sim.NewEngine(7)
		medium := NewMedium(engine, propagation.NewTwoRay(), propagation.Rayleigh{}, DefaultParams())
		afterTransmit := func() {}
		if reference {
			afterTransmit = edgePerEvent(medium)
		}
		medium.SetImpairment(func(tx, rx packet.NodeID, _ time.Duration) Impairment {
			if (tx+rx)%3 == 0 {
				return Impairment{DropProb: 0.3}
			}
			return Impairment{Attenuation: 0.9}
		})
		var out outcome
		var log strings.Builder
		send := func(r *Radio, bytes int) {
			r.Transmit(dataFrame(r.ID, bytes))
			afterTransmit()
			// Every flight keeps its end cursor until its last edge.
			flights := 0
			for _, c := range medium.air {
				if c.end {
					flights++
				}
			}
			out.maxFlights = max(out.maxFlights, flights)
		}
		var radios []*Radio
		for i := 0; i < 16; i++ {
			r := medium.AttachRadio(packet.NodeID(i), geom.Point{X: float64(i%4) * 120, Y: float64(i/4) * 120})
			r.ReceiveFrame = func(f *packet.Frame) {
				fmt.Fprintf(&log, "%d<-%d@%v\n", r.ID, f.Src, engine.Now())
				// Every third radio acknowledges what it decodes on the spot.
				if r.ID%3 == 1 && f.Payload.PayloadBytes > 64 {
					out.replies++
					send(r, 32)
				}
			}
			r.BusyChanged = func(busy bool) { fmt.Fprintf(&log, "%d busy=%v@%v\n", r.ID, busy, engine.Now()) }
			radios = append(radios, r)
		}
		at := time.Duration(0)
		sendAt := func(r *Radio) { engine.At(at, func() { send(r, 256) }) }
		for round := 0; round < 40; round++ {
			// A burst: eight frames, each on air ≈ 1.2 ms, the first two started
			// at the same instant — on the lattice many receivers are equally
			// far from both, so edges tie on time and the sequence numbers
			// decide — and the rest 130 µs apart.
			for k := 0; k < 8; k++ {
				sendAt(radios[(round*5+k*3)%len(radios)])
				if k > 0 {
					at += 130 * time.Microsecond
				}
			}
			moved, downed := radios[(round*7)%len(radios)], radios[(round*11+2)%len(radios)]
			pos := geom.Point{X: float64((round * 97) % 500), Y: float64((round * 61) % 500)}
			engine.At(at, func() { medium.MoveRadio(moved, pos) })
			engine.At(at+200*time.Microsecond, func() { downed.SetDown(true) })
			engine.At(at+900*time.Microsecond, func() { downed.SetDown(false) })
			at += 3 * time.Millisecond
			// Two lone frames, clear of the burst and of each other's replies.
			for k := 0; k < 2; k++ {
				sendAt(radios[(round+k*9)%len(radios)])
				at += 2 * time.Millisecond
			}
		}
		engine.RunAll()
		for _, r := range radios {
			fmt.Fprintf(&log, "radio %d: %+v\n", r.ID, r.Stats)
		}
		fmt.Fprintf(&log, "events=%d now=%v\n", engine.Processed, engine.Now())
		if len(medium.air) != 0 || medium.edge.Pending() {
			t.Fatalf("reference=%v: %d cursors left, event pending=%v after the run drained", reference, len(medium.air), medium.edge.Pending())
		}
		assertPoolClean(t, medium)
		out.trace, out.inPlace = log.String(), engine.InPlace
		return out
	}

	merged, perEvent := run(false), run(true)
	if merged.trace != perEvent.trace {
		a, b := strings.Split(merged.trace, "\n"), strings.Split(perEvent.trace, "\n")
		for i := range a {
			if i >= len(b) || a[i] != b[i] {
				t.Fatalf("runs diverge at line %d of %d:\nmerged:    %s\nper event: %s", i, len(a), a[i], b[min(i, len(b)-1)])
			}
		}
		t.Fatalf("merged run logged %d lines, edge-per-event run %d", len(a), len(b))
	}
	// The comparison must have covered what it is for.
	if perEvent.inPlace != 0 {
		t.Fatalf("the reference stepped %d events in place", perEvent.inPlace)
	}
	if merged.inPlace == 0 {
		t.Fatal("the production medium stepped nothing in place")
	}
	if merged.maxFlights < 6 {
		t.Fatalf("at most %d flights in the merge heap at once; want six or more", merged.maxFlights)
	}
	if merged.replies == 0 || !strings.Contains(merged.trace, "<-") {
		t.Fatalf("%d transmits from inside ReceiveFrame; the storm must decode frames and answer some", merged.replies)
	}
}
