package phy

import (
	"math"
	"strings"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
)

func newTestMedium(t *testing.T, fading propagation.Fading) (*sim.Engine, *Medium) {
	t.Helper()
	engine := sim.NewEngine(42)
	medium := NewMedium(engine, propagation.NewTwoRay(), fading, DefaultParams())
	return engine, medium
}

func dataFrame(src packet.NodeID, bytes int) *packet.Frame {
	return &packet.Frame{
		Kind:    packet.FrameData,
		Src:     src,
		Dst:     packet.Broadcast,
		Payload: &packet.Packet{Kind: packet.TypeData, Src: src, PayloadBytes: bytes},
	}
}

func TestAirTime(t *testing.T) {
	p := DefaultParams()
	// 1000 bytes = 8000 bits at 2 Mbps = 4 ms, plus 192 µs preamble.
	got := p.AirTime(1000)
	want := 4*time.Millisecond + 192*time.Microsecond
	if got != want {
		t.Fatalf("AirTime(1000) = %v, want %v", got, want)
	}
}

func TestDeliveryWithinRangeNoFading(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	rx := medium.AttachRadio(1, geom.Point{X: 200, Y: 0})
	var got packet.Frame
	delivered := false
	// The delivered frame is valid only during the call: keep a copy.
	rx.ReceiveFrame = func(f *packet.Frame) { got, delivered = *f, true }
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 512)) })
	engine.RunAll()
	if !delivered {
		t.Fatal("frame not delivered at 200m without fading")
	}
	if got.Payload.Src != 0 {
		t.Fatalf("delivered frame has src %v", got.Payload.Src)
	}
	if rx.Stats.FramesDelivered != 1 {
		t.Fatalf("FramesDelivered = %d", rx.Stats.FramesDelivered)
	}
}

func TestNoDeliveryBeyondRangeNoFading(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	rx := medium.AttachRadio(1, geom.Point{X: 300, Y: 0})
	delivered := false
	rx.ReceiveFrame = func(*packet.Frame) { delivered = true }
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 512)) })
	engine.RunAll()
	if delivered {
		t.Fatal("frame delivered at 300m, beyond 250m range")
	}
	if rx.Stats.BelowThreshold != 1 {
		t.Fatalf("BelowThreshold = %d, want 1", rx.Stats.BelowThreshold)
	}
}

func TestCollisionEqualPower(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	// Two transmitters equidistant from the receiver, out of carrier-sense
	// range of each other is not needed — they transmit at the same instant.
	a := medium.AttachRadio(0, geom.Point{X: -200, Y: 0})
	b := medium.AttachRadio(1, geom.Point{X: 200, Y: 0})
	rx := medium.AttachRadio(2, geom.Point{X: 0, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }
	engine.Schedule(0, func() { a.Transmit(dataFrame(0, 512)) })
	engine.Schedule(0, func() { b.Transmit(dataFrame(1, 512)) })
	engine.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered = %d frames from an equal-power collision, want 0", delivered)
	}
	if rx.Stats.Collisions == 0 {
		t.Fatal("collision not counted")
	}
}

func TestCaptureStrongFrameSurvives(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	near := medium.AttachRadio(0, geom.Point{X: 100, Y: 0}) // strong at rx
	far := medium.AttachRadio(1, geom.Point{X: -245, Y: 0}) // weak at rx
	rx := medium.AttachRadio(2, geom.Point{X: 0, Y: 0})
	// Power ratio (245/100)^4 ≈ 36 > 10 dB capture ratio.
	delivered := 0
	var deliveredSrc packet.NodeID
	rx.ReceiveFrame = func(f *packet.Frame) { delivered++; deliveredSrc = f.Src }
	engine.Schedule(0, func() {
		near.Transmit(&packet.Frame{Kind: packet.FrameData, Src: 0, Dst: packet.Broadcast, Payload: &packet.Packet{Kind: packet.TypeData, PayloadBytes: 512}})
	})
	engine.Schedule(time.Microsecond, func() {
		far.Transmit(&packet.Frame{Kind: packet.FrameData, Src: 1, Dst: packet.Broadcast, Payload: &packet.Packet{Kind: packet.TypeData, PayloadBytes: 512}})
	})
	engine.RunAll()
	if delivered != 1 || deliveredSrc != 0 {
		t.Fatalf("delivered=%d src=%v; want exactly the strong frame", delivered, deliveredSrc)
	}
}

func TestWeakLateArrivalDoesNotCorruptLocked(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	near := medium.AttachRadio(0, geom.Point{X: 100, Y: 0})
	far := medium.AttachRadio(1, geom.Point{X: -245, Y: 0})
	rx := medium.AttachRadio(2, geom.Point{X: 0, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }
	// Strong frame first (locks), weak frame overlaps mid-way.
	engine.Schedule(0, func() { near.Transmit(dataFrame(0, 512)) })
	engine.Schedule(time.Millisecond, func() { far.Transmit(dataFrame(1, 64)) })
	engine.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (strong frame should capture)", delivered)
	}
	if rx.Stats.Collisions != 0 {
		t.Fatalf("Collisions = %d, want 0", rx.Stats.Collisions)
	}
}

func TestStrongLateArrivalCorruptsLocked(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	far := medium.AttachRadio(0, geom.Point{X: -245, Y: 0})
	near := medium.AttachRadio(1, geom.Point{X: 100, Y: 0})
	rx := medium.AttachRadio(2, geom.Point{X: 0, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }
	// Weak frame locks first; strong frame arrives mid-way and destroys it.
	// The strong frame itself is also lost (receiver was locked).
	engine.Schedule(0, func() { far.Transmit(dataFrame(0, 512)) })
	engine.Schedule(time.Millisecond, func() { near.Transmit(dataFrame(1, 512)) })
	engine.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
	if rx.Stats.Collisions == 0 {
		t.Fatal("expected a collision to be counted")
	}
}

func TestHalfDuplexReceiverTransmitting(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	a := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	b := medium.AttachRadio(1, geom.Point{X: 200, Y: 0})
	delivered := 0
	b.ReceiveFrame = func(*packet.Frame) { delivered++ }
	engine.Schedule(0, func() { b.Transmit(dataFrame(1, 512)) }) // b is busy transmitting
	engine.Schedule(time.Millisecond, func() { a.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered = %d while transmitting, want 0", delivered)
	}
	if b.Stats.HalfDuplexLoss == 0 {
		t.Fatal("half-duplex loss not counted")
	}
}

func TestCarrierSenseDuringTransmission(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	// Node at 400m: beyond receive range (250m) but within CS range (550m).
	sensor := medium.AttachRadio(1, geom.Point{X: 400, Y: 0})
	var busyDuring, busyAfter bool
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 512)) })
	engine.Schedule(time.Millisecond, func() { busyDuring = sensor.CarrierBusy() })
	engine.Schedule(time.Second, func() { busyAfter = sensor.CarrierBusy() })
	engine.RunAll()
	if !busyDuring {
		t.Fatal("sensor at 400m should sense carrier during transmission")
	}
	if busyAfter {
		t.Fatal("sensor should be idle after transmission ends")
	}
}

func TestBusyChangedFiresOnTransitionOnly(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	a := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	b := medium.AttachRadio(1, geom.Point{X: 10, Y: 0})
	rx := medium.AttachRadio(2, geom.Point{X: 100, Y: 0})
	var transitions []bool
	rx.BusyChanged = func(busy bool) { transitions = append(transitions, busy) }
	// Two overlapping transmissions: rx should see busy=true once at the
	// start and busy=false once after both end.
	engine.Schedule(0, func() { a.Transmit(dataFrame(0, 512)) })
	engine.Schedule(time.Millisecond, func() { b.Transmit(dataFrame(1, 512)) })
	engine.RunAll()
	if len(transitions) != 2 || transitions[0] != true || transitions[1] != false {
		t.Fatalf("transitions = %v, want [true false]", transitions)
	}
}

func TestRayleighEmpiricalDeliveryMatchesAnalytic(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.Rayleigh{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	rx := medium.AttachRadio(1, geom.Point{X: 180, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }
	const n = 20000
	for i := 0; i < n; i++ {
		i := i
		engine.At(time.Duration(i)*10*time.Millisecond, func() { tx.Transmit(dataFrame(0, 64)) })
	}
	engine.RunAll()
	want := medium.DeliveryProbability(tx.Pos, rx.Pos)
	got := float64(delivered) / n
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("empirical delivery %v, analytic %v", got, want)
	}
}

func TestDeliveryProbabilityNoFadingIsStep(t *testing.T) {
	_, medium := newTestMedium(t, propagation.NoFading{})
	in := medium.DeliveryProbability(geom.Point{}, geom.Point{X: 249})
	out := medium.DeliveryProbability(geom.Point{}, geom.Point{X: 251})
	if in != 1 || out != 0 {
		t.Fatalf("step delivery = (%v, %v), want (1, 0)", in, out)
	}
}

func TestIgnoredArrivalsBeyondInterferenceRange(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	far := medium.AttachRadio(1, geom.Point{X: 5000, Y: 0})
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 512)) })
	engine.RunAll()
	if far.Stats.BelowThreshold != 0 {
		t.Fatal("arrival at 5km should be ignored entirely, not modeled")
	}
	if far.CarrierBusy() {
		t.Fatal("radio at 5km should never sense carrier")
	}
}

func TestSumInterferenceBlocksLock(t *testing.T) {
	// Several individually weak interferers can still drown a new arrival:
	// locking uses the interference *sum*. Three transmitters near the
	// receiver start first; a fourth, slightly farther, then cannot lock.
	engine, medium := newTestMedium(t, propagation.NoFading{})
	var interferers []*Radio
	for i := 0; i < 3; i++ {
		interferers = append(interferers,
			medium.AttachRadio(packet.NodeID(i), geom.Point{X: 120, Y: float64(i * 5)}))
	}
	wanted := medium.AttachRadio(9, geom.Point{X: -160, Y: 0})
	rx := medium.AttachRadio(10, geom.Point{X: 0, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }
	// Interferers transmit together: equal power → none locks cleanly at
	// rx, but their energy is on the air.
	for _, r := range interferers {
		r := r
		engine.Schedule(0, func() { r.Transmit(dataFrame(r.ID, 512)) })
	}
	// The wanted frame arrives while the channel carries 3x interference;
	// power(160m) < 10 x [3 x power(120m)] so it must not lock.
	engine.Schedule(100*time.Microsecond, func() { wanted.Transmit(dataFrame(9, 512)) })
	engine.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered = %d; sum interference should block the lock", delivered)
	}
}

func TestPropagationDelayOrdersArrivals(t *testing.T) {
	// A frame reaches a 50m receiver before a 200m receiver.
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	near := medium.AttachRadio(1, geom.Point{X: 50, Y: 0})
	far := medium.AttachRadio(2, geom.Point{X: 200, Y: 0})
	var nearAt, farAt time.Duration
	near.ReceiveFrame = func(*packet.Frame) { nearAt = engine.Now() }
	far.ReceiveFrame = func(*packet.Frame) { farAt = engine.Now() }
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 512)) })
	engine.RunAll()
	if nearAt == 0 || farAt == 0 {
		t.Fatal("frames not delivered")
	}
	if farAt <= nearAt {
		t.Fatalf("far receiver finished at %v, near at %v; propagation delay missing", farAt, nearAt)
	}
}

func TestOnTransmitHookSeesEveryFrame(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	medium.AttachRadio(1, geom.Point{X: 100, Y: 0})
	var seen []packet.NodeID
	medium.onTransmit = func(_ time.Duration, f *packet.Frame) { seen = append(seen, f.Src) }
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.Schedule(time.Second, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if len(seen) != 2 || seen[0] != 0 {
		t.Fatalf("onTransmit saw %v", seen)
	}
}

func TestImpairmentDropAndAttenuation(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	rx := medium.AttachRadio(1, geom.Point{X: 200, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }

	// Total blackout: nothing arrives, not even carrier sense.
	medium.SetImpairment(func(_, _ packet.NodeID, _ time.Duration) Impairment {
		return Impairment{DropProb: 1}
	})
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 0 || rx.Stats.BelowThreshold != 0 {
		t.Fatalf("blackout delivered=%d belowThreshold=%d", delivered, rx.Stats.BelowThreshold)
	}

	// Heavy attenuation: the arrival exists but is too weak to decode.
	medium.SetImpairment(func(_, _ packet.NodeID, _ time.Duration) Impairment {
		return Impairment{Attenuation: 1e-3}
	})
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 0 {
		t.Fatal("attenuated frame decoded")
	}

	// Hook removed: back to clean delivery.
	medium.SetImpairment(nil)
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered = %d after impairment removed, want 1", delivered)
	}
}

func TestImpairmentIsDirectional(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	a := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	b := medium.AttachRadio(1, geom.Point{X: 200, Y: 0})
	var aGot, bGot int
	a.ReceiveFrame = func(*packet.Frame) { aGot++ }
	b.ReceiveFrame = func(*packet.Frame) { bGot++ }
	// Impair only the 0 -> 1 direction (asymmetric degradation).
	medium.SetImpairment(func(tx, rx packet.NodeID, _ time.Duration) Impairment {
		if tx == 0 && rx == 1 {
			return Impairment{DropProb: 1}
		}
		return Impairment{}
	})
	engine.Schedule(0, func() { a.Transmit(dataFrame(0, 64)) })
	engine.Schedule(time.Second, func() { b.Transmit(dataFrame(1, 64)) })
	engine.RunAll()
	if bGot != 0 {
		t.Fatalf("impaired direction delivered %d frames", bGot)
	}
	if aGot != 1 {
		t.Fatalf("reverse direction delivered %d frames, want 1", aGot)
	}
}

func TestRadioDown(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	rx := medium.AttachRadio(1, geom.Point{X: 200, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }

	rx.SetDown(true)
	if rx.CarrierBusy() {
		t.Fatal("dead radio senses carrier")
	}
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 0 {
		t.Fatal("dead radio decoded a frame")
	}

	// A dead radio does not transmit either.
	sentBefore := tx.Stats.FramesSent
	tx.SetDown(true)
	if d := tx.Transmit(dataFrame(0, 64)); d != 0 {
		t.Fatalf("dead radio reported airtime %v", d)
	}
	if tx.Stats.FramesSent != sentBefore {
		t.Fatal("dead radio counted a transmission")
	}

	// Power both back on: delivery resumes.
	tx.SetDown(false)
	rx.SetDown(false)
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered = %d after power-on, want 1", delivered)
	}
}

func TestBeginArrivalBranches(t *testing.T) {
	p := DefaultParams()
	strong := p.RxThresholdW * 100
	weak := p.RxThresholdW / 2
	cases := []struct {
		name string
		// setup prepares the radio's state (down, transmitting, prior
		// arrivals) and returns the power of the arrival under test.
		setup func(engine *sim.Engine, r *Radio) float64
		check func(t *testing.T, r *Radio, a *arrival)
	}{
		{
			name:  "down radio counts decodable arrival as drop",
			setup: func(_ *sim.Engine, r *Radio) float64 { r.SetDown(true); return strong },
			check: func(t *testing.T, r *Radio, a *arrival) {
				if got := r.Stats.RadioDownDrops; got != 1 {
					t.Fatalf("RadioDownDrops = %d, want 1", got)
				}
				if r.locked != nil {
					t.Fatal("down radio must not lock")
				}
			},
		},
		{
			name:  "down radio ignores sub-threshold arrival",
			setup: func(_ *sim.Engine, r *Radio) float64 { r.SetDown(true); return weak },
			check: func(t *testing.T, r *Radio, a *arrival) {
				// Regression: sub-threshold signals could never have been
				// decoded, so they must not inflate RadioDownDrops — and a
				// dead radio does not observe them as BelowThreshold either.
				if got := r.Stats.RadioDownDrops; got != 0 {
					t.Fatalf("RadioDownDrops = %d, want 0 for sub-threshold arrival", got)
				}
				if r.Stats.BelowThreshold != 0 {
					t.Fatalf("BelowThreshold = %d, want 0 on a down radio", r.Stats.BelowThreshold)
				}
			},
		},
		{
			name: "transmitting radio is deaf",
			setup: func(engine *sim.Engine, r *Radio) float64 {
				r.txUntil = engine.Now() + time.Second
				return strong
			},
			check: func(t *testing.T, r *Radio, a *arrival) {
				if r.Stats.HalfDuplexLoss != 1 {
					t.Fatalf("HalfDuplexLoss = %d, want 1", r.Stats.HalfDuplexLoss)
				}
				if r.locked == a {
					t.Fatal("arrival during transmit must not lock")
				}
			},
		},
		{
			name:  "sub-threshold arrival counts BelowThreshold",
			setup: func(*sim.Engine, *Radio) float64 { return weak },
			check: func(t *testing.T, r *Radio, a *arrival) {
				if r.Stats.BelowThreshold != 1 {
					t.Fatalf("BelowThreshold = %d, want 1", r.Stats.BelowThreshold)
				}
			},
		},
		{
			name:  "clean arrival locks",
			setup: func(*sim.Engine, *Radio) float64 { return strong },
			check: func(t *testing.T, r *Radio, a *arrival) {
				if r.locked != a {
					t.Fatal("idle radio must lock onto a decodable arrival")
				}
			},
		},
		{
			name: "existing interference blocks the lock",
			setup: func(_ *sim.Engine, r *Radio) float64 {
				// A sub-threshold interferer already on the air; the new
				// arrival is decodable but fails the capture test against
				// the interference sum.
				r.beginArrival(&arrival{power: p.RxThresholdW / 1.5})
				return p.RxThresholdW * 1.01
			},
			check: func(t *testing.T, r *Radio, a *arrival) {
				if r.locked != nil {
					t.Fatal("lock must fail against interference")
				}
				if r.Stats.Collisions != 1 {
					t.Fatalf("Collisions = %d, want 1", r.Stats.Collisions)
				}
			},
		},
		{
			name: "locked frame captures weak newcomer",
			setup: func(_ *sim.Engine, r *Radio) float64 {
				r.beginArrival(&arrival{power: strong})
				return strong / 100 // below capture ratio of the locked frame
			},
			check: func(t *testing.T, r *Radio, a *arrival) {
				if r.locked == nil || r.locked == a {
					t.Fatal("locked frame must survive a weak newcomer")
				}
				if got := r.Stats.CaptureWins; got != 1 {
					t.Fatalf("CaptureWins = %d, want 1", got)
				}
			},
		},
		{
			name: "strong newcomer destroys the lock",
			setup: func(_ *sim.Engine, r *Radio) float64 {
				r.beginArrival(&arrival{power: strong})
				return strong // equal power: locked cannot capture it
			},
			check: func(t *testing.T, r *Radio, a *arrival) {
				if r.locked == a {
					t.Fatal("the destroying newcomer is itself lost")
				}
				if r.locked != nil {
					t.Fatal("lock must be destroyed by an equal-power newcomer")
				}
				if r.Stats.Collisions != 1 {
					t.Fatalf("Collisions = %d, want 1", r.Stats.Collisions)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engine, medium := newTestMedium(t, propagation.NoFading{})
			r := medium.AttachRadio(0, geom.Point{})
			power := tc.setup(engine, r)
			a := &arrival{power: power}
			r.beginArrival(a)
			tc.check(t, r, a)
		})
	}
}

func TestHalfDuplexOverlappingTransmissions(t *testing.T) {
	// Regression: the radio used to clear a transmitting *flag* when its
	// first frame ended, going receive-capable while a second, overlapping
	// frame was still on the air.
	engine, medium := newTestMedium(t, propagation.NoFading{})
	a := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	b := medium.AttachRadio(1, geom.Point{X: 200, Y: 0})
	delivered := 0
	b.ReceiveFrame = func(*packet.Frame) { delivered++ }
	// 512 B frames are on air 2.24 ms each: b covers [0, 2.24] and
	// [1, 3.24] ms. a's short frame falls entirely inside (2.24, 3.24] —
	// after the first frame ended but while the second is still out.
	engine.Schedule(0, func() { b.Transmit(dataFrame(1, 512)) })
	engine.Schedule(time.Millisecond, func() { b.Transmit(dataFrame(1, 512)) })
	engine.Schedule(2500*time.Microsecond, func() { a.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 0 {
		t.Fatalf("delivered = %d during b's second transmission, want 0", delivered)
	}
	if b.Stats.HalfDuplexLoss == 0 {
		t.Fatal("overlapping-transmit loss not counted as half duplex")
	}
	// Once both frames are off the air the radio hears again.
	engine.Schedule(0, func() { a.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered = %d after transmissions ended, want 1", delivered)
	}
}

func TestLinkCacheInvalidatedOnAttachRadio(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	first := medium.AttachRadio(1, geom.Point{X: 100, Y: 0})
	var firstGot, lateGot int
	first.ReceiveFrame = func(*packet.Frame) { firstGot++ }
	// First transmission builds tx's candidate list.
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	// A radio attached afterwards must appear in the rebuilt list.
	late := medium.AttachRadio(2, geom.Point{X: 150, Y: 0})
	late.ReceiveFrame = func(*packet.Frame) { lateGot++ }
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if firstGot != 2 || lateGot != 1 {
		t.Fatalf("got %d/%d deliveries, want 2/1 (cache must pick up the late radio)", firstGot, lateGot)
	}
}

func TestLinkCacheInvalidatedOnSetLinkFunc(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	rx := medium.AttachRadio(1, geom.Point{X: 100, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 1 {
		t.Fatalf("physics delivery = %d, want 1", delivered)
	}
	// An oracle that silences the link entirely must take effect on the
	// next frame even though a physics candidate list was already cached.
	medium.SetLinkFunc(func(_, _ packet.NodeID, _ time.Duration, _ *sim.RNG) float64 { return 0 })
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 1 {
		t.Fatalf("delivery under zero oracle = %d, want still 1", delivered)
	}
	// And restoring physics must rebuild the physics list.
	medium.SetLinkFunc(nil)
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if delivered != 2 {
		t.Fatalf("delivery after restoring physics = %d, want 2", delivered)
	}
}

// The reference media. The determinism tests replay a run on a production
// medium and on a reference that shares the per-candidate loop in transmit but
// none of the machinery that decides what is in a candidate list, so what the
// comparison checks is geometry: membership, mean power, propagation delay.
// Both references reach into package-private state from here; non-test code
// has no switch for either. They must run before the first AttachRadio.

// asBuilt leaves the medium as NewMedium made it: the production side of a
// comparison.
func asBuilt(*Medium) {}

// withoutIndex drops the cell index: buildLinks falls back to the brute-force
// scan and every attach or move discards the whole cache.
func withoutIndex(m *Medium) { m.grid = nil }

// rebuiltEveryFrame is withoutIndex with no cache at all: onTransmit runs
// before transmit fetches the candidate list, so every frame scans all radios
// at their current positions.
func rebuiltEveryFrame(m *Medium) {
	withoutIndex(m)
	m.onTransmit = func(time.Duration, *packet.Frame) { m.invalidateLinks() }
}

// TestSetDownRederivesCarrierSense is the regression test for the power-state
// carrier-sense bug: SetDown used to flip only the `down` flag, so a radio
// powered down while sensing carrier kept lastBusy=true (the MAC believed the
// channel busy until the next unrelated arrival edge), and a radio powered up
// amid in-flight arrivals reported idle until the same. Both transitions must
// notify immediately. This test fails on the pre-fix code: the busy=false and
// busy=true edges below only appear at the frame-end event (~2.43 ms).
func TestSetDownRederivesCarrierSense(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	// Sensor at 400m: beyond receive range (250m) but within CS range (550m),
	// so the frame is pure carrier with no decode path involved.
	sensor := medium.AttachRadio(1, geom.Point{X: 400, Y: 0})
	type edge struct {
		busy bool
		at   time.Duration
	}
	var edges []edge
	sensor.BusyChanged = func(busy bool) { edges = append(edges, edge{busy, engine.Now()}) }
	// 512 B frame: on air 2.24 ms, occupying the sensor's channel for
	// (prop, prop+2.24ms] — comfortably past both SetDown calls below.
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 512)) })
	engine.Schedule(time.Millisecond, func() { sensor.SetDown(true) })
	engine.Schedule(1500*time.Microsecond, func() { sensor.SetDown(false) })
	engine.RunAll()
	want := []edge{
		{true, 0},                        // frame reaches the sensor (after prop delay)
		{false, time.Millisecond},        // power-down mid-frame: idle NOW, not at frame end
		{true, 1500 * time.Microsecond},  // power-up mid-frame: busy NOW, not at next edge
		{false, 2440 * time.Microsecond}, // frame leaves the air
	}
	if len(edges) != len(want) {
		t.Fatalf("busy edges = %+v, want %d edges", edges, len(want))
	}
	for i := 1; i < 3; i++ { // the two SetDown-driven edges must be instant
		if edges[i].busy != want[i].busy || edges[i].at != want[i].at {
			t.Fatalf("edge %d = %+v, want %+v (SetDown must re-derive carrier sense immediately)",
				i, edges[i], want[i])
		}
	}
	if edges[0].busy != true || edges[3].busy != false {
		t.Fatalf("busy edges = %+v, want busy/idle bracket around the frame", edges)
	}
	if edges[3].at < 2240*time.Microsecond {
		t.Fatalf("final idle edge at %v, before the frame left the air", edges[3].at)
	}
}

func TestDeliveryProbabilityPanicsUnderLinkFunc(t *testing.T) {
	_, medium := newTestMedium(t, propagation.NoFading{})
	medium.SetLinkFunc(func(_, _ packet.NodeID, _ time.Duration, _ *sim.RNG) float64 { return 1 })
	defer func() {
		if recover() == nil {
			t.Fatal("DeliveryProbability answered from physics while a LinkFunc oracle was active")
		}
	}()
	medium.DeliveryProbability(geom.Point{}, geom.Point{X: 100})
}

// assertPoolClean verifies every pooled flight record came back reset: a zero
// frame (a stale Payload would keep the last packet alive), no cursor left in the medium's merge heap, and every arrival slot —
// up to capacity, not just the length of the last use — zero. A stale
// rx/power/rank here would leak into the next frame that draws the record
// from the pool (an occupied slot is a phantom arrival; the cursors tell empty
// slots by rx == 0), and a stale cursor would deliver the next frame's
// arrivals under the last one's keys.
func assertPoolClean(t *testing.T, m *Medium) {
	t.Helper()
	for i, fl := range m.flightPool {
		if fl.frame != (packet.Frame{}) {
			t.Fatalf("pooled flight %d still holds its frame: %+v", i, fl.frame)
		}
		for _, c := range m.air {
			if c.fl == fl {
				t.Fatalf("pooled flight %d has a cursor left in the merge heap: %+v", i, c)
			}
		}
		if len(fl.decodes.Decodes) != 0 {
			t.Fatalf("pooled flight %d still holds decodes: %+v", i, fl.decodes.Decodes)
		}
		for j, a := range fl.arrivals[:cap(fl.arrivals)] {
			if a != (arrival{}) {
				t.Fatalf("pooled flight %d slot %d not reset: %+v", i, j, a)
			}
		}
	}
}

// TestArrivalPoolReuseAcrossSetDownMidFlight powers the receiver down while
// an arrival is locked (unlocking it), lets the frame's record return to the
// pool, and reuses it for a clean delivery: nothing of the aborted frame may
// leak into the recycled record.
func TestArrivalPoolReuseAcrossSetDownMidFlight(t *testing.T) {
	engine, medium := newTestMedium(t, propagation.NoFading{})
	tx := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	rx := medium.AttachRadio(1, geom.Point{X: 200, Y: 0})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }
	// Frame 1: rx powers down mid-flight. SetDown unlocks the locked
	// arrival; endArrival still runs and the record returns to the pool.
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 512)) })
	engine.Schedule(time.Millisecond, func() { rx.SetDown(true) })
	engine.RunAll()
	if delivered != 0 {
		t.Fatal("frame delivered despite mid-flight power-down")
	}
	if len(medium.flightPool) == 0 {
		t.Fatal("aborted frame's record not returned to the pool")
	}
	assertPoolClean(t, medium)
	// Frame 2: the recycled record must deliver cleanly.
	rx.SetDown(false)
	poolBefore := len(medium.flightPool)
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 512)) })
	engine.RunAll()
	if delivered != 1 {
		t.Fatalf("delivered = %d reusing the pooled record, want 1", delivered)
	}
	if len(medium.flightPool) != poolBefore {
		t.Fatalf("pool size %d after reuse cycle, want %d", len(medium.flightPool), poolBefore)
	}
	assertPoolClean(t, medium)
}

func TestLinkCacheByteIdenticalToUncached(t *testing.T) {
	// The determinism contract: same seed, same delivery trace, same
	// counters, same event count — from cached lists or from a scan of every
	// radio for every frame.
	cachedTrace := denseStormTrace(t, asBuilt, 150)
	uncachedTrace := denseStormTrace(t, rebuiltEveryFrame, 150)
	if cachedTrace != uncachedTrace {
		t.Fatalf("cached and uncached runs diverged:\ncached:\n%s\nuncached:\n%s", cachedTrace, uncachedTrace)
	}
	if !strings.Contains(cachedTrace, "<-") {
		t.Fatal("storm delivered nothing; the comparison is vacuous")
	}
}
