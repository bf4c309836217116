package experiments

import (
	"reflect"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/mac"
	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/node"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/traffic"
)

// mobileScenario is smallScenario with a waypoint mover from traffic start.
func mobileScenario(t *testing.T, seed uint64, speed float64, dur time.Duration) ScenarioConfig {
	t.Helper()
	cfg := smallScenario(t, metric.SPP, seed, dur)
	cfg.Mobility = &mobility.Config{
		Model:       mobility.ModelWaypoint,
		MaxSpeedMps: speed,
		Start:       cfg.TrafficStart,
	}
	return cfg
}

func TestRunScenarioMobilityResult(t *testing.T) {
	res, err := RunScenario(mobileScenario(t, 7, 10, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mobility
	if m == nil {
		t.Fatal("mobility scenario produced no MobilityResult")
	}
	if m.Moves == 0 {
		t.Fatal("mover applied no position changes")
	}
	if m.Model != mobility.ModelWaypoint || m.MaxSpeedMps != 10 {
		t.Fatalf("echoed config = %s %.1f m/s", m.Model, m.MaxSpeedMps)
	}
	if len(m.Groups) != 1 {
		t.Fatalf("mobility groups = %d, want 1", len(m.Groups))
	}
	if g := m.Groups[0]; g.SentInMotion == 0 || g.MotionPDR <= 0 {
		t.Fatalf("motion window saw no traffic: %+v", g)
	}
	if res.Health != nil {
		t.Fatal("no faults injected, but Health is set")
	}
}

// TestMobilityBreakRateFromMover: the break rate is the mover's own link
// breaks over the motion window, which runs from traffic start to the end
// of the run when the config leaves End zero.
func TestMobilityBreakRateFromMover(t *testing.T) {
	cfg := mobileScenario(t, 7, 10, 30*time.Second)
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Mobility
	if m.LinkBreaks == 0 {
		t.Fatal("mover broke no links; the rate is not exercised")
	}
	window := cfg.Duration - cfg.Mobility.Start
	if want := float64(m.LinkBreaks) / window.Seconds(); m.BreakRatePerSec != want {
		t.Fatalf("break rate = %v, want %d breaks / %v = %v", m.BreakRatePerSec, m.LinkBreaks, window, want)
	}
}

func TestRunScenarioMobilityDeterministic(t *testing.T) {
	a, err := RunScenario(mobileScenario(t, 11, 8, 25*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(mobileScenario(t, 11, 8, 25*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Fatalf("same seed produced different summaries:\n%+v\n%+v", a.Summary, b.Summary)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
	if !reflect.DeepEqual(a.Mobility, b.Mobility) {
		t.Fatalf("mobility results differ:\n%+v\n%+v", a.Mobility, b.Mobility)
	}
}

// TestRunScenarioMobilityChangesOutcome: the mover must actually perturb the
// run — a mobile run cannot be byte-identical with the static one.
func TestRunScenarioMobilityChangesOutcome(t *testing.T) {
	static, err := RunScenario(smallScenario(t, metric.SPP, 7, 25*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	mobile, err := RunScenario(mobileScenario(t, 7, 15, 25*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if static.Summary == mobile.Summary && static.Events == mobile.Events {
		t.Fatal("15 m/s motion left the run untouched")
	}
}

// TestScenarioKeyMobilitySensitivity: the result-cache key must separate
// static from mobile runs and distinguish mobility parameters, while staying
// stable for identical configurations.
func TestScenarioKeyMobilitySensitivity(t *testing.T) {
	static := smallScenario(t, metric.SPP, 3, 20*time.Second)
	mobile := mobileScenario(t, 3, 10, 20*time.Second)

	kStatic, ok := ScenarioKey(static)
	if !ok {
		t.Fatal("static scenario not cachable")
	}
	kMobile, ok := ScenarioKey(mobile)
	if !ok {
		t.Fatal("mobile scenario not cachable")
	}
	if kStatic == kMobile {
		t.Fatal("mobility config did not change the cache key")
	}
	again, _ := ScenarioKey(mobileScenario(t, 3, 10, 20*time.Second))
	if kMobile != again {
		t.Fatal("identical mobile scenarios produced different keys")
	}
	faster := mobileScenario(t, 3, 20, 20*time.Second)
	kFaster, _ := ScenarioKey(faster)
	if kFaster == kMobile {
		t.Fatal("speed change did not change the cache key")
	}
	rpgm := mobileScenario(t, 3, 10, 20*time.Second)
	rpgm.Mobility.Model = mobility.ModelRPGM
	kRPGM, _ := ScenarioKey(rpgm)
	if kRPGM == kMobile {
		t.Fatal("model change did not change the cache key")
	}
}

// TestRunScenarioMetroWaypoint1k is the scale acceptance check: the
// 1000-node clustered-metro scenario with a waypoint mover runs end to end
// and reports motion metrics.
func TestRunScenarioMetroWaypoint1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node scenario in -short mode")
	}
	cfg, err := MetroScenario(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mobility = &mobility.Config{
		Model:       mobility.ModelWaypoint,
		MaxSpeedMps: 10,
		Start:       cfg.TrafficStart,
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mobility == nil || res.Mobility.Moves == 0 {
		t.Fatal("metro mover applied no moves")
	}
	if res.Summary.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
	if res.Summary.PDR <= 0 || res.Summary.PDR > 1.0001 {
		t.Fatalf("PDR = %v", res.Summary.PDR)
	}
}

// TestMobilityPDRRecoversAfterTreeBreak forces a tree break: a three-node
// chain source→relay→member where the only relay walks out of radio range
// mid-run and comes back. Delivery must stop while the relay is away and
// resume after it returns — the protocol's periodic route refresh has to
// re-form the forwarding structure without help.
func TestMobilityPDRRecoversAfterTreeBreak(t *testing.T) {
	engine := sim.NewEngine(9)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())

	nodeCfg := node.DefaultConfig(metric.MinHop) // no probes: crisp break semantics
	nodeCfg.MAC = mac.DefaultParams()
	positions := []geom.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}}
	nodes := make([]*node.Node, len(positions))
	for i, pos := range positions {
		n, err := node.New(engine, medium, packet.NodeID(i), pos, nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		n.Start()
	}
	relay := nodes[1]

	const group = packet.GroupID(1)
	var deliveries []time.Duration
	nodes[2].Router.JoinGroup(group)
	nodes[2].Router.SetOnDeliver(func(*packet.Packet, packet.NodeID) {
		deliveries = append(deliveries, engine.Now())
	})
	cbr := traffic.NewCBR(engine, nodes[0].Router, traffic.CBRConfig{
		Group:        group,
		PayloadBytes: 256,
		Interval:     100 * time.Millisecond,
		Start:        time.Second,
	})
	cbr.Start()

	// The relay leaves at 10 s and returns at 20 s.
	away, home := geom.Point{X: 200, Y: 3000}, positions[1]
	engine.At(10*time.Second, func() { medium.MoveRadio(relay.Radio, away) })
	engine.At(20*time.Second, func() { medium.MoveRadio(relay.Radio, home) })
	engine.Run(35 * time.Second)

	count := func(from, to time.Duration) int {
		n := 0
		for _, at := range deliveries {
			if at >= from && at < to {
				n++
			}
		}
		return n
	}
	if n := count(0, 10*time.Second); n == 0 {
		t.Fatal("no deliveries before the break")
	}
	// Allow in-flight packets and stale forwarding state a grace second.
	if n := count(11*time.Second, 20*time.Second); n != 0 {
		t.Fatalf("%d deliveries while the only relay was out of range", n)
	}
	if n := count(21*time.Second, 35*time.Second); n == 0 {
		t.Fatal("delivery did not recover after the relay returned")
	}
}
