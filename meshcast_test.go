package meshcast

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestPublicPathCostFigure1(t *testing.T) {
	// Figure 1 through the public API: SPP prefers A-C-D, METX prefers
	// A-B-D.
	acd := []LinkEstimate{{DeliveryProb: 1}, {DeliveryProb: 1.0 / 3.0}}
	abd := []LinkEstimate{{DeliveryProb: 0.25}, {DeliveryProb: 1}}

	sppACD, err := PathCost(SPP, acd)
	if err != nil {
		t.Fatal(err)
	}
	sppABD, _ := PathCost(SPP, abd)
	better, _ := BetterPath(SPP, sppACD, sppABD)
	if !better {
		t.Fatal("SPP should prefer A-C-D")
	}

	metxACD, _ := PathCost(METX, acd)
	metxABD, _ := PathCost(METX, abd)
	if math.Abs(metxACD-6) > 1e-9 || math.Abs(metxABD-5) > 1e-9 {
		t.Fatalf("METX = (%v, %v), want (6, 5)", metxACD, metxABD)
	}
	better, _ = BetterPath(METX, metxABD, metxACD)
	if !better {
		t.Fatal("METX should prefer A-B-D")
	}
}

func TestPublicPathCostUnknownMetric(t *testing.T) {
	if _, err := PathCost(Metric(99), nil); err == nil {
		t.Fatal("expected error")
	}
	if _, err := BetterPath(Metric(99), 1, 2); err == nil {
		t.Fatal("expected error")
	}
}

func TestParseMetricRoundTrip(t *testing.T) {
	for _, m := range Metrics() {
		got, err := ParseMetric(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMetric(%q) = %v, %v", m.String(), got, err)
		}
	}
	if len(LinkQualityMetrics()) != 5 {
		t.Fatal("expected 5 link-quality metrics")
	}
}

func TestSimulationEndToEnd(t *testing.T) {
	s := NewSimulation(SimulationConfig{Seed: 42, Metric: SPP, DisableFading: true})
	// A 4-node chain, 200 m spacing.
	var ids []NodeID
	for i := 0; i < 4; i++ {
		id, err := s.AddNode(float64(i)*200, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if s.NodeCount() != 4 {
		t.Fatalf("NodeCount = %d", s.NodeCount())
	}
	if err := s.Join(ids[3], 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSource(ids[0], 1, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Run(60 * time.Second)
	sum := s.Summary()
	if sum.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
	if sum.PDR < 0.8 {
		t.Fatalf("PDR = %v on a clean chain", sum.PDR)
	}
	if got := s.PerMember(); len(got) != 1 || got[0].Member != ids[3] {
		t.Fatalf("PerMember = %v", got)
	}
	if !s.IsForwarder(ids[1], 1) || !s.IsForwarder(ids[2], 1) {
		t.Fatal("chain intermediates should be forwarders")
	}
	if len(s.EdgeUse()) == 0 {
		t.Fatal("no edge usage recorded")
	}
	if s.Now() != 60*time.Second {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSimulationJoinBeforeSourceStillSubscribed(t *testing.T) {
	s := NewSimulation(SimulationConfig{Seed: 1, DisableFading: true})
	a, _ := s.AddNode(0, 0)
	b, _ := s.AddNode(150, 0)
	if err := s.Join(b, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSource(a, 7, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Run(30 * time.Second)
	if got := s.PerMember(); len(got) != 1 {
		t.Fatalf("member joined before source was not subscribed: %v", got)
	}
}

func TestSimulationAddRandomNodes(t *testing.T) {
	s := NewSimulation(SimulationConfig{Seed: 3, DisableFading: true})
	ids, err := s.AddRandomNodes(15, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 15 || s.NodeCount() != 15 {
		t.Fatalf("ids = %d, count = %d", len(ids), s.NodeCount())
	}
}

func TestSimulationUnknownNode(t *testing.T) {
	s := NewSimulation(SimulationConfig{Seed: 1})
	if err := s.Join(99, 1); err == nil {
		t.Fatal("Join of unknown node should fail")
	}
	if err := s.AddSource(99, 1, 0); err == nil {
		t.Fatal("AddSource of unknown node should fail")
	}
	if s.IsForwarder(99, 1) {
		t.Fatal("unknown node is not a forwarder")
	}
}

func TestPublicTestbedRun(t *testing.T) {
	cfg := DefaultTestbedConfig(PP, 1)
	cfg.WarmupSeconds = 30
	cfg.TrafficSeconds = 60
	res, err := RunTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.PDR <= 0 {
		t.Fatal("testbed delivered nothing")
	}
	if edges := TestbedHeavyEdges(res, 0.3); len(edges) == 0 {
		t.Fatal("no heavy edges")
	}
}

func TestPaperScenarioExposed(t *testing.T) {
	cfg, err := PaperScenario(SPP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.NodeCount() != 50 {
		t.Fatalf("paper scenario nodes = %d", cfg.Topology.NodeCount())
	}
	// Shrink for test runtime.
	cfg.TrafficStart = 5 * time.Second
	cfg.Duration = 20 * time.Second
	res, err := RunPaperScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.PacketsSent == 0 {
		t.Fatal("no packets sent")
	}
}

func TestSimulationDelayPercentiles(t *testing.T) {
	s := NewSimulation(SimulationConfig{Seed: 4, DisableFading: true})
	a, _ := s.AddNode(0, 0)
	b, _ := s.AddNode(150, 0)
	if err := s.Join(b, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSource(a, 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Run(20 * time.Second)
	p := s.DelayPercentiles()
	if p.Count == 0 {
		t.Fatal("no delays observed")
	}
	if p.P50 <= 0 || p.P50 > p.Max {
		t.Fatalf("percentiles = %+v", p)
	}
	// One hop at 2 Mbps: a 586-byte frame takes ~2.5 ms; the median delay
	// should be in the low milliseconds.
	if p.P50 > 20*time.Millisecond {
		t.Fatalf("1-hop median delay = %v, implausibly high", p.P50)
	}
}

func TestTestbedMapsRender(t *testing.T) {
	if out := TestbedMap(80); len(out) < 100 {
		t.Fatalf("TestbedMap too small: %q", out)
	}
	cfg := DefaultTestbedConfig(PP, 1)
	cfg.WarmupSeconds = 20
	cfg.TrafficSeconds = 30
	res, err := RunTestbed(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out := TestbedTreeMap(res, 0.3, 80); len(out) < 100 {
		t.Fatalf("TestbedTreeMap too small: %q", out)
	}
}

func TestSimulationGroupSummary(t *testing.T) {
	s := NewSimulation(SimulationConfig{Seed: 9, DisableFading: true})
	a, _ := s.AddNode(0, 0)
	b, _ := s.AddNode(150, 0)
	if err := s.Join(b, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSource(a, 4, time.Second); err != nil {
		t.Fatal(err)
	}
	s.Run(10 * time.Second)
	g := s.GroupSummary(4)
	if g.PacketsSent == 0 || g.PDR < 0.9 {
		t.Fatalf("group summary = %+v", g)
	}
	if other := s.GroupSummary(5); other.PacketsSent != 0 {
		t.Fatalf("unknown group = %+v", other)
	}
}

func TestSimulationTelemetry(t *testing.T) {
	s := NewSimulation(SimulationConfig{Seed: 42, Metric: SPP, DisableFading: true})
	if _, ok := s.Telemetry(); ok {
		t.Fatal("Telemetry reported a snapshot before EnableTelemetry")
	}
	s.EnableTelemetry()
	s.EnableTelemetry() // idempotent
	var ids []NodeID
	for i := 0; i < 4; i++ {
		id, err := s.AddNode(float64(i)*200, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.Join(ids[3], 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSource(ids[0], 1, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Run(60 * time.Second)

	snap, ok := s.Telemetry()
	if !ok {
		t.Fatal("Telemetry disabled after EnableTelemetry")
	}
	for _, name := range []string{
		"phy.frames_sent", "mac.enqueued", "odmrp.data_delivered",
		"linkquality.probes_sent",
	} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0", name)
		}
	}
	// The fg_size gauge must agree with the public IsForwarder view.
	want := 0
	for _, id := range ids {
		if s.IsForwarder(id, 1) {
			want++
		}
	}
	if got := int(snap.Gauges["odmrp.fg_size"]); got != want || want == 0 {
		t.Fatalf("odmrp.fg_size = %d, want %d (nonzero)", got, want)
	}
}

func TestSimulationTelemetryDoesNotPerturb(t *testing.T) {
	runOnce := func(enable bool) Summary {
		s := NewSimulation(SimulationConfig{Seed: 7, Metric: ETX, DisableFading: true})
		if enable {
			s.EnableTelemetry()
		}
		for i := 0; i < 4; i++ {
			if _, err := s.AddNode(float64(i)*200, 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Join(3, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.AddSource(0, 1, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		s.Run(60 * time.Second)
		return s.Summary()
	}
	if bare, instrumented := runOnce(false), runOnce(true); bare != instrumented {
		t.Fatalf("telemetry perturbed the run:\nbare = %+v\ninst = %+v", bare, instrumented)
	}
}

// TestSimulationSourceIsNotItsOwnReceiver declares node a as both source
// and member of a group, in both call orders: the routing protocol never
// delivers a node its own packets, so a→a is not a subscription and the
// results do not depend on the order.
func TestSimulationSourceIsNotItsOwnReceiver(t *testing.T) {
	run := func(joinFirst bool) (Summary, []MemberPDR) {
		s := NewSimulation(SimulationConfig{Seed: 1, DisableFading: true})
		a, _ := s.AddNode(0, 0)
		b, _ := s.AddNode(150, 0)
		join := func() {
			for _, id := range []NodeID{a, b} {
				if err := s.Join(id, 7); err != nil {
					t.Fatal(err)
				}
			}
		}
		if joinFirst {
			join()
		}
		if err := s.AddSource(a, 7, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if !joinFirst {
			join()
		}
		s.Run(30 * time.Second)
		return s.Summary(), s.PerMember()
	}
	joinFirst, joinFirstRows := run(true)
	sourceFirst, sourceFirstRows := run(false)
	for _, rows := range [][]MemberPDR{joinFirstRows, sourceFirstRows} {
		if len(rows) != 1 || rows[0].Source != 0 || rows[0].Member != 1 || rows[0].PDR != 1 {
			t.Fatalf("PerMember = %v, want the single row g7/n0->n1: 1.000", rows)
		}
	}
	if joinFirst.PDR != 1 || joinFirst.Fairness != 1 || joinFirst.PDR != sourceFirst.PDR || joinFirst.Fairness != sourceFirst.Fairness {
		t.Fatalf("call order changed the result:\njoin first   %+v\nsource first %+v", joinFirst, sourceFirst)
	}
}

// TestSimulationLateAdditions adds a source and a node after the first Run:
// both start when they are added.
func TestSimulationLateAdditions(t *testing.T) {
	probesSent := func(lateNode bool) uint64 {
		s := NewSimulation(SimulationConfig{Seed: 1, DisableFading: true})
		s.EnableTelemetry()
		a, _ := s.AddNode(0, 0)
		if !lateNode {
			s.AddNode(150, 0)
		}
		s.Run(time.Second)
		if lateNode {
			s.AddNode(150, 0)
		}
		b := NodeID(1)
		if err := s.Join(b, 7); err != nil {
			t.Fatal(err)
		}
		if err := s.AddSource(a, 7, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		s.Run(61 * time.Second)
		if sum := s.Summary(); sum.PacketsSent == 0 || sum.PDR < 0.9 {
			t.Fatalf("late node %v: a source added after Run(1s): %+v", lateNode, sum)
		}
		snap, _ := s.Telemetry()
		return snap.Counters["linkquality.probes_sent"]
	}
	upFront, late := probesSent(false), probesSent(true)
	// The late node loses at most the second it missed: one probe interval.
	if late+1 < upFront || late > upFront {
		t.Fatalf("probes sent: %d with the node added after Run(1s), %d with it added up front", late, upFront)
	}
}

// TestSimulationRejectsImpossibleFlowShape: a negative SendInterval or
// PayloadBytes is an AddSource error naming the field. The negative interval
// used to schedule each packet at the instant of the one before, so Run
// never returned.
func TestSimulationRejectsImpossibleFlowShape(t *testing.T) {
	for field, cfg := range map[string]SimulationConfig{
		"SendInterval": {SendInterval: -10 * time.Millisecond},
		"PayloadBytes": {PayloadBytes: -5},
	} {
		s := NewSimulation(cfg)
		src, _ := s.AddNode(0, 0)
		dst, _ := s.AddNode(100, 0)
		if err := s.Join(dst, 1); err != nil {
			t.Fatal(err)
		}
		err := s.AddSource(src, 1, 0)
		if err != nil && strings.Contains(err.Error(), field) {
			continue
		}
		done := make(chan struct{})
		go func() { s.Run(2 * time.Second); close(done) }()
		select {
		case <-done:
			t.Fatalf("%s: AddSource = %v and Run returned, want an error naming %s", field, err, field)
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: AddSource = %v and Run has not returned after 5 s", field, err)
		}
	}
}
