package experiments

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/topology"
	"meshcast/internal/world"
)

// smallScenario is a 12-node scenario short enough for unit tests.
func smallScenario(t *testing.T, k metric.Kind, seed uint64, dur time.Duration) ScenarioConfig {
	t.Helper()
	rng := sim.NewRNG(seed)
	topo, err := topology.RandomConnected(rng, 12, geom.Square(500), 250, 500)
	if err != nil {
		t.Fatal(err)
	}
	return ScenarioConfig{
		Seed:            seed,
		Metric:          k,
		Topology:        topo,
		Duration:        dur,
		Groups:          []GroupSpec{{Group: 1, Sources: []int{0}, Members: []int{5, 9, 11}}},
		PayloadBytes:    512,
		SendInterval:    50 * time.Millisecond,
		ProbeRateFactor: 1,
		TrafficStart:    time.Second,
	}
}

func TestRunScenarioDeliversData(t *testing.T) {
	for _, k := range []metric.Kind{metric.MinHop, metric.SPP} {
		t.Run(k.String(), func(t *testing.T) {
			res, err := RunScenario(smallScenario(t, k, 7, 30*time.Second))
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.PacketsSent == 0 {
				t.Fatal("no packets sent")
			}
			if res.Summary.PDR <= 0.2 {
				t.Fatalf("PDR = %v, expected meaningful delivery", res.Summary.PDR)
			}
			if res.Summary.PDR > 1.0001 {
				t.Fatalf("PDR = %v > 1", res.Summary.PDR)
			}
			if res.Summary.MeanDelaySeconds <= 0 {
				t.Fatal("no delay measured")
			}
			if len(res.PerMember) != 3 {
				t.Fatalf("per-member entries = %d, want 3", len(res.PerMember))
			}
		})
	}
}

// TestSimulatorIgnoresEtherRestarts: the simulator has no ether, so a plan's
// ether restarts change nothing in a run — not its outage PDR, not its
// repairs, nothing in the result. They used to count as fault windows and
// onsets, lowering the outage PDR and booking repairs that never happened;
// and a plan of nothing but restarts gave a health read-out of empty outage
// windows. A malformed restart is still refused.
func TestSimulatorIgnoresEtherRestarts(t *testing.T) {
	run := func(outages []faults.Outage, restarts []faults.EtherRestart) (*RunResult, error) {
		cfg := smallScenario(t, metric.SPP, 7, 12*time.Second)
		cfg.Faults = &faults.Plan{Outages: outages, EtherRestarts: restarts}
		return RunScenario(cfg)
	}
	outage := []faults.Outage{{Node: 5, Start: 8 * time.Second, Duration: 2 * time.Second}}
	restart := []faults.EtherRestart{{Start: 3 * time.Second, Duration: 2 * time.Second}}
	for _, outages := range [][]faults.Outage{outage, nil} {
		without, err := run(outages, nil)
		if err != nil {
			t.Fatal(err)
		}
		with, err := run(outages, restart)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(with, without) {
			t.Fatalf("an ether restart changed a simulated run with %d outages:\nhealth with    %+v\nhealth without %+v",
				len(outages), with.Health, without.Health)
		}
	}
	if _, err := run(nil, []faults.EtherRestart{{Start: time.Second}}); err == nil {
		t.Fatal("a plan of one zero-length ether restart was accepted")
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	a, err := RunScenario(smallScenario(t, metric.SPP, 11, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(smallScenario(t, metric.SPP, 11, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Fatalf("same seed produced different summaries:\n%+v\n%+v", a.Summary, b.Summary)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestRunScenarioSeedSensitivity(t *testing.T) {
	a, err := RunScenario(smallScenario(t, metric.SPP, 11, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallScenario(t, metric.SPP, 11, 20*time.Second)
	cfg.Seed = 12
	b, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary == b.Summary {
		t.Fatal("different seeds produced identical summaries")
	}
}

func TestRunScenarioProbeOverheadByMode(t *testing.T) {
	spp, err := RunScenario(smallScenario(t, metric.SPP, 5, 60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := RunScenario(smallScenario(t, metric.PP, 5, 60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	minhop, err := RunScenario(smallScenario(t, metric.MinHop, 5, 60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if minhop.ProbeBytes != 0 {
		t.Fatalf("MinHop sent %d probe bytes, want 0", minhop.ProbeBytes)
	}
	if spp.ProbeBytes == 0 || pp.ProbeBytes == 0 {
		t.Fatal("probing metrics sent no probes")
	}
	if pp.ProbeBytes <= spp.ProbeBytes {
		t.Fatalf("pair probing bytes (%d) should exceed single probing (%d)", pp.ProbeBytes, spp.ProbeBytes)
	}
}

func TestRunScenarioProbeRateFactor(t *testing.T) {
	base, err := RunScenario(smallScenario(t, metric.SPP, 5, 60*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallScenario(t, metric.SPP, 5, 60*time.Second)
	cfg.ProbeRateFactor = 5
	high, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(high.ProbeBytes) / float64(base.ProbeBytes)
	if ratio < 3.5 || ratio > 6.5 {
		t.Fatalf("5x probe rate produced %.1fx bytes", ratio)
	}
}

func TestRunScenarioNoFadingAblation(t *testing.T) {
	cfg := smallScenario(t, metric.MinHop, 5, 30*time.Second)
	cfg.Fading = propagation.NoFading{}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Without fading and light load, a connected 12-node mesh delivers
	// nearly everything even under min-hop routing.
	if res.Summary.PDR < 0.9 {
		t.Fatalf("no-fading PDR = %v, want > 0.9", res.Summary.PDR)
	}
}

func TestRunScenarioRequiresTopology(t *testing.T) {
	if _, err := RunScenario(ScenarioConfig{}); err == nil {
		t.Fatal("expected error for missing topology")
	}
}

// TestValidateNamesField walks Validate's rules: each rejected row is a
// *world.FieldError naming the field at fault, and the edges of each rule
// pass.
func TestValidateNamesField(t *testing.T) {
	base := smallScenario(t, metric.SPP, 7, 30*time.Second)
	group := func(g GroupSpec) func(*ScenarioConfig) {
		return func(c *ScenarioConfig) { c.Groups = []GroupSpec{g} }
	}
	for _, tc := range []struct {
		name  string
		set   func(*ScenarioConfig)
		field string // empty: the row passes
	}{
		{"the base", func(*ScenarioConfig) {}, ""},
		{"no topology", func(c *ScenarioConfig) { c.Topology = nil }, "Topology"},
		{"no nodes", func(c *ScenarioConfig) { c.Topology = &topology.Topology{} }, "Topology"},
		{"nodes past the ID space", func(c *ScenarioConfig) {
			c.Topology = &topology.Topology{Positions: make([]geom.Point, topology.MaxNodes+1)}
		}, "Topology"},
		{"unknown metric", func(c *ScenarioConfig) { c.Metric = 0 }, "Metric"},
		{"unknown protocol", func(c *ScenarioConfig) { c.Protocol = "bogus" }, "Protocol"},
		{"negative traffic start", func(c *ScenarioConfig) { c.TrafficStart = -time.Second }, "TrafficStart"},
		{"duration before traffic start", func(c *ScenarioConfig) { c.Duration = c.TrafficStart - 1 }, "Duration"},
		{"duration at traffic start", func(c *ScenarioConfig) { c.Duration = c.TrafficStart }, ""},
		{"zero probe rate", func(c *ScenarioConfig) { c.ProbeRateFactor = 0 }, "ProbeRateFactor"},
		{"NaN probe rate", func(c *ScenarioConfig) { c.ProbeRateFactor = math.NaN() }, "ProbeRateFactor"},
		{"infinite probe rate", func(c *ScenarioConfig) { c.ProbeRateFactor = math.Inf(1) }, "ProbeRateFactor"},
		{"probe rate past the preamble", func(c *ScenarioConfig) { c.ProbeRateFactor = 1e9 }, "ProbeRateFactor"},
		{"no groups", func(c *ScenarioConfig) { c.Groups = nil }, "Groups"},
		{"group ID 0", group(GroupSpec{Group: 0, Sources: []int{0}, Members: []int{1}}), "Groups"},
		{"group ID twice", func(c *ScenarioConfig) { c.Groups = append(c.Groups, c.Groups[0]) }, "Groups"},
		{"no source", group(GroupSpec{Group: 1, Members: []int{1}}), "Groups"},
		{"no member", group(GroupSpec{Group: 1, Sources: []int{0}}), "Groups"},
		{"negative source", group(GroupSpec{Group: 1, Sources: []int{-1}, Members: []int{1}}), "Groups"},
		{"member past the last node", group(GroupSpec{Group: 1, Sources: []int{0}, Members: []int{12}}), "Groups"},
		{"source twice", group(GroupSpec{Group: 1, Sources: []int{0, 0}, Members: []int{1}}), "Groups"},
		{"member twice", group(GroupSpec{Group: 1, Sources: []int{0}, Members: []int{1, 2, 1}}), "Groups"},
		{"source also a member", group(GroupSpec{Group: 1, Sources: []int{0}, Members: []int{0, 1}}), ""},
		{"empty payload", func(c *ScenarioConfig) { c.PayloadBytes = 0 }, "PayloadBytes"},
		{"largest payload", func(c *ScenarioConfig) { c.PayloadBytes = 2304 }, ""},
		{"payload past the MSDU", func(c *ScenarioConfig) { c.PayloadBytes = 2305 }, "PayloadBytes"},
		{"interval at the preamble", func(c *ScenarioConfig) { c.SendInterval = 192 * time.Microsecond }, ""},
		{"interval under the preamble", func(c *ScenarioConfig) { c.SendInterval = 191 * time.Microsecond }, "SendInterval"},
		{"negative interval", func(c *ScenarioConfig) { c.SendInterval = -10 * time.Millisecond }, "SendInterval"},
	} {
		cfg := base
		tc.set(&cfg)
		err := cfg.Validate()
		var fe *world.FieldError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: Validate = %v, want nil", tc.name, err)
		case tc.field != "" && (!errors.As(err, &fe) || fe.Field != tc.field):
			t.Errorf("%s: Validate = %v, want a *world.FieldError naming %s", tc.name, err, tc.field)
		}
	}
}

func TestDefaultScenarioShape(t *testing.T) {
	cfg, err := DefaultScenario(metric.SPP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.NodeCount() != 50 {
		t.Fatalf("nodes = %d, want 50", cfg.Topology.NodeCount())
	}
	if len(cfg.Groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(cfg.Groups))
	}
	for _, g := range cfg.Groups {
		if len(g.Sources) != 1 || len(g.Members) != 10 {
			t.Fatalf("group shape = %d sources, %d members", len(g.Sources), len(g.Members))
		}
		for _, m := range g.Members {
			if m == g.Sources[0] {
				t.Fatal("source is its own member")
			}
		}
	}
	if cfg.Duration-cfg.TrafficStart != 400*time.Second {
		t.Fatalf("traffic window = %v, want 400s", cfg.Duration-cfg.TrafficStart)
	}
}

func TestRunScenarioDelayPercentiles(t *testing.T) {
	res, err := RunScenario(smallScenario(t, metric.SPP, 7, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Delay
	if d.Count == 0 {
		t.Fatal("no delay samples")
	}
	if d.P50 <= 0 || d.P50 > d.P90 || d.P90 > d.P99 || d.P99 > d.Max {
		t.Fatalf("percentiles not ordered: %+v", d)
	}
	if d.Count != int(res.Summary.PacketsDelivered) {
		t.Fatalf("delay samples %d != delivered %d", d.Count, res.Summary.PacketsDelivered)
	}
}
