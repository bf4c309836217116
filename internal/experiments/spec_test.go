package experiments

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/propagation"
	"meshcast/internal/topology"
)

func validSpec() Spec {
	return Spec{
		Seed:           7,
		Metric:         "spp",
		TrafficSeconds: 30,
		WarmupSeconds:  10,
		Nodes: []NodeSpec{
			{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0},
		},
		Groups: []GroupSpecJSON{{Group: 1, Sources: []int{0}, Members: []int{2}}},
	}
}

func TestSpecRoundTripThroughFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenario.json")
	orig := validSpec()
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed != orig.Seed || loaded.Metric != orig.Metric ||
		len(loaded.Nodes) != 3 || len(loaded.Groups) != 1 {
		t.Fatalf("round trip mismatch: %+v", loaded)
	}
}

func TestSpecScenarioExplicitNodes(t *testing.T) {
	cfg, err := validSpec().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Metric != metric.SPP {
		t.Fatalf("metric = %v", cfg.Metric)
	}
	if cfg.Topology.NodeCount() != 3 {
		t.Fatalf("nodes = %d", cfg.Topology.NodeCount())
	}
	if cfg.Duration != 40*time.Second || cfg.TrafficStart != 10*time.Second {
		t.Fatalf("timing = %v/%v", cfg.Duration, cfg.TrafficStart)
	}
	if cfg.PayloadBytes != 512 || cfg.SendInterval != 50*time.Millisecond || cfg.ProbeRateFactor != 1 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.Protocol != multicast.Default {
		t.Fatalf("protocol = %q, want default %q", cfg.Protocol, multicast.Default)
	}
}

func TestSpecScenarioProtocol(t *testing.T) {
	s := validSpec()
	s.Protocol = "mcst"
	cfg, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Protocol != "mcst" {
		t.Fatalf("protocol = %q, want mcst", cfg.Protocol)
	}
}

func TestSpecScenarioRandomNodes(t *testing.T) {
	s := validSpec()
	s.Nodes = nil
	s.RandomNodes = &RandomNodesSpec{Count: 10, SideM: 500}
	cfg, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.NodeCount() != 10 {
		t.Fatalf("nodes = %d", cfg.Topology.NodeCount())
	}
	if !cfg.Topology.IsConnected(250) {
		t.Fatal("random spec topology disconnected")
	}
}

func TestSpecScenarioMobility(t *testing.T) {
	s := validSpec()
	s.Nodes = nil
	s.RandomNodes = &RandomNodesSpec{Count: 10, SideM: 500}
	s.Mobility = "waypoint"
	s.MaxSpeedMps = 10
	cfg, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mobility == nil || cfg.Mobility.Model != "waypoint" || cfg.Mobility.MaxSpeedMps != 10 {
		t.Fatalf("mobility config = %+v", cfg.Mobility)
	}
	if cfg.Mobility.Start != cfg.TrafficStart {
		t.Fatalf("motion starts at %v, want traffic start %v", cfg.Mobility.Start, cfg.TrafficStart)
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mobility == nil || res.Mobility.Moves == 0 {
		t.Fatal("spec-built mobility scenario did not move radios")
	}
}

func TestSpecScenarioFadingNone(t *testing.T) {
	s := validSpec()
	s.Fading = "none"
	cfg, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cfg.Fading.(propagation.NoFading); !ok {
		t.Fatal("fading none not applied")
	}
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*Spec){
		"bad metric":       func(s *Spec) { s.Metric = "bogus" },
		"bad protocol":     func(s *Spec) { s.Protocol = "bogus" },
		"no traffic":       func(s *Spec) { s.TrafficSeconds = 0 },
		"no groups":        func(s *Spec) { s.Groups = nil },
		"no nodes":         func(s *Spec) { s.Nodes = nil },
		"both node kinds":  func(s *Spec) { s.RandomNodes = &RandomNodesSpec{Count: 5, SideM: 300} },
		"bad fading":       func(s *Spec) { s.Fading = "shadowing" },
		"group id zero":    func(s *Spec) { s.Groups[0].Group = 0 },
		"source oob":       func(s *Spec) { s.Groups[0].Sources = []int{9} },
		"member oob":       func(s *Spec) { s.Groups[0].Members = []int{-1} },
		"sourceless group": func(s *Spec) { s.Groups[0].Sources = nil },
		"memberless group": func(s *Spec) { s.Groups[0].Members = nil },
	}
	for name, mutate := range cases {
		s := validSpec()
		mutate(&s)
		if _, err := s.Scenario(); err == nil {
			t.Fatalf("%s: validation passed", name)
		}
	}
}

func TestLoadSpecErrors(t *testing.T) {
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSpecRunsEndToEnd(t *testing.T) {
	cfg, err := validSpec().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.PacketsSent == 0 {
		t.Fatal("spec scenario sent nothing")
	}
}

func TestSpecScenarioShadowedFading(t *testing.T) {
	s := validSpec()
	s.Fading = "shadowed-rayleigh"
	s.ShadowSigmaDB = 8
	cfg, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := cfg.Fading.(propagation.Composite)
	if !ok || len(comp) != 2 {
		t.Fatalf("fading = %#v", cfg.Fading)
	}
	ln, ok := comp[0].(propagation.LogNormal)
	if !ok || ln.SigmaDB != 8 {
		t.Fatalf("shadowing component = %#v", comp[0])
	}
}

// TestSpecSourceAlsoMember runs a spec whose group lists node 0 as both
// source and member: a source is not its own receiver, so there is no 0→0
// row, and the health and motion trackers count one delivery opportunity
// per send for each *other* member.
func TestSpecSourceAlsoMember(t *testing.T) {
	s := validSpec()
	s.Fading = "none"
	s.Nodes = nil
	s.RandomNodes = &RandomNodesSpec{Count: 8, SideM: 300}
	s.Mobility, s.MaxSpeedMps = "waypoint", 2
	s.Groups = []GroupSpecJSON{{Group: 1, Sources: []int{0}, Members: []int{0, 1, 2}}}
	cfg, err := s.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Plan{Outages: []faults.Outage{{Node: 5, Start: 15 * time.Second, Duration: 5 * time.Second}}}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerMember) != 2 {
		t.Fatalf("PerMember = %v, want rows for members 1 and 2 only", res.PerMember)
	}
	for _, m := range res.PerMember {
		if m.Member == m.Source {
			t.Fatalf("self-subscription row %v", m)
		}
	}
	if res.Summary.PDR < 0.9 {
		t.Fatalf("PDR = %.3f on a dense clean mesh; a self row would cap it at 2/3", res.Summary.PDR)
	}
	want := 2 * res.Summary.PacketsSent
	if h := res.Health[0]; h.SentInWindows+h.SentOutside != want {
		t.Fatalf("health counted %d delivery opportunities for %d sends to 2 other members", h.SentInWindows+h.SentOutside, res.Summary.PacketsSent)
	}
	if m := res.Mobility.Groups[0]; m.SentInMotion+m.SentStatic != want {
		t.Fatalf("motion counted %d delivery opportunities for %d sends to 2 other members", m.SentInMotion+m.SentStatic, res.Summary.PacketsSent)
	}
}

// TestRunScenarioRejectsImpossibleProbeRates: a probe rate factor that is not
// finite, or that scales the probe interval below the PHY preamble (through a
// spec's probeRateFactor too, which Scenario now rejects itself), is an error
// naming ProbeRateFactor — it used to re-arm every prober at one instant, or
// every few nanoseconds, and never return. The paper's factors pass.
func TestRunScenarioRejectsImpossibleProbeRates(t *testing.T) {
	spec := validSpec()
	spec.ProbeRateFactor = 1e9
	if _, err := spec.Scenario(); err == nil || !strings.Contains(err.Error(), "ProbeRateFactor") {
		t.Fatalf("spec probeRateFactor 1e9: %v, want an error naming ProbeRateFactor", err)
	}
	cfg, err := validSpec().Scenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e12} {
		cfg.ProbeRateFactor = f
		if _, err := RunScenario(cfg); err == nil || !strings.Contains(err.Error(), "ProbeRateFactor") {
			t.Fatalf("factor %v: %v, want an error naming ProbeRateFactor", f, err)
		}
	}
	for _, f := range []float64{-1, 0, 0.1, 1, 5} {
		if _, err := ProbeConfig(metric.PP, f); err != nil {
			t.Fatalf("factor %v: %v", f, err)
		}
	}
}

// specKeyNames are the spec's JSON keys. A rejected spec's error starts
// with one ("groups: Groups: …") or is a "spec: " error that names one.
var specKeyNames = []string{
	"seed", "metric", "protocol", "fading", "shadowSigmaDB", "trafficSeconds", "warmupSeconds",
	"payloadBytes", "sendIntervalMillis", "probeRateFactor", "mobility", "maxSpeedMps",
	"nodes", "randomNodes", "groups",
}

// FuzzSpecScenario feeds JSON through the spec decode, Scenario and
// Validate. Nothing may panic and every rejection must name a key. An
// accepted spec of at most 16 nodes that starts traffic within 30 s runs
// to 1 s past TrafficStart within a deadline and an event budget. The seed
// corpus is validSpec and the rows of cmd/meshsim's
// TestBadInputNamesFlagOrKey.
func FuzzSpecScenario(f *testing.F) {
	for _, mutate := range []func(*Spec){
		func(*Spec) {},
		func(s *Spec) { s.SendIntervalMillis = -10 },
		func(s *Spec) { s.PayloadBytes = -5 },
		func(s *Spec) { s.PayloadBytes = 70000 },
		func(s *Spec) { s.WarmupSeconds = -3 },
		func(s *Spec) { s.ProbeRateFactor = -2 },
		func(s *Spec) { s.Fading, s.ShadowSigmaDB = "shadowed-rayleigh", -6 },
		func(s *Spec) { s.Nodes, s.RandomNodes = nil, &RandomNodesSpec{Count: 3, SideM: 0} },
		func(s *Spec) { s.Nodes, s.RandomNodes = nil, &RandomNodesSpec{Count: 3, SideM: -500} },
		func(s *Spec) { s.Groups[0].Sources = []int{0, 0} },
		func(s *Spec) { s.Nodes, s.RandomNodes = nil, &RandomNodesSpec{Count: 1e11, SideM: 1000} },
	} {
		s := validSpec()
		mutate(&s)
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		// The random placement is redrawn until connected, O(n²) a draw; a
		// count past topology.MaxNodes fails before drawing.
		if s.RandomNodes != nil && s.RandomNodes.Count > 16 && s.RandomNodes.Count <= topology.MaxNodes {
			return
		}
		cfg, err := s.Scenario()
		if err == nil {
			err = cfg.Validate()
		}
		if err != nil {
			msg := err.Error()
			for _, key := range specKeyNames {
				if strings.HasPrefix(msg, key+": ") || strings.HasPrefix(msg, "spec: ") && strings.Contains(msg, key) {
					return
				}
			}
			t.Fatalf("rejection names no spec key: %v", err)
		}
		if cfg.TrafficStart != time.Duration(s.WarmupSeconds)*time.Second || cfg.Duration-cfg.TrafficStart != time.Duration(s.TrafficSeconds)*time.Second {
			t.Fatalf("spec of %d s warmup and %d s traffic gave TrafficStart %v and Duration %v", s.WarmupSeconds, s.TrafficSeconds, cfg.TrafficStart, cfg.Duration)
		}
		if cfg.Topology.NodeCount() > 16 || cfg.TrafficStart > 30*time.Second {
			return
		}
		cfg.Duration = cfg.TrafficStart + time.Second
		type outcome struct {
			res *RunResult
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := RunScenario(cfg)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			// A library contract (the mover's) may still reject the run.
			if o.err == nil && o.res.Events > 5_000_000 {
				t.Fatalf("%d events for %v of 16 nodes or fewer", o.res.Events, cfg.Duration)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("RunScenario still running after 20 s")
		}
	})
}
