package experiments

import (
	"math"
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/telemetry"
)

// TestRunScenarioTelemetryArtifacts runs a small instrumented scenario and
// checks the run's manifest and series artifacts: instrument coverage, the
// identity fields, and — the acceptance bar — that the paper-table probing
// overhead is reproducible from the manifest alone.
func TestRunScenarioTelemetryArtifacts(t *testing.T) {
	dir := t.TempDir()
	rec, err := telemetry.NewRecorder(dir, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallScenario(t, metric.SPP, 5, 30*time.Second)
	cfg.TrafficStart = 10 * time.Second
	cfg.Telemetry = rec
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}

	m, err := telemetry.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != telemetry.ManifestSchema {
		t.Fatalf("schema = %q", m.Schema)
	}
	if m.Seed != cfg.Seed || m.Metric != "spp" {
		t.Fatalf("identity = seed %d metric %q", m.Seed, m.Metric)
	}
	if m.Protocol != "odmrp" {
		t.Fatalf("protocol = %q, want odmrp (the scenario default)", m.Protocol)
	}
	clean := cfg
	clean.Telemetry = nil
	wantHash, ok := ScenarioKey(clean)
	if !ok {
		t.Fatal("clean config should be cachable")
	}
	if m.ConfigHash != wantHash {
		t.Fatalf("manifest hash %q != scenario key %q", m.ConfigHash, wantHash)
	}

	// Every instrumented layer must have left a mark on a run that delivered
	// traffic.
	for _, name := range []string{
		"phy.frames_sent", "phy.frames_delivered",
		"mac.broadcasts_sent", "mac.bytes_sent",
		"odmrp.queries_originated", "odmrp.data_delivered",
		"linkquality.probes_sent", "linkquality.probe_bytes_sent",
		"stats.data_bytes_received",
	} {
		if m.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
	for _, name := range []string{"linkquality.table_entries", "linkquality.probe_bytes_warmup"} {
		if m.Gauges[name] == 0 {
			t.Errorf("gauge %s = 0, want > 0", name)
		}
	}
	if _, ok := m.Histograms["mac.queue_depth"]; !ok {
		t.Error("mac.queue_depth histogram missing")
	}

	// The paper-table probing overhead, recomputed from the manifest alone,
	// must match RunScenario's own figure.
	probe := float64(m.Counters["linkquality.probe_bytes_sent"]) - m.Gauges["linkquality.probe_bytes_warmup"]
	data := float64(m.Counters["stats.data_bytes_received"])
	got := 100 * probe / data
	if want := res.Summary.ProbeOverheadPct; math.Abs(got-want) > 1e-9 {
		t.Fatalf("manifest probe overhead = %v, RunScenario = %v", got, want)
	}
	if d := m.Derived["probe_overhead_pct"]; d != res.Summary.ProbeOverheadPct {
		t.Fatalf("derived probe_overhead_pct = %v, want %v", d, res.Summary.ProbeOverheadPct)
	}
	if d := m.Derived["pdr"]; d != res.Summary.PDR {
		t.Fatalf("derived pdr = %v, want %v", d, res.Summary.PDR)
	}

	series, err := telemetry.LoadSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 30 s at a 5 s interval: samples at 5..25 plus the final one at 30.
	if len(series) != 6 {
		t.Fatalf("series samples = %d, want 6", len(series))
	}
	if m.Samples != len(series) {
		t.Fatalf("manifest samples = %d, series has %d", m.Samples, len(series))
	}
	last := series[len(series)-1]
	if last.T != 30 {
		t.Fatalf("final sample at t=%v, want 30", last.T)
	}
	if last.Counters["phy.frames_sent"] != m.Counters["phy.frames_sent"] {
		t.Fatalf("final sample frames_sent %d != manifest %d",
			last.Counters["phy.frames_sent"], m.Counters["phy.frames_sent"])
	}
	for i := 1; i < len(series); i++ {
		if series[i].Counters["phy.frames_sent"] < series[i-1].Counters["phy.frames_sent"] {
			t.Fatal("cumulative counter decreased between samples")
		}
	}
}

// TestRunScenarioTelemetryDoesNotPerturb checks that attaching a recorder
// leaves the simulation's behavior bit-identical: same summary, same event
// count as an uninstrumented run of the same config.
func TestRunScenarioTelemetryDoesNotPerturb(t *testing.T) {
	bare, err := RunScenario(smallScenario(t, metric.SPP, 11, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := telemetry.NewRecorder(t.TempDir(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallScenario(t, metric.SPP, 11, 20*time.Second)
	cfg.Telemetry = rec
	instrumented, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Summary != instrumented.Summary {
		t.Fatalf("telemetry perturbed the run:\n%+v\n%+v", bare.Summary, instrumented.Summary)
	}
}

func TestScenarioKeyTelemetryUncachable(t *testing.T) {
	rec, err := telemetry.NewRecorder(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallScenario(t, metric.SPP, 3, time.Second)
	cfg.Telemetry = rec
	if _, ok := ScenarioKey(cfg); ok {
		t.Fatal("telemetry-attached scenario must be uncachable")
	}
}

// TestSimVitalsGauges checks the simulator's own vitals on a short run of the
// paper's scenario: the event count in the manifest is the run's, and most
// events are PHY edges delivered in place, without a trip through the queue.
func TestSimVitalsGauges(t *testing.T) {
	dir := t.TempDir()
	rec, err := telemetry.NewRecorder(dir, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := DefaultScenario(metric.SPP, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TrafficStart, cfg.Duration = 5*time.Second, 10*time.Second
	cfg.Telemetry = rec
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	events, inPlace := m.Gauges["sim.events"], m.Gauges["sim.events_in_place"]
	if events != float64(res.Events) || events == 0 {
		t.Fatalf("sim.events = %v, the run fired %d", events, res.Events)
	}
	if inPlace > events || inPlace/events <= 0.5 {
		t.Fatalf("sim.events_in_place = %v of %v events; want more than half and no more than all", inPlace, events)
	}
	if _, ok := m.Gauges["sim.queue_depth"]; !ok {
		t.Fatal("gauge sim.queue_depth not registered")
	}
}
