package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/odmrp"
	"meshcast/internal/packet"
	"meshcast/internal/runner"
	"meshcast/internal/stats"
	"meshcast/internal/testbed"
	"meshcast/internal/trace"
)

// tinyOptions is the smallest full-path paper sweep that still delivers
// packets: 2 seeds, one metric, a few virtual seconds.
func tinyOptions() Options {
	return Options{
		Seeds:           []uint64{1, 2},
		TrafficSeconds:  8,
		WarmupSeconds:   4,
		ProbeRateFactor: 1,
		SourcesPerGroup: 1,
		Metrics:         []metric.Kind{metric.ETX},
	}
}

// renderSims renders every report section fed by a PaperSims, capturing all
// float formatting the real report performs.
func renderSims(o Options, sims *PaperSims) string {
	r := NewReport(o, 0, 0)
	r.Fig2SimTable("Figure 2 — test", sims, PaperFig2Simulation, "")
	r.DelayTable(sims)
	r.Table1(sims)
	return r.String()
}

// TestSerialParallelReportByteIdentical is the regression test behind the
// harness's core guarantee: a parallel sweep (-j N) must produce a report
// byte-equal to the serial sweep (-j 1), because aggregation folds results
// in job order, never completion order.
func TestSerialParallelReportByteIdentical(t *testing.T) {
	serial := tinyOptions()
	serial.Workers = 1
	serialSims, err := RunPaperSims(serial)
	if err != nil {
		t.Fatal(err)
	}

	parallel := tinyOptions()
	parallel.Workers = 4
	parallelSims, err := RunPaperSims(parallel)
	if err != nil {
		t.Fatal(err)
	}

	a, b := renderSims(serial, serialSims), renderSims(parallel, parallelSims)
	if a != b {
		t.Fatalf("serial and parallel reports differ:\n--- serial ---\n%s\n--- parallel ---\n%s", a, b)
	}
	if !reflect.DeepEqual(serialSims, parallelSims) {
		t.Fatalf("aggregates differ: %+v vs %+v", serialSims, parallelSims)
	}
}

// TestPaperSimsCacheRoundtrip runs the same sweep twice against one cache
// directory: the second run must be served entirely from cache and still
// render the byte-identical report.
func TestPaperSimsCacheRoundtrip(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var total, cached int
	o := tinyOptions()
	o.Workers = 2
	o.CacheDir = dir
	o.Progress = func(p runner.Progress) {
		mu.Lock()
		total++
		if p.Cached {
			cached++
		}
		mu.Unlock()
	}

	first, err := RunPaperSims(o)
	if err != nil {
		t.Fatal(err)
	}
	if cached != 0 {
		t.Fatalf("cold cache served %d hits", cached)
	}
	firstTotal := total

	second, err := RunPaperSims(o)
	if err != nil {
		t.Fatal(err)
	}
	if got := total - firstTotal; cached != got || got == 0 {
		t.Fatalf("warm sweep: %d/%d jobs cached, want all", cached, got)
	}
	if a, b := renderSims(o, first), renderSims(o, second); a != b {
		t.Fatalf("cached report differs from fresh report:\n%s\n---\n%s", a, b)
	}
}

func TestScenarioKeyDeterminismAndSensitivity(t *testing.T) {
	cfg, err := DefaultScenario(metric.SPP, 1)
	if err != nil {
		t.Fatal(err)
	}
	k1, ok := ScenarioKey(cfg)
	if !ok || k1 == "" {
		t.Fatal("scenario not cachable")
	}
	k2, _ := ScenarioKey(cfg)
	if k1 != k2 {
		t.Fatal("key not deterministic")
	}

	// Every run-affecting field must change the key.
	mutate := map[string]func(*ScenarioConfig){
		"seed":     func(c *ScenarioConfig) { c.Seed++ },
		"metric":   func(c *ScenarioConfig) { c.Metric = metric.ETX },
		"duration": func(c *ScenarioConfig) { c.Duration += time.Second },
		"payload":  func(c *ScenarioConfig) { c.PayloadBytes = 256 },
		"rate":     func(c *ScenarioConfig) { c.ProbeRateFactor = 2 },
		"window":   func(c *ScenarioConfig) { c.WindowSize = 5 },
		"history":  func(c *ScenarioConfig) { c.PairHistoryWeight = 0.5 },
		"odmrp": func(c *ScenarioConfig) {
			p := odmrp.DefaultParams()
			p.ReplyRetries = 2
			c.ODMRP = &p
		},
		"topology": func(c *ScenarioConfig) { c.Topology.Positions[0].X += 1 },
		"groups":   func(c *ScenarioConfig) { c.Groups[0].Members[0] ^= 1 },
	}
	for name, mut := range mutate {
		cfg2, err := DefaultScenario(metric.SPP, 1)
		if err != nil {
			t.Fatal(err)
		}
		mut(&cfg2)
		k, ok := ScenarioKey(cfg2)
		if !ok {
			t.Fatalf("%s: became uncachable", name)
		}
		if k == k1 {
			t.Fatalf("%s: key insensitive to field change", name)
		}
	}
}

func TestScenarioKeySinksUncachable(t *testing.T) {
	cfg, err := DefaultScenario(metric.SPP, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SpanSink = &trace.SpanBuffer{}
	if _, ok := ScenarioKey(cfg); ok {
		t.Fatal("traced scenario must not be cachable")
	}
}

// requireAllFieldsSet fails unless every exported field of the struct v
// points to is non-zero: a codec fixture that leaves a field empty cannot
// show that the field survives the round trip, and a field added later must
// be added to the fixture.
func requireAllFieldsSet(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Type().Field(i); f.IsExported() && rv.Field(i).IsZero() {
			t.Errorf("fixture leaves %s.%s zero", rv.Type().Name(), f.Name)
		}
	}
}

// TestRunResultCodecRoundtrip encodes a real run's result — with faults and
// mobility, so that every field is populated — and checks the decoded copy
// is exactly the original (the property that makes cache hits
// byte-identical).
func TestRunResultCodecRoundtrip(t *testing.T) {
	cfg := smallScenario(t, metric.SPP, 7, 20*time.Second)
	cfg.Faults = &faults.Plan{Outages: []faults.Outage{{Node: 5, Start: 5 * time.Second, Duration: 4 * time.Second}}}
	cfg.Mobility = &mobility.Config{Model: mobility.ModelWaypoint, MaxSpeedMps: 10, Start: cfg.TrafficStart}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireAllFieldsSet(t, res)
	data, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResult[RunResult](data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\nvs\n%+v", res, back)
	}
	data2, err := encodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encoding a decoded result changed bytes")
	}
	// A corrupt entry must fail to decode, so that the pool reruns the job.
	// (encoding/json writes the '>' of an edge key as \u003e.)
	corrupt := bytes.Replace(data, []byte(`\u003e`), []byte(`-`), 1)
	if bytes.Equal(corrupt, data) {
		t.Fatal("no edge key found to corrupt")
	}
	if _, err := decodeResult[RunResult](corrupt); err == nil {
		t.Fatal("a malformed edge key decoded without error")
	}
}

func TestTestbedCodecRoundtrip(t *testing.T) {
	res := &testbed.Result{
		Summary:   stats.Summary{PDR: 0.75, MeanDelaySeconds: 0.012, DataBytesReceived: 4096, PacketsSent: 100, PacketsDelivered: 75, ProbeOverheadPct: 1.5, Fairness: 0.9},
		PerMember: []stats.MemberPDR{{Group: 1, Source: 2, Member: 3, PDR: 0.8}},
		EdgeUse:   map[odmrp.Edge]uint64{{From: 2, To: 3}: 41, {From: 4, To: 1}: 7},
		Sent:      map[packet.NodeID]uint64{2: 100, 4: 100},
		Series:    []stats.Point{{Start: 0, Sent: 10, Delivered: 8, Ratio: 0.8}},
		Delay:     stats.Percentiles{P50: time.Millisecond, P90: 2 * time.Millisecond, P99: 3 * time.Millisecond, Max: 4 * time.Millisecond, Count: 75},
	}
	requireAllFieldsSet(t, res)
	data, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeResult[testbed.Result](data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\nvs\n%+v", res, back)
	}
}
