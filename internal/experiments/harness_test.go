package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/odmrp"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
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

// TestRunGridMatrixAndError: runGrid returns runs[cell][seed] for any worker
// count, and one failed run fails the grid naming its cell and seed.
func TestRunGridMatrixAndError(t *testing.T) {
	cell := func(label string, base int) gridCell[int] {
		return gridCell[int]{label: label, config: func(seed uint64) (int, error) { return base + int(seed), nil }}
	}
	cells := []gridCell[int]{cell("a", 10), cell("b", 20)}
	run := func(c int) (*int, error) {
		if c == 99 {
			return nil, errors.New("boom")
		}
		return &c, nil
	}
	key := func(int) (string, bool) { return "", false }
	for _, workers := range []int{1, 3} {
		runs, err := runGrid(BatchOptions{Workers: workers}, []uint64{1, 2, 3}, cells, run, key)
		if err != nil {
			t.Fatal(err)
		}
		for i, row := range runs {
			for j, v := range row {
				if want := 10*(i+1) + j + 1; *v != want {
					t.Fatalf("workers %d: runs[%d][%d] = %d, want %d", workers, i, j, *v, want)
				}
			}
		}
	}
	cells = append(cells, cell("c", 97))
	if _, err := runGrid(BatchOptions{}, []uint64{1, 2}, cells, run, key); err == nil || err.Error() != "c seed 2: boom" {
		t.Fatalf("failed run: err = %v, want \"c seed 2: boom\"", err)
	}
}

// keyedScenario is DefaultScenario with every optional part set — a
// composite fading model, each kind of fault and a mover — so that a key
// test can change what lies inside a part.
func keyedScenario(t *testing.T) ScenarioConfig {
	t.Helper()
	cfg, err := DefaultScenario(metric.SPP, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fading = propagation.Composite{propagation.LogNormal{SigmaDB: 6}, propagation.Rayleigh{}}
	cfg.Faults = &faults.Plan{
		Churn:         &faults.ChurnModel{Fraction: 0.2, MTBF: time.Minute, MTTR: 10 * time.Second},
		Outages:       []faults.Outage{{Node: 5, Start: 110 * time.Second, Duration: 5 * time.Second}},
		LinkFaults:    []faults.LinkFault{{From: 1, To: 2, Start: 110 * time.Second, Duration: 5 * time.Second, DropProb: 0.5}},
		Partitions:    []faults.Partition{{Start: 115 * time.Second, Duration: 5 * time.Second, SideA: []int{1, 2, 3}}},
		EtherRestarts: []faults.EtherRestart{{Start: 120 * time.Second, Duration: 5 * time.Second}},
	}
	cfg.Mobility = &mobility.Config{Model: mobility.ModelWaypoint, MaxSpeedMps: 5, Start: cfg.TrafficStart}
	return cfg
}

func TestScenarioKeyDeterminismAndSensitivity(t *testing.T) {
	k1, ok := ScenarioKey(keyedScenario(t))
	if !ok || k1 == "" {
		t.Fatal("scenario not cachable")
	}
	if k2, _ := ScenarioKey(keyedScenario(t)); k1 != k2 {
		t.Fatal("key not deterministic")
	}

	// Every run-affecting field must change the key. Each row names the
	// ScenarioConfig field it changes; the guard below makes a field added
	// later add a row.
	rows := []struct {
		field string
		mut   func(*ScenarioConfig)
	}{
		{"Seed", func(c *ScenarioConfig) { c.Seed++ }},
		{"Metric", func(c *ScenarioConfig) { c.Metric = metric.ETX }},
		{"Protocol", func(c *ScenarioConfig) { c.Protocol = "mcst" }},
		{"Topology", func(c *ScenarioConfig) { c.Topology.Positions[0].X += 1 }},
		{"Fading", func(c *ScenarioConfig) { c.Fading = nil }},
		{"Fading", func(c *ScenarioConfig) {
			c.Fading = propagation.Composite{propagation.LogNormal{SigmaDB: 6}, propagation.NoFading{}}
		}},
		{"Duration", func(c *ScenarioConfig) { c.Duration += time.Second }},
		{"Groups", func(c *ScenarioConfig) { c.Groups[0].Members[0] ^= 1 }},
		{"PayloadBytes", func(c *ScenarioConfig) { c.PayloadBytes = 256 }},
		{"SendInterval", func(c *ScenarioConfig) { c.SendInterval = 100 * time.Millisecond }},
		{"ProbeRateFactor", func(c *ScenarioConfig) { c.ProbeRateFactor = 2 }},
		{"TrafficStart", func(c *ScenarioConfig) { c.TrafficStart += time.Second }},
		{"ODMRP", func(c *ScenarioConfig) {
			p := odmrp.DefaultParams()
			p.ReplyRetries = 2
			c.ODMRP = &p
		}},
		{"WindowSize", func(c *ScenarioConfig) { c.WindowSize = 5 }},
		{"PairHistoryWeight", func(c *ScenarioConfig) { c.PairHistoryWeight = 0.5 }},
		{"Faults", func(c *ScenarioConfig) { c.Faults.Churn.Fraction = 0.3 }},
		{"Faults", func(c *ScenarioConfig) { c.Faults.Outages[0].Node = 6 }},
		{"Faults", func(c *ScenarioConfig) { c.Faults.LinkFaults[0].DropProb = 0.6 }},
		{"Faults", func(c *ScenarioConfig) { c.Faults.Partitions[0].SideA[0] = 4 }},
		{"Mobility", func(c *ScenarioConfig) { c.Mobility.MaxSpeedMps = 10 }},
	}
	named := map[string]bool{"SpanSink": true, "Telemetry": true} // sinks make a run uncachable
	for i, r := range rows {
		named[r.field] = true
		cfg := keyedScenario(t)
		r.mut(&cfg)
		k, ok := ScenarioKey(cfg)
		if !ok {
			t.Fatalf("row %d (%s): became uncachable", i, r.field)
		}
		if k == k1 {
			t.Errorf("row %d (%s): key insensitive to field change", i, r.field)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(ScenarioConfig{})) {
		if f.IsExported() && !named[f.Name] {
			t.Errorf("no row changes ScenarioConfig.%s", f.Name)
		}
	}

	// The simulator drops ether restarts, so they are not part of the key: a
	// plan without them, or of nothing but them, keys the run it reproduces.
	// Keying never touches the caller's plan.
	cfg := keyedScenario(t)
	if k, _ := ScenarioKey(cfg); k != k1 || len(cfg.Faults.EtherRestarts) != 1 {
		t.Fatalf("keying changed the caller's plan: ether restarts %v", cfg.Faults.EtherRestarts)
	}
	cfg.Faults.EtherRestarts = nil
	if k, _ := ScenarioKey(cfg); k != k1 {
		t.Error("dropping the ether restarts changed the key")
	}
	cfg.Faults = &faults.Plan{EtherRestarts: []faults.EtherRestart{{Start: time.Second, Duration: time.Second}}}
	restartsOnly, _ := ScenarioKey(cfg)
	cfg.Faults = nil
	if none, _ := ScenarioKey(cfg); restartsOnly != none {
		t.Error("a plan of ether restarts alone keys apart from the run without faults")
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
	// A config JSON cannot encode has no key either.
	cfg.SpanSink = nil
	cfg.ProbeRateFactor = math.NaN()
	if _, ok := ScenarioKey(cfg); ok {
		t.Fatal("a NaN probe rate must not be cachable")
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
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	back := new(RunResult)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\nvs\n%+v", res, back)
	}
	data2, err := json.Marshal(back)
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
	if err := json.Unmarshal(corrupt, new(RunResult)); err == nil {
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
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	back := new(testbed.Result)
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("roundtrip mismatch:\n%+v\nvs\n%+v", res, back)
	}
}
