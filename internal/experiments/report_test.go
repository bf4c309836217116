package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/propagation"
)

func syntheticSims() *PaperSims {
	sims := &PaperSims{BaselinePDR: 0.5, BaselineDelaySeconds: 0.010}
	for _, k := range metric.LinkQuality() {
		sims.Rows = append(sims.Rows, Aggregate{
			Metric:              k,
			RelThroughput:       1.1,
			RelThroughputStderr: 0.01,
			RelDelay:            1.2,
			AbsPDR:              0.55,
			AbsDelaySeconds:     0.012,
			OverheadPct:         1.5,
		})
	}
	return sims
}

func TestReportContainsAllSections(t *testing.T) {
	r := newReport(QuickOptions())
	sims := syntheticSims()
	r.fig2SimTable("Figure 2 — test", sims, PaperFig2Simulation, "note")
	r.delayTable(sims)
	r.table1(sims)
	r.testbedTable(&TestbedColumn{
		BaselinePDR: 0.7,
		Rows: []TestbedAggregate{
			{Metric: metric.PP, RelThroughput: 1.13, OverheadPct: 2.6, AbsPDR: 0.79},
		},
	})
	r.multiSourceSection(&MultiSourceComparison{
		SingleSource:    syntheticSims(),
		MultiSource:     syntheticSims(),
		SourcesPerGroup: 3,
	})
	r.fadingSection(&FadingAblation{WithFading: syntheticSims(), WithoutFading: syntheticSims()})
	r.deltaAlphaSection([]DeltaAlphaPoint{{Delta: 30 * time.Millisecond, Alpha: 20 * time.Millisecond, RelThroughput: 1.1}})
	r.historySection([]HistoryPoint{
		{Metric: metric.SPP, WindowSize: 10, RelThroughput: 1.1},
		{Metric: metric.PP, HistoryWeight: 0.9, RelThroughput: 1.12},
	})
	r.churnSection(QuickOptions(), []churnRow{
		{metric: metric.MinHop, pdr: []float64{0.57, 0.53, 0.48}, meanRepair: 250 * time.Millisecond, repaired: true},
		{metric: metric.SPP, pdr: []float64{0.78, 0.75, 0.73}},
	})
	r.deviations(FullOptions(), FullOptions().capped(secondaryScale))
	out := r.String()

	for _, want := range []string{
		"# EXPERIMENTS",
		"Figure 2 — test",
		"column \"Delay\"",
		"Table 1",
		"Throughput-testbed",
		"multiple sources",
		"fading on/off",
		"δ/α",
		"estimator history",
		"ODMRP_SPP",
		"ODMRP_PP",
		"1.135", // paper value for ETT in the fig2 table
		"holds 73.0% while min-hop collapses to 48.0%",
		"probing-rate tables\n   above use 5 seeds × 250 s (vs 10 × 400 s",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out[:min(2000, len(out))])
		}
	}
}

func TestPaperConstantsCoverAllMetrics(t *testing.T) {
	for _, k := range metric.LinkQuality() {
		if _, ok := PaperFig2Simulation[k]; !ok {
			t.Fatalf("PaperFig2Simulation missing %v", k)
		}
		if _, ok := PaperFig2Testbed[k]; !ok {
			t.Fatalf("PaperFig2Testbed missing %v", k)
		}
		if _, ok := PaperTable1[k]; !ok {
			t.Fatalf("PaperTable1 missing %v", k)
		}
	}
	// Spot-check the transcribed values against the paper's text.
	if PaperTable1[metric.ETT] != 3.03 || PaperTable1[metric.SPP] != 0.53 {
		t.Fatal("Table 1 constants do not match the paper")
	}
	if PaperFig2Testbed[metric.PP] != 1.175 {
		t.Fatal("testbed PP constant does not match the paper (17.5% gain)")
	}
}

func TestMeanStderr(t *testing.T) {
	mean, stderr := meanStderr([]float64{1, 2, 3, 4})
	if mean != 2.5 {
		t.Fatalf("mean = %v", mean)
	}
	// Sample stdev of {1,2,3,4} is ~1.29; stderr = 1.29/2 ≈ 0.645.
	if math.Abs(stderr-0.6455) > 0.001 {
		t.Fatalf("stderr = %v", stderr)
	}
	if m, s := meanStderr(nil); m != 0 || s != 0 {
		t.Fatal("empty input should give zeros")
	}
	if m, s := meanStderr([]float64{7}); m != 7 || s != 0 {
		t.Fatalf("single sample = (%v, %v)", m, s)
	}
}

func TestScenarioForAppliesOptions(t *testing.T) {
	o := Options{
		Seeds:           []uint64{1},
		TrafficSeconds:  60,
		WarmupSeconds:   30,
		ProbeRateFactor: 5,
		SourcesPerGroup: 3,
		Fading:          propagation.NoFading{},
		WindowSize:      20,
	}
	cfg, err := o.scenarioFor(metric.SPP, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.TrafficStart != 30*time.Second || cfg.Duration != 90*time.Second {
		t.Fatalf("timing = (%v, %v)", cfg.TrafficStart, cfg.Duration)
	}
	if cfg.ProbeRateFactor != 5 {
		t.Fatalf("probe rate = %v", cfg.ProbeRateFactor)
	}
	if cfg.WindowSize != 20 {
		t.Fatalf("window = %d", cfg.WindowSize)
	}
	if _, ok := cfg.Fading.(propagation.NoFading); !ok {
		t.Fatal("fading override not applied")
	}
	for _, g := range cfg.Groups {
		if len(g.Sources) != 3 {
			t.Fatalf("sources per group = %d, want 3", len(g.Sources))
		}
	}
	// The baseline must not receive metric-only overrides.
	base, err := o.scenarioFor(metric.MinHop, 1)
	if err != nil {
		t.Fatal(err)
	}
	if base.WindowSize != 0 {
		t.Fatal("baseline got the window override")
	}
	// Same seed, same topology regardless of group shape.
	if base.Topology.Positions[0] != cfg.Topology.Positions[0] {
		t.Fatal("topology differs between baseline and metric run")
	}
}

func TestRunPaperSimsTiny(t *testing.T) {
	o := Options{
		Seeds:           []uint64{1},
		TrafficSeconds:  20,
		WarmupSeconds:   10,
		ProbeRateFactor: 1,
		SourcesPerGroup: 1,
		Metrics:         []metric.Kind{metric.SPP},
	}
	sims, err := RunPaperSims(o)
	if err != nil {
		t.Fatal(err)
	}
	if sims.BaselinePDR <= 0 || sims.BaselinePDR > 1 {
		t.Fatalf("baseline PDR = %v", sims.BaselinePDR)
	}
	if len(sims.Rows) != 1 || sims.Rows[0].Metric != metric.SPP {
		t.Fatalf("rows = %+v", sims.Rows)
	}
	if sims.Rows[0].RelThroughput <= 0 {
		t.Fatal("no relative throughput computed")
	}
}

func TestRunTestbedColumnTiny(t *testing.T) {
	col, err := RunTestbedColumn(Options{}, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if col.BaselinePDR <= 0 {
		t.Fatal("baseline delivered nothing")
	}
	if len(col.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(col.Rows))
	}
	for _, runs := range []int{0, -1} {
		if _, err := RunTestbedColumn(Options{}, runs, 30); err == nil {
			t.Errorf("RunTestbedColumn with %d runs: no error", runs)
		}
	}
}
