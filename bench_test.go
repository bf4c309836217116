// Benchmarks regenerating every table and figure of the paper's evaluation.
//
// Each benchmark runs a reduced-scale version of the corresponding
// experiment (2 seeds, 60 s of traffic instead of 10 seeds × 400 s) and
// reports the headline quantities as custom benchmark metrics — e.g.
// "spp_rel" is ODMRP_SPP's throughput normalized against original ODMRP.
// The full-scale reproduction is `go run ./cmd/experiments -full`, which
// writes EXPERIMENTS.md.
package meshcast

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/metric"
	"meshcast/internal/sim"
	"meshcast/internal/testbed"
)

// benchOptions is the reduced configuration used by the paper benches. The
// (metric, seed) matrix runs through the internal/runner worker pool at
// GOMAXPROCS; results (and thus reported bench metrics) are byte-identical
// to a serial run.
func benchOptions() experiments.Options {
	o := experiments.FullOptions()
	o.Seeds = []uint64{1, 2}
	o.TrafficSeconds = 60
	o.WarmupSeconds = 60
	o.Workers = runtime.GOMAXPROCS(0)
	return o
}

func reportRows(b *testing.B, sims *experiments.PaperSims, suffix string) {
	b.Helper()
	for _, row := range sims.Rows {
		b.ReportMetric(row.RelThroughput, row.Metric.String()+suffix)
	}
}

// BenchmarkFig2ThroughputSimulations regenerates Figure 2's
// "Throughput-simulations" column: normalized throughput of the five
// link-quality metrics against original ODMRP on 50-node Rayleigh-faded
// topologies. Paper: SPP ≈ PP 1.18 > METX 1.16 > ETX 1.145 > ETT 1.135.
func BenchmarkFig2ThroughputSimulations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sims, err := experiments.RunPaperSims(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, sims, "_rel")
		b.ReportMetric(sims.BaselinePDR, "odmrp_abs_pdr")
	}
}

// BenchmarkFig2HighOverhead regenerates Figure 2's "Throughput-high
// overhead" column: the same comparison with 5x the probing rate. Paper:
// every metric loses ~2% to probe interference.
func BenchmarkFig2HighOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.ProbeRateFactor = 5
		sims, err := experiments.RunPaperSims(o)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, sims, "_rel_5x")
	}
}

// BenchmarkFig2LowOverhead regenerates the §4.2.2 variant with a 10x lower
// probing rate. Paper: gains improve by ~3%.
func BenchmarkFig2LowOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.ProbeRateFactor = 0.1
		sims, err := experiments.RunPaperSims(o)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, sims, "_rel_0.1x")
	}
}

// BenchmarkFig2Delay regenerates Figure 2's "Delay" column: end-to-end
// delay normalized against original ODMRP. Paper: SPP and ETX lowest among
// the five metrics (their probes contend least for the channel).
func BenchmarkFig2Delay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sims, err := experiments.RunPaperSims(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range sims.Rows {
			b.ReportMetric(row.RelDelay, row.Metric.String()+"_rel_delay")
		}
	}
}

// BenchmarkTable1Overhead regenerates Table 1: probe bytes as a percentage
// of data bytes received. Paper: ETT 3.03, PP 2.54, ETX 0.66, METX 0.61,
// SPP 0.53.
func BenchmarkTable1Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sims, err := experiments.RunPaperSims(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range sims.Rows {
			b.ReportMetric(row.OverheadPct, row.Metric.String()+"_ovh_pct")
		}
	}
}

// BenchmarkFig2ThroughputTestbed regenerates Figure 2's
// "Throughput-testbed" column on the 8-node Figure 4 emulation. Paper:
// PP 1.175 > SPP 1.14 > ETX 1.08 ≈ METX 1.075 ≈ ETT 1.07 — note PP
// overtaking SPP, the testbed's key inversion (§5.3).
func BenchmarkFig2ThroughputTestbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		col, err := experiments.RunTestbedColumn(benchOptions(), 3, 120)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range col.Rows {
			b.ReportMetric(row.RelThroughput, row.Metric.String()+"_rel_tb")
		}
	}
}

// BenchmarkSec43MultiSource regenerates §4.3: relative gains shrink when
// groups have multiple sources because the redundant forwarding mesh helps
// the baseline more than the metrics.
func BenchmarkSec43MultiSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOptions()
		o.Metrics = []metric.Kind{metric.SPP, metric.PP}
		cmp, err := experiments.RunMultiSource(o, 3)
		if err != nil {
			b.Fatal(err)
		}
		for j, row := range cmp.SingleSource.Rows {
			b.ReportMetric(row.RelThroughput, row.Metric.String()+"_1src")
			b.ReportMetric(cmp.MultiSource.Rows[j].RelThroughput, row.Metric.String()+"_3src")
		}
	}
}

// BenchmarkAblationFading checks DESIGN.md decision 2: without Rayleigh
// fading the baseline's min-hop paths are clean and SPP's gain collapses.
func BenchmarkAblationFading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ab, err := experiments.RunFadingAblation(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ab.WithFading.Rows[0].RelThroughput, "spp_rel_fading")
		b.ReportMetric(ab.WithoutFading.Rows[0].RelThroughput, "spp_rel_nofading")
	}
}

// BenchmarkAblationDeltaAlpha sweeps the δ/α path-diversity windows
// (DESIGN.md decision 3) for SPP.
func BenchmarkAblationDeltaAlpha(b *testing.B) {
	points := []struct{ Delta, Alpha time.Duration }{
		{0, 0},
		{30 * time.Millisecond, 20 * time.Millisecond},
		{120 * time.Millisecond, 80 * time.Millisecond},
	}
	for i := 0; i < b.N; i++ {
		got, err := experiments.RunDeltaAlphaAblation(benchOptions(), metric.SPP, points)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range got {
			b.ReportMetric(p.RelThroughput, "spp_rel_d"+p.Delta.String())
		}
	}
}

// BenchmarkAblationHistory sweeps the estimator history length (DESIGN.md
// decision 4): loss-window size for SPP, EWMA weight for PP.
func BenchmarkAblationHistory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		got, err := experiments.RunHistoryAblation(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range got {
			switch {
			case p.WindowSize > 0:
				b.ReportMetric(p.RelThroughput, "spp_win"+itoa(p.WindowSize))
			default:
				b.ReportMetric(p.RelThroughput, "pp_hw"+ftoa(p.HistoryWeight))
			}
		}
	}
}

// BenchmarkMetricAlgebra measures the raw path-cost algebra (Figures 1 and
// 3 run millions of times) — the per-query cost of the metric layer.
func BenchmarkMetricAlgebra(b *testing.B) {
	links := []metric.LinkEstimate{
		{DeliveryProb: 0.9, PairDelaySeconds: 0.004, BandwidthBps: 2e6, PacketBytes: 512},
		{DeliveryProb: 0.8, PairDelaySeconds: 0.005, BandwidthBps: 1.8e6, PacketBytes: 512},
		{DeliveryProb: 0.95, PairDelaySeconds: 0.004, BandwidthBps: 2e6, PacketBytes: 512},
	}
	for _, k := range metric.All() {
		k := k
		b.Run(k.String(), func(b *testing.B) {
			pm := metric.MustNew(k)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := pm.Initial()
				for _, e := range links {
					c = pm.Accumulate(c, pm.LinkCost(e))
				}
				if !pm.Better(c, pm.Worst()) {
					b.Fatal("degenerate cost")
				}
			}
		})
	}
}

// BenchmarkSimulatorEventRate measures the discrete-event engine's raw
// throughput — the capacity budget every experiment draws on.
func BenchmarkSimulatorEventRate(b *testing.B) {
	engine := sim.NewEngine(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.Schedule(time.Microsecond, func() {})
		engine.Run(engine.Now() + time.Microsecond)
	}
}

// BenchmarkScenarioSimSpeed measures end-to-end simulation speed: virtual
// seconds simulated per wall-clock second on the paper's 50-node scenario.
func BenchmarkScenarioSimSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, err := experiments.DefaultScenario(metric.SPP, 1)
		if err != nil {
			b.Fatal(err)
		}
		cfg.TrafficStart = 10 * time.Second
		cfg.Duration = 40 * time.Second
		start := time.Now()
		res, err := experiments.RunScenario(cfg)
		if err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		b.ReportMetric(40/wall, "vsec/sec")
		b.ReportMetric(float64(res.Events)/wall, "events/sec")
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// BenchmarkExtensionLargerTestbed runs the metric comparison on a generated
// 16-node office floor — the paper's "significantly expand our testbed"
// future work.
func BenchmarkExtensionLargerTestbed(b *testing.B) {
	sc, err := testbed.GenerateFloor(testbed.FloorConfig{Nodes: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		run := func(k metric.Kind) float64 {
			var sum float64
			for _, seed := range []uint64{1, 2} {
				cfg := testbed.DefaultConfig(k, seed)
				cfg.WarmupSeconds = 60
				cfg.TrafficSeconds = 90
				res, err := testbed.RunScenario(cfg, sc)
				if err != nil {
					b.Fatal(err)
				}
				sum += res.Summary.PDR
			}
			return sum / 2
		}
		base := run(metric.MinHop)
		for _, k := range []metric.Kind{metric.PP, metric.SPP} {
			b.ReportMetric(run(k)/base, k.String()+"_rel_floor16")
		}
	}
}
