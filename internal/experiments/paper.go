package experiments

import (
	"fmt"
	"math"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/odmrp"
	"meshcast/internal/propagation"
)

// Options scales the paper experiments. The full paper configuration is
// expensive (~10 s of wall clock per simulated run); benches use Quick.
type Options struct {
	// Seeds lists the random topologies to average over (paper: 10).
	Seeds []uint64
	// TrafficSeconds is the measured traffic window (paper: 400).
	TrafficSeconds int
	// WarmupSeconds is the probe head start before traffic (100).
	WarmupSeconds int
	// ProbeRateFactor scales probing (1 = paper, 5 = high overhead, 0.1 =
	// low overhead).
	ProbeRateFactor float64
	// SourcesPerGroup (paper: 1 for §4.2, >1 for §4.3).
	SourcesPerGroup int
	// Fading overrides the fading model (nil = Rayleigh).
	Fading propagation.Fading
	// Metrics lists the link-quality metrics to evaluate (nil = all five).
	Metrics []metric.Kind
	// ODMRP optionally overrides protocol parameters for the link-quality
	// variants (δ/α ablation).
	ODMRP *odmrp.Params
	// WindowSize / PairHistoryWeight feed the estimator-history ablation.
	WindowSize        int
	PairHistoryWeight float64

	// BatchOptions configures the execution harness (workers, cache,
	// progress, pool metrics) that runs the sweep's (cell, seed) grid.
	BatchOptions
}

// FullOptions reproduces the paper's §4.1 configuration: 10 random
// topologies, 400 s of measured traffic.
func FullOptions() Options {
	return Options{
		Seeds:           []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		TrafficSeconds:  400,
		WarmupSeconds:   100,
		ProbeRateFactor: 1,
		SourcesPerGroup: 1,
	}
}

// QuickOptions is a reduced configuration for benchmarks and CI: 3 seeds,
// 150 s of traffic. The metric ordering is preserved; confidence intervals
// are wider.
func QuickOptions() Options {
	o := FullOptions()
	o.Seeds = []uint64{1, 2, 3}
	o.TrafficSeconds = 150
	return o
}

// Aggregate is one metric's averaged outcome, normalized against the
// original-ODMRP baseline run on the same seeds.
type Aggregate struct {
	Metric metric.Kind
	// RelThroughput is mean PDR(metric)/PDR(baseline), the paper's Figure
	// 2 quantity.
	RelThroughput float64
	// RelThroughputStderr is the standard error over seeds.
	RelThroughputStderr float64
	// RelDelay is mean delay(metric)/delay(baseline).
	RelDelay float64
	// AbsPDR and AbsDelaySeconds are unnormalized means.
	AbsPDR, AbsDelaySeconds float64
	// OverheadPct is probe bytes / data bytes received × 100 (Table 1).
	OverheadPct float64
}

// PaperSims holds the outcome of one sweep over all metrics.
type PaperSims struct {
	// BaselinePDR is the original ODMRP's mean absolute PDR.
	BaselinePDR float64
	// BaselineDelaySeconds is the baseline's mean end-to-end delay.
	BaselineDelaySeconds float64
	// Rows has one entry per link-quality metric, in metric.LinkQuality
	// order.
	Rows []Aggregate
}

// scenarioFor builds the run config for one (metric, seed) cell.
func (o Options) scenarioFor(k metric.Kind, seed uint64) (ScenarioConfig, error) {
	sources := o.SourcesPerGroup
	if sources < 1 {
		sources = 1
	}
	cfg, err := DefaultScenarioWith(k, seed, sources, 10)
	if err != nil {
		return cfg, err
	}
	cfg.TrafficStart = time.Duration(o.WarmupSeconds) * time.Second
	cfg.Duration = cfg.TrafficStart + time.Duration(o.TrafficSeconds)*time.Second
	if o.ProbeRateFactor > 0 {
		cfg.ProbeRateFactor = o.ProbeRateFactor
	}
	if o.Fading != nil {
		cfg.Fading = o.Fading
	}
	if k != metric.MinHop {
		if o.ODMRP != nil {
			cfg.ODMRP = o.ODMRP
		}
		cfg.WindowSize = o.WindowSize
		cfg.PairHistoryWeight = o.PairHistoryWeight
	}
	return cfg, nil
}

// metrics returns the link-quality metrics a sweep evaluates.
func (o Options) metrics() []metric.Kind {
	if o.Metrics == nil {
		return metric.LinkQuality()
	}
	return o.Metrics
}

// cell is the sweep row that runs scenarioFor(k, seed) on each seed.
func (o Options) cell(label string, k metric.Kind) gridCell[ScenarioConfig] {
	return gridCell[ScenarioConfig]{label: label, config: func(seed uint64) (ScenarioConfig, error) {
		return o.scenarioFor(k, seed)
	}}
}

// foldPaperSims folds one paper sweep's runs — the baseline row first, then
// one row per metric, each indexed by seed — into the Figure 2 / Table 1
// quantities.
func foldPaperSims(seeds []uint64, metrics []metric.Kind, runs [][]*RunResult) (*PaperSims, error) {
	var basePDRSum, baseDelaySum float64
	for j, res := range runs[0] {
		if res.Summary.PDR <= 0 {
			return nil, fmt.Errorf("baseline seed %d delivered nothing", seeds[j])
		}
		basePDRSum += res.Summary.PDR
		baseDelaySum += res.Summary.MeanDelaySeconds
	}
	n := float64(len(seeds))
	out := &PaperSims{
		BaselinePDR:          basePDRSum / n,
		BaselineDelaySeconds: baseDelaySum / n,
	}
	for i, k := range metrics {
		var rels []float64
		var relDelaySum, absPDRSum, absDelaySum, ovhSum float64
		for j, res := range runs[i+1] {
			base := runs[0][j].Summary
			rels = append(rels, res.Summary.PDR/base.PDR)
			if base.MeanDelaySeconds > 0 {
				relDelaySum += res.Summary.MeanDelaySeconds / base.MeanDelaySeconds
			}
			absPDRSum += res.Summary.PDR
			absDelaySum += res.Summary.MeanDelaySeconds
			ovhSum += res.Summary.ProbeOverheadPct
		}
		mean, stderr := meanStderr(rels)
		out.Rows = append(out.Rows, Aggregate{
			Metric:              k,
			RelThroughput:       mean,
			RelThroughputStderr: stderr,
			RelDelay:            relDelaySum / n,
			AbsPDR:              absPDRSum / n,
			AbsDelaySeconds:     absDelaySum / n,
			OverheadPct:         ovhSum / n,
		})
	}
	return out, nil
}

// RunPaperSims runs the baseline and every requested metric over all seeds
// through the job harness and aggregates the Figure 2 / Table 1 quantities.
func RunPaperSims(o Options) (*PaperSims, error) {
	sims, err := runPaperBatches(o, []Options{o})
	if err != nil {
		return nil, err
	}
	return sims[0], nil
}

// runPaperBatches runs several paper sweeps — variants of one experiment:
// probing-rate factors, ablation points, fading on/off... — as one grid, so
// the whole sweep, not just one variant, saturates the workers, and folds
// each variant from its own rows. Each variant contributes a baseline row
// and one row per metric, all on o's seeds; the harness configuration comes
// from o and each variant's measured configuration from its own Options.
func runPaperBatches(o Options, batches []Options) ([]*PaperSims, error) {
	var cells []gridCell[ScenarioConfig]
	for _, b := range batches {
		cells = append(cells, b.cell("baseline", metric.MinHop))
		for _, k := range b.metrics() {
			cells = append(cells, b.cell(k.String(), k))
		}
	}
	runs, err := runGrid(o.BatchOptions, o.Seeds, cells, RunScenario, ScenarioKey)
	if err != nil {
		return nil, err
	}
	out := make([]*PaperSims, len(batches))
	for i, b := range batches {
		rows := 1 + len(b.metrics())
		if out[i], err = foldPaperSims(o.Seeds, b.metrics(), runs[:rows]); err != nil {
			return nil, err
		}
		runs = runs[rows:]
	}
	return out, nil
}

// meanStderr returns the sample mean and its standard error.
func meanStderr(xs []float64) (mean, stderr float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}
