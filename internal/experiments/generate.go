package experiments

import (
	"fmt"
	"os"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/mcst"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
)

// sectionScale bounds the seeds and traffic seconds one report section runs
// at; each section takes the generator's options through it.
type sectionScale struct{ seeds, seconds int }

var (
	// secondaryScale bounds the probing-rate variants, §4.3 and the
	// ablations, which sweep many configurations; Figure 2's headline
	// column keeps the full scale.
	secondaryScale = sectionScale{seeds: 5, seconds: 250}
	// protocolScale bounds the protocol comparison and the mobility sweep.
	protocolScale = sectionScale{seeds: 3, seconds: 150}
	// churnScale bounds the churn sweep: one seed gives every metric the
	// same fault schedule.
	churnScale = sectionScale{seeds: 1, seconds: 100}
)

// testbedRuns is the testbed column's runs per metric (the paper's 5).
const testbedRuns = 5

// capped returns o with at most s.seeds of its seeds and at most s.seconds
// of traffic.
func (o Options) capped(s sectionScale) Options {
	o.Seeds = o.Seeds[:min(len(o.Seeds), s.seeds)]
	o.TrafficSeconds = min(o.TrafficSeconds, s.seconds)
	return o
}

// Generate runs every sweep of the reproduction report at the scales o sets
// and returns the report (EXPERIMENTS.md) in its section order, without a
// wall-clock footer. Each section runs at o capped to its sectionScale, so
// FullOptions gives the committed file and QuickOptions a smaller one of the
// same shape. Each section's grid runs through the job harness o configures;
// the text is byte-identical for any worker count and any cache state.
//
// Sections share configs (the min-hop baselines, SPP at the secondary scale,
// the mobility sweep's speed-0 cells), so a call without o.CacheDir caches
// its own results in a temporary directory, removed on return, and runs each
// distinct config once.
func Generate(o Options) (string, error) {
	if o.CacheDir == "" {
		dir, err := os.MkdirTemp("", "meshcast-report-")
		if err != nil {
			return "", fmt.Errorf("report cache: %w", err)
		}
		defer os.RemoveAll(dir)
		o.CacheDir = dir
	}
	r := newReport(o)
	sims, err := RunPaperSims(o)
	if err != nil {
		return "", fmt.Errorf("fig2 simulations: %w", err)
	}
	r.fig2SimTable(`Figure 2 — column "Throughput-simulations"`, sims, PaperFig2Simulation,
		"Shape reproduced: every link-quality metric beats the original ODMRP;\n"+
			"SPP leads, ETT trails ETX. Our fading regime is harsher than\n"+
			"GloMoSim's, so absolute gains are larger than the paper's 13.5-18%.")
	r.delayTable(sims)
	r.table1(sims)

	secondary := o.capped(secondaryScale)
	high, low := secondary, secondary
	high.ProbeRateFactor = 5
	low.ProbeRateFactor = 0.1
	probing, err := runPaperBatches(secondary, []Options{high, low})
	if err != nil {
		return "", fmt.Errorf("fig2 probing rates: %w", err)
	}
	r.fig2SimTable(`Figure 2 — column "Throughput-high overhead" (5x probing)`, probing[0], nil,
		"Paper: all metrics drop by ~2% relative to the default probing rate\n"+
			"because probes interfere with data traffic.")
	r.fig2SimTable("§4.2.2 — 10x lower probing rate", probing[1], nil,
		"Paper: gains improve by ~3% — less probe interference, at the price\n"+
			"of staler link information.")

	col, err := RunTestbedColumn(o, testbedRuns, o.TrafficSeconds)
	if err != nil {
		return "", fmt.Errorf("testbed column: %w", err)
	}
	r.testbedTable(col)

	multiOpts := secondary
	multiOpts.Metrics = []metric.Kind{metric.SPP, metric.PP, metric.ETX}
	multi, err := RunMultiSource(multiOpts, 3)
	if err != nil {
		return "", fmt.Errorf("multi-source: %w", err)
	}
	r.multiSourceSection(multi)

	// The protocol and mobility sections run the §4.3 multi-source regime:
	// with one source per group ODMRP's reply mesh is exactly the shared
	// tree MCST builds from that source as core (the golden tests pin the
	// byte identity), so protocol structure only shows with several senders.
	protoOpts := o.capped(protocolScale)
	protoOpts.SourcesPerGroup = 3
	protocols := []string{multicast.Default, mcst.Name}
	cmp, err := runProtocolComparison(protoOpts, protocols)
	if err != nil {
		return "", fmt.Errorf("protocol comparison: %w", err)
	}
	r.protocolSection(protoOpts, cmp)

	fad, err := RunFadingAblation(secondary)
	if err != nil {
		return "", fmt.Errorf("fading ablation: %w", err)
	}
	r.fadingSection(fad)
	da, err := RunDeltaAlphaAblation(secondary, metric.SPP, []struct{ Delta, Alpha time.Duration }{
		{0, 0},
		{30 * time.Millisecond, 20 * time.Millisecond},
		{120 * time.Millisecond, 80 * time.Millisecond},
	})
	if err != nil {
		return "", fmt.Errorf("delta/alpha ablation: %w", err)
	}
	r.deltaAlphaSection(da)
	hist, err := RunHistoryAblation(secondary)
	if err != nil {
		return "", fmt.Errorf("history ablation: %w", err)
	}
	r.historySection(hist)

	churnOpts := o.capped(churnScale)
	churn, err := runChurn(churnOpts)
	if err != nil {
		return "", fmt.Errorf("churn: %w", err)
	}
	r.churnSection(churnOpts, churn)

	sweep, err := runMobilitySweep(protoOpts, protocols, []float64{0, 1, 5, 10, 20})
	if err != nil {
		return "", fmt.Errorf("mobility sweep: %w", err)
	}
	r.mobilitySection(protoOpts, sweep)

	r.deviations(o, secondary)
	return r.String(), nil
}

// churnLevels are the fractions of nodes the churn section puts under
// MTBF/MTTR crash/restart renewal, confined to the measurement window.
var churnLevels = []float64{0, 0.10, 0.25}

const (
	churnMTBF = 60 * time.Second
	churnMTTR = 15 * time.Second
)

// churnRow is one metric's outcome across churnLevels.
type churnRow struct {
	metric metric.Kind
	// pdr is the mean delivery ratio at each churn level.
	pdr []float64
	// meanRepair averages, over the groups that repaired at the highest
	// churn level, each group's mean time from a fault onset to its next
	// delivery; repaired is false when no group needed a repair.
	meanRepair time.Duration
	repaired   bool
}

// runChurn reruns the §4.1 scenario for the baseline and every metric o
// evaluates at each churn level. The fault schedule is drawn from the seed
// alone, so every metric faces the same crashes.
func runChurn(o Options) ([]churnRow, error) {
	kinds := append([]metric.Kind{metric.MinHop}, o.metrics()...)
	var cells []gridCell[ScenarioConfig]
	for _, k := range kinds {
		for _, churn := range churnLevels {
			cells = append(cells, gridCell[ScenarioConfig]{label: fmt.Sprintf("%v churn %.0f%%", k, 100*churn), config: func(seed uint64) (ScenarioConfig, error) {
				cfg, err := o.scenarioFor(k, seed)
				if churn > 0 {
					cfg.Faults = &faults.Plan{Churn: &faults.ChurnModel{
						Fraction: churn, MTBF: churnMTBF, MTTR: churnMTTR,
						// The warmup gives every metric converged estimates.
						Start: cfg.TrafficStart,
					}}
				}
				return cfg, err
			}})
		}
	}
	runs, err := runGrid(o.BatchOptions, o.Seeds, cells, RunScenario, ScenarioKey)
	if err != nil {
		return nil, err
	}
	rows := make([]churnRow, len(kinds))
	for i, k := range kinds {
		rows[i] = churnRow{metric: k}
		for j := range churnLevels {
			var pdr float64
			for _, res := range runs[i*len(churnLevels)+j] {
				pdr += res.Summary.PDR
			}
			rows[i].pdr = append(rows[i].pdr, pdr/float64(len(o.Seeds)))
		}
		var sum time.Duration
		var n int
		for _, res := range runs[(i+1)*len(churnLevels)-1] {
			for _, g := range res.Health {
				if len(g.RepairLatencies) > 0 {
					sum += g.MeanRepair
					n++
				}
			}
		}
		if n > 0 {
			rows[i].meanRepair, rows[i].repaired = sum/time.Duration(n), true
		}
	}
	return rows, nil
}
