package experiments

import (
	"fmt"
	"sort"
	"strings"

	"meshcast/internal/metric"
	"meshcast/internal/testbed"
)

// PaperFig2Simulation holds the paper's reported values for Figure 2's
// "Throughput-simulations" column (normalized against original ODMRP).
var PaperFig2Simulation = map[metric.Kind]float64{
	metric.ETT: 1.135, metric.ETX: 1.145, metric.METX: 1.16, metric.PP: 1.18, metric.SPP: 1.18,
}

// PaperFig2Testbed holds the paper's Figure 2 "Throughput-testbed" column.
var PaperFig2Testbed = map[metric.Kind]float64{
	metric.ETT: 1.07, metric.ETX: 1.08, metric.METX: 1.075, metric.PP: 1.175, metric.SPP: 1.14,
}

// PaperTable1 holds the paper's Table 1 probing overheads (percent).
var PaperTable1 = map[metric.Kind]float64{
	metric.ETT: 3.03, metric.ETX: 0.66, metric.METX: 0.61, metric.PP: 2.54, metric.SPP: 0.53,
}

// TestbedAggregate is one metric's averaged testbed outcome.
type TestbedAggregate struct {
	Metric        metric.Kind
	RelThroughput float64
	OverheadPct   float64
	AbsPDR        float64
}

// TestbedColumn holds the testbed sweep results.
type TestbedColumn struct {
	BaselinePDR float64
	Rows        []TestbedAggregate
}

// RunTestbedColumn reproduces Figure 2's "Throughput-testbed" column: the
// 8-node emulation run `runs` times per metric (the paper uses 5 runs of
// 400 s each), run i on seed i. The (metric, run) grid executes through the
// job harness configured by o (Workers, CacheDir, Progress); the fold reads
// it in grid order, so the column is identical for any worker count.
func RunTestbedColumn(o Options, runs, trafficSeconds int) (*TestbedColumn, error) {
	if runs < 1 {
		return nil, fmt.Errorf("testbed column: need at least one run per metric, got %d", runs)
	}
	kinds := append([]metric.Kind{metric.MinHop}, metric.LinkQuality()...)
	cells := make([]gridCell[testbed.Config], len(kinds))
	for i, k := range kinds {
		cells[i] = gridCell[testbed.Config]{label: fmt.Sprintf("testbed %v", k), config: func(seed uint64) (testbed.Config, error) {
			cfg := testbed.DefaultConfig(k, seed)
			cfg.TrafficSeconds = trafficSeconds
			return cfg, nil
		}}
	}
	seeds := make([]uint64, runs)
	for r := range seeds {
		seeds[r] = uint64(r + 1)
	}
	grid, err := runGrid(o.BatchOptions, seeds, cells, testbed.Run, TestbedKey)
	if err != nil {
		return nil, err
	}
	mean := func(row []*testbed.Result) (pdr, ovh float64) {
		for _, res := range row {
			pdr += res.Summary.PDR
			ovh += res.Summary.ProbeOverheadPct
		}
		return pdr / float64(runs), ovh / float64(runs)
	}
	base, _ := mean(grid[0])
	out := &TestbedColumn{BaselinePDR: base}
	for i, k := range kinds[1:] {
		pdr, ovh := mean(grid[i+1])
		out.Rows = append(out.Rows, TestbedAggregate{
			Metric:        k,
			RelThroughput: pdr / base,
			OverheadPct:   ovh,
			AbsPDR:        pdr,
		})
	}
	return out, nil
}

// report accumulates the markdown of the reproduction report
// (EXPERIMENTS.md), one section per method.
type report struct {
	b strings.Builder
}

// scaleText formats a sweep's scale as "N seeds × T s".
func scaleText(o Options) string {
	seeds := "seeds"
	if len(o.Seeds) == 1 {
		seeds = "seed"
	}
	return fmt.Sprintf("%d %s × %d s", len(o.Seeds), seeds, o.TrafficSeconds)
}

// newReport starts a report with the preamble and the "Running the
// evaluation" section; o is the headline scale, and the testbed column runs
// testbedRuns times per metric at o's traffic window.
func newReport(o Options) *report {
	r := &report{}
	fmt.Fprintf(&r.b, `# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in "High-Throughput Multicast Routing
Metrics in Wireless Mesh Networks" (Roy, Koutsonikolas, Das, Hu — ICDCS
2006). Absolute numbers are not expected to match (the substrate is this
repository's own simulator, not GloMoSim or the Purdue testbed); the claims
under reproduction are the *orderings and ratios* the paper reports.

Configuration: %s traffic (+%d s probe warmup) for the
simulation columns; %d × %d s runs for the testbed column. Regenerate with
`+"`go run ./cmd/experiments -full`"+` or per-figure via
`+"`go test -bench . -benchmem`"+`.

`, scaleText(o), o.WarmupSeconds, testbedRuns, o.TrafficSeconds)
	r.section("Running the evaluation", "All sweeps run on the parallel job harness (`internal/runner`):\n"+
		"\n```\ngo run ./cmd/experiments -full -j 8 -cache-dir .meshcache -o EXPERIMENTS.md\n```\n"+`
* `+"`-j N`"+` — worker-pool size (default: CPU count). Results are aggregated in
  submission order, so the report is **byte-identical for any N**; the
  regression test `+"`TestSerialParallelReportByteIdentical`"+` enforces this. On
  a multi-core machine the full sweep speeds up close to linearly until N
  reaches the core count (each run is an independent single-threaded
  simulation).
* `+"`-cache-dir DIR`"+` — content-addressed result cache. Each completed run's
  result is stored under a SHA-256 of the scenario configuration's own JSON
  encoding, so interrupted or repeated sweeps skip completed runs (progress
  lines show `+"`(cached)`"+`). The encoding holds every field of the config, so
  any change to it — seed, metric, duration, topology, fading model, any
  part of the fault plan, mobility — changes the key and misses cleanly. A
  cache directory written before this key (`+"`scenario/v5`, `testbed/v4`"+`)
  misses once and is refilled.
* `+"`-telemetry DIR`"+` — record the sweep's runner telemetry (cache
  hits/misses, job-latency histogram) as a series + manifest under DIR;
  inspect with `+"`go run ./cmd/meshstat DIR`"+`. (Per-scenario telemetry is
  `+"`meshsim -telemetry`"+`; such instrumented runs bypass the result cache.)
  See [docs/OBSERVABILITY.md](docs/OBSERVABILITY.md).
* `+"`-cpuprofile FILE` / `-memprofile FILE`"+` — write runtime/pprof profiles of
  the whole sweep for `+"`go tool pprof`"+`.

Progress lines report per-job counts: `+"`[12/48] etx seed 3 done (cached)`"+`.

Performance numbers (simulated seconds per CPU second, set-up time, peak
RSS, per-layer self time, instrument and span cost) are not produced here:
`+"`bash benchmark/run.sh`"+`, documented in
[benchmark/README.md](benchmark/README.md), is the one harness for them.
`)
	return r
}

// section appends a markdown heading and body.
func (r *report) section(title, body string) {
	fmt.Fprintf(&r.b, "## %s\n\n%s\n", title, body)
}

// fig2SimTable renders the simulation throughput column against the paper.
func (r *report) fig2SimTable(title string, sims *PaperSims, paper map[metric.Kind]float64, note string) {
	var b strings.Builder
	fmt.Fprintf(&b, "| metric | paper | measured | ± stderr |\n|---|---|---|---|\n")
	fmt.Fprintf(&b, "| ODMRP (baseline) | 1.000 | 1.000 | abs PDR %.3f |\n", sims.BaselinePDR)
	for _, row := range sims.Rows {
		paperVal := "—"
		if v, ok := paper[row.Metric]; ok {
			paperVal = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(&b, "| ODMRP_%s | %s | %.3f | %.3f |\n",
			strings.ToUpper(row.Metric.String()), paperVal, row.RelThroughput, row.RelThroughputStderr)
	}
	if note != "" {
		fmt.Fprintf(&b, "\n%s\n", note)
	}
	r.section(title, b.String())
}

// delayTable renders the normalized-delay column.
func (r *report) delayTable(sims *PaperSims) {
	var b strings.Builder
	fmt.Fprintf(&b, "| metric | measured rel. delay | abs delay (ms) |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| ODMRP (baseline) | 1.000 | %.1f |\n", 1000*sims.BaselineDelaySeconds)
	for _, row := range sims.Rows {
		fmt.Fprintf(&b, "| ODMRP_%s | %.3f | %.1f |\n",
			strings.ToUpper(row.Metric.String()), row.RelDelay, 1000*row.AbsDelaySeconds)
	}
	b.WriteString(`
The paper reports (figure only, no numbers) that ODMRP_SPP and ODMRP_ETX see
the lowest delays among the five metrics because their probing overhead is
smallest. We reproduce ETX's low delay; SPP's delay is *higher* here because
under smooth Rayleigh loss-vs-distance SPP trades hops for reliability very
aggressively, and our delay average is composition-biased (the metrics
deliver to distant members that the baseline starves entirely). See the
deviations section.
`)
	r.section("Figure 2 — column \"Delay\"", b.String())
}

// table1 renders probing overhead vs the paper.
func (r *report) table1(sims *PaperSims) {
	var b strings.Builder
	fmt.Fprintf(&b, "| metric | paper %% | measured %% |\n|---|---|---|\n")
	rows := append([]Aggregate(nil), sims.Rows...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Metric < rows[j].Metric })
	for _, row := range rows {
		fmt.Fprintf(&b, "| %s | %.2f | %.2f |\n",
			strings.ToUpper(row.Metric.String()), PaperTable1[row.Metric], row.OverheadPct)
	}
	b.WriteString("\nShape reproduced: pair-probing metrics (ETT, PP) sit an order of\n" +
		"magnitude above the single-probe metrics, PP below ETT, and within the\n" +
		"single-probe group overhead orders inversely with throughput.\n")
	r.section("Table 1 — probing overhead", b.String())
}

// testbedTable renders the testbed column vs the paper.
func (r *report) testbedTable(col *TestbedColumn) {
	var b strings.Builder
	fmt.Fprintf(&b, "| metric | paper | measured |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| ODMRP (baseline) | 1.000 | 1.000 (abs PDR %.3f) |\n", col.BaselinePDR)
	for _, row := range col.Rows {
		paperVal := "—"
		if v, ok := PaperFig2Testbed[row.Metric]; ok {
			paperVal = fmt.Sprintf("%.3f", v)
		}
		fmt.Fprintf(&b, "| ODMRP_%s | %s | %.3f |\n",
			strings.ToUpper(row.Metric.String()), paperVal, row.RelThroughput)
	}
	b.WriteString("\nKey inversion reproduced: on the testbed PP overtakes SPP (long EWMA\n" +
		"memory keeps avoiding 40-60%-loss links through their temporarily good\n" +
		"episodes, while short-window metrics re-select them — §5.3).\n")
	r.section("Figure 2 — column \"Throughput-testbed\"", b.String())
}

// multiSourceSection renders the §4.3 comparison.
func (r *report) multiSourceSection(cmp *MultiSourceComparison) {
	var b strings.Builder
	fmt.Fprintf(&b, "| metric | gain, 1 source/group | gain, %d sources/group |\n|---|---|---|\n", cmp.SourcesPerGroup)
	for i, row := range cmp.SingleSource.Rows {
		multi := cmp.MultiSource.Rows[i]
		fmt.Fprintf(&b, "| ODMRP_%s | %+.1f%% | %+.1f%% |\n",
			strings.ToUpper(row.Metric.String()),
			100*(row.RelThroughput-1), 100*(multi.RelThroughput-1))
	}
	b.WriteString("\nPaper §4.3: with multiple sources per group ODMRP's forwarding mesh\n" +
		"becomes redundant and the relative gains shrink by ~10-15 percentage\n" +
		"points of the single-source gain.\n")
	r.section("§4.3 — multiple sources per group", b.String())
}

// deltaAlphaSection renders the δ/α ablation.
func (r *report) deltaAlphaSection(points []DeltaAlphaPoint) {
	var b strings.Builder
	fmt.Fprintf(&b, "| δ | α | rel. throughput (SPP) |\n|---|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(&b, "| %v | %v | %.3f |\n", p.Delta, p.Alpha, p.RelThroughput)
	}
	b.WriteString("\nδ = 0 disables the best-path wait (first-copy routing with metric\n" +
		"accumulation only through reply propagation); the paper's 30 ms / 20 ms\n" +
		"recovers the gain, and larger windows buy a little more at higher query\n" +
		"overhead (§4.1 reports 3-4% for much larger values).\n")
	r.section("Ablation — δ/α path-diversity windows", b.String())
}

// historySection renders the estimator-history ablation.
func (r *report) historySection(points []HistoryPoint) {
	var b strings.Builder
	fmt.Fprintf(&b, "| metric | window | EWMA weight | rel. throughput |\n|---|---|---|---|\n")
	for _, p := range points {
		win, wt := "—", "—"
		if p.WindowSize > 0 {
			win = fmt.Sprintf("%d probes", p.WindowSize)
		}
		if p.HistoryWeight > 0 {
			wt = fmt.Sprintf("%.2f", p.HistoryWeight)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %.3f |\n", strings.ToUpper(p.Metric.String()), win, wt, p.RelThroughput)
	}
	r.section("Ablation — estimator history length", b.String())
}

// protocolSection renders a protocols × metrics comparison: PDR, delay,
// forwarding cost, control bytes, and route-state size per cell. o is the
// scale the comparison ran at.
func (r *report) protocolSection(o Options, cmp *protocolComparison) {
	var b strings.Builder
	fmt.Fprintf(&b, "Beyond the paper, and done (the ROADMAP's old item 3, before its\n"+
		"renumbering): the same five metrics evaluated under a second multicast\n"+
		"protocol behind the `internal/multicast` plane — MCST, a\n"+
		"core-based shared tree (lowest-ID active source self-elects core, announce\n"+
		"floods accumulate the same PathMetric cost ODMRP queries do, members\n"+
		"δ-wait and TREE_JOIN toward the best-cost parent, non-core senders ride\n"+
		"the bidirectional tree through the core). Regenerate with\n"+
		"`go run ./cmd/experiments` (%s, %d\n"+
		"sources/group; deterministic for any `-j`):\n\n", scaleText(o), cmp.sourcesPerGroup)
	fmt.Fprintf(&b, "| protocol | metric | PDR | ± stderr | delay (ms) | fwd/delivered | control bytes | route state |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|\n")
	for _, k := range cmp.metrics {
		for _, proto := range cmp.protocols {
			c := cmp.cell(proto, k)
			fmt.Fprintf(&b, "| %s | %s | %.3f | %.3f | %.1f | %.2f | %.0f | %.0f |\n",
				proto, strings.ToUpper(k.String()), c.PDR, c.PDRStderr, c.DelayMS,
				c.ForwardCost, c.ControlBytes, c.StateSize)
		}
	}
	fmt.Fprintf(&b, "\nSources per group: %d. With a single source the two protocols are provably\n"+
		"packet-for-packet identical — ODMRP's δ-wait reply mesh for one source\n"+
		"*is* the best-parent tree MCST builds from that source as core\n"+
		"(`TestGoldenSimcoreOutputMCSTSingleSource` pins the byte-identity) — so\n"+
		"the comparison runs the multi-source regime of §4.3, where the structures\n"+
		"diverge: ODMRP floods one mesh per source and unions them, while MCST\n"+
		"elects one core per group and grafts the other senders onto a single\n"+
		"bidirectional shared tree. \"Control bytes\" and \"route state\" (each node's\n"+
		"live route-establishment rounds + duplicate windows at the end of the\n"+
		"run) therefore scale with sources for ODMRP but not for MCST — the\n"+
		"shared tree spends roughly half the control bytes, ~20 %% fewer data\n"+
		"rebroadcasts per delivered packet, and ~17 %% less route state. Delay\n"+
		"drops 2-4x with the tree (fewer redundant rebroadcasts contending for\n"+
		"the channel). PDR is statistically equal at this load: ODMRP's mesh\n"+
		"redundancy, which §4.3 shows erasing the *metric* gains, here exactly\n"+
		"offsets the detour cost of funneling every sender through the core.\n", cmp.sourcesPerGroup)
	r.section("Protocol comparison — ODMRP mesh vs MCST shared tree", b.String())
}

// fadingSection renders the fading ablation.
func (r *report) fadingSection(ab *FadingAblation) {
	var b strings.Builder
	fmt.Fprintf(&b, "| fading | ODMRP abs PDR | ODMRP_SPP rel. throughput |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| Rayleigh | %.3f | %.3f |\n", ab.WithFading.BaselinePDR, ab.WithFading.Rows[0].RelThroughput)
	fmt.Fprintf(&b, "| none | %.3f | %.3f |\n", ab.WithoutFading.BaselinePDR, ab.WithoutFading.Rows[0].RelThroughput)
	b.WriteString("\nWithout fading the baseline's min-hop paths stop being lossy and the\n" +
		"link-quality gain largely evaporates — fading is the mechanism behind\n" +
		"the paper's headline result (§4.2.1).\n")
	r.section("Ablation — fading on/off", b.String())
}

// churnSection renders the churn sweep: PDR per metric and churn level, and
// the mean repair latency at the highest level. o is the scale it ran at.
func (r *report) churnSection(o Options, rows []churnRow) {
	var b strings.Builder
	fmt.Fprintf(&b, "Beyond the paper: the same §4.1 scenario with a fraction of the nodes under\n"+
		"MTBF/MTTR crash/restart churn (MTBF %.0f s, MTTR %.0f s, churn confined to the\n"+
		"measurement window). The fault schedule is drawn from the seed alone, so all\n"+
		"metrics face identical failures. See docs/ROBUSTNESS.md for the fault model.\n"+
		"Regenerate with `go run ./cmd/experiments` (%s):\n\n",
		churnMTBF.Seconds(), churnMTTR.Seconds(), scaleText(o))
	b.WriteString("| metric | PDR 0% churn | 10% churn | 25% churn | mean repair @25% |\n|---|---|---|---|---|\n")
	pdrAtMax := map[metric.Kind]float64{}
	for _, row := range rows {
		fmt.Fprintf(&b, "| %v |", row.metric)
		for _, pdr := range row.pdr {
			fmt.Fprintf(&b, " %.1f%% |", 100*pdr)
		}
		repair := "—"
		if row.repaired {
			repair = fmt.Sprintf("%.2f s", row.meanRepair.Seconds())
		}
		fmt.Fprintf(&b, " %s |\n", repair)
		pdrAtMax[row.metric] = row.pdr[len(row.pdr)-1]
	}
	fmt.Fprintf(&b, "\nEvery metric degrades under churn, but the link-quality metrics keep their\n"+
		"advantage over the original ODMRP, and the gap *widens* at 25%% churn (SPP\n"+
		"holds %.1f%% while min-hop collapses to %.1f%%): when a forwarding node dies,\n",
		100*pdrAtMax[metric.SPP], 100*pdrAtMax[metric.MinHop])
	b.WriteString("metrics that already avoid marginal links rebuild onto good alternatives,\n" +
		"while min-hop rebuilds onto the same long lossy hops that were barely\n" +
		"working before. Repair latencies are fractions of the 3 s refresh interval\n" +
		"because a dense 50-node mesh usually has a surviving forwarder; the\n" +
		"seconds-scale worst cases (visible per-group in `cmd/meshsim -churn` output)\n" +
		"correspond to actual tree rebuilds bounded by RefreshInterval + FGTimeout.\n" +
		"\nReproduce a single deterministic churn run (stdout is byte-identical for a\n" +
		"given seed):\n\n```sh\ngo run ./cmd/meshsim -metric spp -churn 0.25 -seconds 200 -seed 3\n```\n")
	r.section("Churn — self-healing under node failures", b.String())
}

// mobilitySection renders a protocols × speeds mobility sweep: delivery
// under increasing node speed, route-repair latency, and reconvergence. o is
// the scale it ran at.
func (r *report) mobilitySection(o Options, sweep *mobilitySweep) {
	var b strings.Builder
	fmt.Fprintf(&b, "| protocol | max speed (m/s) | PDR | ± stderr | motion PDR | repair mean (ms) | repair max (ms) | reconv/run | breaks/s |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
	for _, proto := range sweep.protocols {
		for _, speed := range sweep.speeds {
			c := sweep.cell(proto, speed)
			motion, repairMean, repairMax := "—", "—", "—"
			if speed > 0 {
				motion = fmt.Sprintf("%.3f", c.MotionPDR)
				repairMean = fmt.Sprintf("%.1f", c.RepairMeanMS)
				repairMax = fmt.Sprintf("%.1f", c.RepairMaxMS)
			}
			fmt.Fprintf(&b, "| %s | %.0f | %.3f | %.3f | %s | %s | %s | %.1f | %.2f |\n",
				proto, speed, c.PDR, c.PDRStderr, motion, repairMean, repairMax,
				c.Reconvergences, c.BreaksPerSec)
		}
	}
	fmt.Fprintf(&b, "\nModel: %s (motion starts with traffic; metric %s; %d sources per\n"+
		"group — single-source ODMRP and MCST are provably identical, motion or\n"+
		"not; speed 0 is the static control). Repair latency is break-tick to\n"+
		"the group's next delivery; a reconvergence is a >1 s delivery silence\n"+
		"following breaks — the span the forwarding structure needed to\n"+
		"re-form. Both protocols rebuild soft state every query round, so\n"+
		"sub-second repairs dominate and neither collapses even at vehicular\n"+
		"speeds; per-round rebuilds also let them exploit the densification\n"+
		"waypoint motion causes (random waypoints concentrate nodes toward the\n"+
		"area centre, shortening links), which can lift PDR above the static\n"+
		"control. The repair-max column is where speed shows its teeth.\n"+
		"\nRegenerate with `go run ./cmd/experiments` (%s).\n",
		sweep.model, strings.ToUpper(sweep.metric.String()), sweep.sourcesPerGroup, scaleText(o))
	r.section("Mobility — delivery under motion (speed sweep)", b.String())
}

// deviations appends the standing account of where this reproduction's
// numbers depart from the paper's, and why. headline and secondary are the
// scales of Figure 2's main column and of its probing-rate variants; when
// they differ, item 4 says so.
func (r *report) deviations(headline, secondary Options) {
	scaleNote := ""
	if len(headline.Seeds) != len(secondary.Seeds) || headline.TrafficSeconds != secondary.TrafficSeconds {
		scaleNote = fmt.Sprintf(" Note the probing-rate tables\n"+
			"   above use %d seeds × %d s (vs %d × %d s for the headline column), so\n"+
			"   their baselines differ; compare only within a table.",
			len(secondary.Seeds), secondary.TrafficSeconds, len(headline.Seeds), headline.TrafficSeconds)
	}
	r.section("Deviations and notes", `The orderings and mechanisms above reproduce; the following do not, and
are reported as findings rather than hidden:

1. **Absolute gains are ~2-3x the paper's** (≈+35-46% vs +13.5-18% in
   simulation). Our Rayleigh regime leaves the nominal-range link at only
   e⁻¹ ≈ 37% delivery, harsher than GloMoSim's; min-hop ODMRP suffers
   correspondingly more. Orderings are unaffected.
2. **PP places mid-pack in simulation instead of tying SPP for first.**
   Under a smooth df-vs-distance curve, PP's loss penalty only
   distinguishes links below df ≈ 0.8 (where the 20% penalties compound
   faster than the EWMA decays), so mid-quality links all cost near the
   baseline pair delay. On the testbed, whose links are bimodal
   (0.4-0.6 vs 0.94-1.0), PP's filter is exactly right and it takes first
   place as in the paper.
3. **SPP's delay rank inverts.** The paper shows SPP among the lowest
   delays; here it is highest. Two causes: SPP trades hops for reliability
   aggressively under a smooth loss-distance curve (a product metric never
   pays for extra hops), and the delay average is composition-biased —
   the metrics deliver to distant members the baseline starves entirely,
   so their delivered-packet population is longer-path. ETX's low relative
   delay does reproduce.
4. **The probing-rate throughput deltas are within noise and trend
   opposite at the low end.** The paper reports 5x probing costs ~2% and
   10x-lower probing gains ~3%. Our probe traffic at these loads is too
   small for its interference to beat run-to-run variance (stderr ≈ 5%),
   while 10x-lower probing visibly hurts because a 10-probe ETX window
   then spans 500 s — estimator staleness dominates interference in our
   regime. The overhead side of the tradeoff (Table 1 bytes scaling
   linearly with rate) reproduces exactly.`+scaleNote+`
5. **Multi-source gains collapse to ≈0 rather than shrinking by 10-15
   points.** Direction matches §4.3 — per-group (not per-source)
   forwarding meshes get redundant — but with 3 sources per 10-member
   group our mesh covers most of the 50-node network, erasing the gap
   entirely.
`)
}

// String returns the accumulated markdown.
func (r *report) String() string { return r.b.String() }
