package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

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

// Report accumulates a markdown reproduction report (EXPERIMENTS.md).
type Report struct {
	b strings.Builder
}

// NewReport starts a report with the standard preamble.
func NewReport(o Options, testbedRuns, testbedSeconds int) *Report {
	r := &Report{}
	fmt.Fprintf(&r.b, `# EXPERIMENTS — paper vs. measured

Reproduction of every table and figure in "High-Throughput Multicast Routing
Metrics in Wireless Mesh Networks" (Roy, Koutsonikolas, Das, Hu — ICDCS
2006). Absolute numbers are not expected to match (the substrate is this
repository's own simulator, not GloMoSim or the Purdue testbed); the claims
under reproduction are the *orderings and ratios* the paper reports.

Configuration: %d seeds × %d s traffic (+%d s probe warmup) for the
simulation columns; %d × %d s runs for the testbed column. Regenerate with
`+"`go run ./cmd/experiments -full`"+` or per-figure via
`+"`go test -bench . -benchmem`"+`. Runs execute through the parallel job
harness (`+"`-j N`"+` workers, `+"`-cache-dir`"+` result cache); the report
is byte-identical for any worker count.

`, len(o.Seeds), o.TrafficSeconds, o.WarmupSeconds, testbedRuns, testbedSeconds)
	return r
}

// Section appends a markdown heading and body.
func (r *Report) Section(title, body string) {
	fmt.Fprintf(&r.b, "## %s\n\n%s\n", title, body)
}

// Fig2SimTable renders the simulation throughput column against the paper.
func (r *Report) Fig2SimTable(title string, sims *PaperSims, paper map[metric.Kind]float64, note string) {
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
	r.Section(title, b.String())
}

// DelayTable renders the normalized-delay column.
func (r *Report) DelayTable(sims *PaperSims) {
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
	r.Section("Figure 2 — column \"Delay\"", b.String())
}

// Table1 renders probing overhead vs the paper.
func (r *Report) Table1(sims *PaperSims) {
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
	r.Section("Table 1 — probing overhead", b.String())
}

// TestbedTable renders the testbed column vs the paper.
func (r *Report) TestbedTable(col *TestbedColumn) {
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
	r.Section("Figure 2 — column \"Throughput-testbed\"", b.String())
}

// MultiSourceSection renders the §4.3 comparison.
func (r *Report) MultiSourceSection(cmp *MultiSourceComparison) {
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
	r.Section("§4.3 — multiple sources per group", b.String())
}

// DeltaAlphaSection renders the δ/α ablation.
func (r *Report) DeltaAlphaSection(points []DeltaAlphaPoint) {
	var b strings.Builder
	fmt.Fprintf(&b, "| δ | α | rel. throughput (SPP) |\n|---|---|---|\n")
	for _, p := range points {
		fmt.Fprintf(&b, "| %v | %v | %.3f |\n", p.Delta, p.Alpha, p.RelThroughput)
	}
	b.WriteString("\nδ = 0 disables the best-path wait (first-copy routing with metric\n" +
		"accumulation only through reply propagation); the paper's 30 ms / 20 ms\n" +
		"recovers the gain, and larger windows buy a little more at higher query\n" +
		"overhead (§4.1 reports 3-4% for much larger values).\n")
	r.Section("Ablation — δ/α path-diversity windows", b.String())
}

// HistorySection renders the estimator-history ablation.
func (r *Report) HistorySection(points []HistoryPoint) {
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
	r.Section("Ablation — estimator history length", b.String())
}

// ProtocolSection renders a protocols × metrics comparison: PDR, delay,
// forwarding cost, control bytes, and route-state size per cell.
func (r *Report) ProtocolSection(cmp *ProtocolComparison) {
	var b strings.Builder
	fmt.Fprintf(&b, "| protocol | metric | PDR | ± stderr | delay (ms) | fwd/delivered | control bytes | route state |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|\n")
	for _, k := range cmp.Metrics {
		for _, proto := range cmp.Protocols {
			c := cmp.Cell(proto, k)
			if c == nil {
				continue
			}
			fmt.Fprintf(&b, "| %s | %s | %.3f | %.3f | %.1f | %.2f | %.0f | %.0f |\n",
				proto, strings.ToUpper(k.String()), c.PDR, c.PDRStderr, c.DelayMS,
				c.ForwardCost, c.ControlBytes, c.StateSize)
		}
	}
	fmt.Fprintf(&b, "\nSources per group: %d. With a single source the two protocols are\n"+
		"provably packet-for-packet identical — ODMRP's δ-wait reply mesh for one\n"+
		"source *is* the best-parent tree MCST builds from that source as core\n"+
		"(`TestGoldenSimcoreOutputMCSTSingleSource` pins the byte-identity) — so\n"+
		"the comparison runs the multi-source regime of §4.3, where the\n"+
		"structures diverge: ODMRP floods one mesh per source and unions them,\n"+
		"while MCST elects one core per group and grafts the other senders onto\n"+
		"a single bidirectional shared tree. \"Control bytes\" and \"route state\"\n"+
		"(each node's live route-establishment rounds + duplicate windows at the\n"+
		"end of the run) therefore scale with sources for ODMRP but not for\n"+
		"MCST, the shared tree's forwarding cost (data rebroadcasts per packet\n"+
		"delivered) sits lower, and PDR pays for funneling every sender's\n"+
		"traffic through the core's single-path tree under fading.\n", cmp.SourcesPerGroup)
	r.Section("Protocol comparison — ODMRP mesh vs MCST shared tree", b.String())
}

// MobilitySection renders a protocols × speeds mobility sweep: delivery
// under increasing node speed, route-repair latency, and reconvergence.
func (r *Report) MobilitySection(sweep *MobilitySweep) {
	var b strings.Builder
	fmt.Fprintf(&b, "| protocol | max speed (m/s) | PDR | ± stderr | motion PDR | repair mean (ms) | repair max (ms) | reconv/run | breaks/s |\n")
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|\n")
	for _, proto := range sweep.Protocols {
		for _, speed := range sweep.Speeds {
			c := sweep.Cell(proto, speed)
			if c == nil {
				continue
			}
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
		"control. The repair-max column is where speed shows its teeth.\n",
		sweep.Model, strings.ToUpper(sweep.Metric.String()), sweep.SourcesPerGroup)
	r.Section("Mobility — delivery under motion (speed sweep)", b.String())
}

// FadingSection renders the fading ablation.
func (r *Report) FadingSection(ab *FadingAblation) {
	var b strings.Builder
	fmt.Fprintf(&b, "| fading | ODMRP abs PDR | ODMRP_SPP rel. throughput |\n|---|---|---|\n")
	fmt.Fprintf(&b, "| Rayleigh | %.3f | %.3f |\n", ab.WithFading.BaselinePDR, ab.WithFading.Rows[0].RelThroughput)
	fmt.Fprintf(&b, "| none | %.3f | %.3f |\n", ab.WithoutFading.BaselinePDR, ab.WithoutFading.Rows[0].RelThroughput)
	b.WriteString("\nWithout fading the baseline's min-hop paths stop being lossy and the\n" +
		"link-quality gain largely evaporates — fading is the mechanism behind\n" +
		"the paper's headline result (§4.2.1).\n")
	r.Section("Ablation — fading on/off", b.String())
}

// DeviationsText is the honest account of where this reproduction's
// numbers depart from the paper's, and why. It is appended to every
// generated report.
const DeviationsText = `The orderings and mechanisms above reproduce; the following do not, and
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
   linearly with rate) reproduces exactly.
5. **Multi-source gains collapse to ≈0 rather than shrinking by 10-15
   points.** Direction matches §4.3 — per-group (not per-source)
   forwarding meshes get redundant — but with 3 sources per 10-member
   group our mesh covers most of the 50-node network, erasing the gap
   entirely.
`

// Deviations appends the standing deviations section.
func (r *Report) Deviations() {
	r.Section("Deviations and notes", DeviationsText)
}

// Elapsed appends a footer with the wall-clock cost.
func (r *Report) Elapsed(d time.Duration) {
	fmt.Fprintf(&r.b, "---\nGenerated in %s.\n", d.Round(time.Second))
}

// String returns the accumulated markdown.
func (r *Report) String() string { return r.b.String() }
