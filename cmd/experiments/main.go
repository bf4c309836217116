// Command experiments regenerates every table and figure of the paper's
// evaluation and emits a markdown report comparing paper values with
// measured values (the contents of EXPERIMENTS.md).
//
// Every (metric, seed) cell of the evaluation is an independent simulation,
// so the matrix executes through the internal/runner job harness: -j sets
// the worker count (the report is byte-identical for any value), and
// -cache-dir enables the content-addressed result cache so repeated or
// resumed sweeps skip completed runs.
//
// Usage:
//
//	go run ./cmd/experiments            # quick: 3 seeds, 150 s traffic
//	go run ./cmd/experiments -full      # paper scale: 10 seeds, 400 s
//	go run ./cmd/experiments -j 8 -cache-dir .expcache -o EXPERIMENTS.md
//	go run ./cmd/experiments -skip-ablations
//	go run ./cmd/experiments -telemetry DIR   # record the harness itself (meshstat DIR)
//	go run ./cmd/experiments -protocol mcst   # ODMRP-vs-MCST comparison, then exit
//	go run ./cmd/experiments -mobility        # ODMRP-vs-MCST speed sweep, then exit
//
// Performance numbers are not this command's job: see benchmark/README.md
// (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	_ "meshcast/internal/multicast/protocols" // populate the protocol registry
	"meshcast/internal/prof"
	"meshcast/internal/runner"
	"meshcast/internal/telemetry"
)

func main() {
	full := flag.Bool("full", false, "paper-scale configuration (10 seeds, 400 s traffic; slower)")
	out := flag.String("o", "", "write the report to this file instead of stdout")
	skipAblations := flag.Bool("skip-ablations", false, "skip the (slow) ablation sweeps")
	protocol := flag.String("protocol", "", "compare ODMRP against this multicast protocol across every paper metric and exit (registered: "+strings.Join(multicast.Names(), ", ")+")")
	testbedRuns := flag.Int("testbed-runs", 5, "testbed runs per metric")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation jobs (output is byte-identical for any value)")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (empty disables caching)")
	mobilitySweep := flag.Bool("mobility", false, "run the ODMRP-vs-MCST mobility speed sweep and exit")
	mobilitySpeeds := flag.String("mobility-speeds", "0,1,5,10,20", "comma-separated max speeds (m/s) for -mobility; 0 is the static control")
	telemetryDir := flag.String("telemetry", "", "record sweep-harness telemetry (cache hits/misses, job latency) to this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *protocol != "":
		err = runProtocolComparison(*protocol, *out, *full, *jobs, *cacheDir)
	case *mobilitySweep:
		err = runMobilitySweep(*mobilitySpeeds, *out, *full, *jobs, *cacheDir)
	default:
		err = run(*full, *out, *skipAblations, *testbedRuns, *jobs, *cacheDir, *telemetryDir)
	}
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runProtocolComparison sweeps ODMRP and the named protocol over every
// paper metric and seed, and renders the comparison table. Unknown protocol
// names fail before any simulation runs, listing the registered ones.
func runProtocolComparison(protocol, out string, full bool, jobs int, cacheDir string) error {
	name, err := multicast.Resolve(protocol)
	if err != nil {
		return fmt.Errorf("-protocol: %w", err)
	}
	start := time.Now()
	opts := experiments.QuickOptions()
	if full {
		opts = experiments.FullOptions()
	}
	// The comparison runs the §4.3 multi-source regime: with one source per
	// group ODMRP's reply mesh degenerates to exactly the shared tree MCST
	// builds from that source as core (the golden tests pin the byte
	// identity), so protocol structure only shows with several senders.
	opts.SourcesPerGroup = 3
	opts.Workers = jobs
	opts.CacheDir = cacheDir
	opts.Progress = jobProgress(start)
	protocols := []string{multicast.Default}
	if name != multicast.Default {
		protocols = append(protocols, name)
	}
	cmp, err := experiments.RunProtocolComparison(opts, protocols)
	if err != nil {
		return err
	}
	report := experiments.NewReport(opts, 0, 0)
	report.ProtocolSection(cmp)
	report.Elapsed(time.Since(start))
	return emit(out, report.String())
}

// runMobilitySweep executes the ODMRP-vs-MCST waypoint speed sweep and
// renders the mobility section. speedCsv is a comma-separated m/s list.
func runMobilitySweep(speedCsv, out string, full bool, jobs int, cacheDir string) error {
	var speeds []float64
	for _, f := range strings.Split(speedCsv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v < 0 {
			return fmt.Errorf("-mobility-speeds: bad speed %q", f)
		}
		speeds = append(speeds, v)
	}
	start := time.Now()
	opts := experiments.QuickOptions()
	if full {
		opts = experiments.FullOptions()
	}
	opts.Workers = jobs
	opts.CacheDir = cacheDir
	opts.Progress = jobProgress(start)
	sweep, err := experiments.RunMobilitySweep(opts, []string{"odmrp", "mcst"}, speeds)
	if err != nil {
		return err
	}
	report := experiments.NewReport(opts, 0, 0)
	report.MobilitySection(sweep)
	report.Elapsed(time.Since(start))
	return emit(out, report.String())
}

// jobProgress returns the per-job completion printer every sweep installs as
// Options.Progress: "[    41s] [12/50] etx seed 3 done (cached)" on stderr,
// timed from start. Callbacks are serialized by the pool.
func jobProgress(start time.Time) func(runner.Progress) {
	return func(p runner.Progress) {
		suffix := ""
		if p.Cached {
			suffix = " (cached)"
		}
		if p.Err != nil {
			suffix = " FAILED: " + p.Err.Error()
		}
		fmt.Fprintf(os.Stderr, "[%7s] [%d/%d] %s done%s\n",
			time.Since(start).Round(time.Second), p.Done, p.Total, p.Label, suffix)
	}
}

// emit writes a finished report to the file named by out, or to stdout when
// out is empty.
func emit(out, report string) error {
	if out == "" {
		fmt.Print(report)
		return nil
	}
	return os.WriteFile(out, []byte(report), 0o644)
}

func run(full bool, out string, skipAblations bool, testbedRuns, jobs int, cacheDir, telemetryDir string) (err error) {
	start := time.Now()
	opts := experiments.QuickOptions()
	testbedSeconds := 150
	if full {
		opts = experiments.FullOptions()
		testbedSeconds = 400
	}
	progress := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "[%7s] ", time.Since(start).Round(time.Second))
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	opts.Workers = jobs
	opts.CacheDir = cacheDir
	opts.Progress = jobProgress(start)
	// -telemetry records the sweep harness itself (cache hit/miss counters,
	// job wall-clock latency histogram); there is no virtual clock to sample,
	// so the manifest carries the final instrument state and the series stays
	// empty.
	if telemetryDir != "" {
		rec, recErr := telemetry.NewRecorder(telemetryDir, 0)
		if recErr != nil {
			return recErr
		}
		opts.PoolMetrics = runner.NewMetrics(rec.Registry())
		// Finalize when a phase fails too: NewRecorder has already created
		// series.jsonl, and meshstat cannot load a directory that has the
		// series but no manifest.
		defer func() {
			label := "experiments sweep"
			if err != nil {
				label += " (failed)"
			}
			ferr := rec.Finalize(telemetry.Manifest{Label: label})
			if ferr == nil {
				progress("telemetry: wrote %s", rec.Dir())
			} else if err == nil {
				err = ferr
			}
		}()
	}
	// secondary scales down the probing-rate variants and ablations, which
	// sweep many configurations; the headline Figure 2 column keeps the
	// full seed count.
	secondary := opts
	if full {
		secondary.Seeds = opts.Seeds[:5]
		secondary.TrafficSeconds = 250
	}

	report := experiments.NewReport(opts, testbedRuns, testbedSeconds)

	progress("figure 2: throughput-simulations (+ delay + table 1) [%d workers]", jobs)
	sims, err := experiments.RunPaperSims(opts)
	if err != nil {
		return fmt.Errorf("fig2 simulations: %w", err)
	}
	report.Fig2SimTable(`Figure 2 — column "Throughput-simulations"`, sims, experiments.PaperFig2Simulation,
		"Shape reproduced: every link-quality metric beats the original ODMRP;\n"+
			"SPP leads, ETT trails ETX. Our fading regime is harsher than\n"+
			"GloMoSim's, so absolute gains are larger than the paper's 13.5-18%.")
	report.DelayTable(sims)
	report.Table1(sims)

	progress("figure 2: throughput with 5x probing rate")
	high := secondary
	high.ProbeRateFactor = 5
	highSims, err := experiments.RunPaperSims(high)
	if err != nil {
		return fmt.Errorf("fig2 high overhead: %w", err)
	}
	report.Fig2SimTable(`Figure 2 — column "Throughput-high overhead" (5x probing)`, highSims, nil,
		"Paper: all metrics drop by ~2% relative to the default probing rate\n"+
			"because probes interfere with data traffic.")

	progress("§4.2.2: throughput with 10x lower probing rate")
	low := secondary
	low.ProbeRateFactor = 0.1
	lowSims, err := experiments.RunPaperSims(low)
	if err != nil {
		return fmt.Errorf("fig2 low overhead: %w", err)
	}
	report.Fig2SimTable("§4.2.2 — 10x lower probing rate", lowSims, nil,
		"Paper: gains improve by ~3% — less probe interference, at the price\n"+
			"of staler link information.")

	progress("figure 2: throughput-testbed (+ figure 4/5 artifacts)")
	col, err := experiments.RunTestbedColumn(opts, testbedRuns, testbedSeconds)
	if err != nil {
		return fmt.Errorf("testbed column: %w", err)
	}
	report.TestbedTable(col)

	progress("§4.3: multiple sources per group")
	multiOpts := secondary
	multiOpts.Metrics = []metric.Kind{metric.SPP, metric.PP, metric.ETX}
	multi, err := experiments.RunMultiSource(multiOpts, 3)
	if err != nil {
		return fmt.Errorf("multi-source: %w", err)
	}
	report.MultiSourceSection(multi)

	if !skipAblations {
		progress("ablation: fading on/off")
		fad, err := experiments.RunFadingAblation(secondary)
		if err != nil {
			return fmt.Errorf("fading ablation: %w", err)
		}
		report.FadingSection(fad)

		progress("ablation: delta/alpha sweep")
		da, err := experiments.RunDeltaAlphaAblation(secondary, metric.SPP, []struct{ Delta, Alpha time.Duration }{
			{0, 0},
			{30 * time.Millisecond, 20 * time.Millisecond},
			{120 * time.Millisecond, 80 * time.Millisecond},
		})
		if err != nil {
			return fmt.Errorf("delta/alpha ablation: %w", err)
		}
		report.DeltaAlphaSection(da)

		progress("ablation: estimator history")
		hist, err := experiments.RunHistoryAblation(secondary)
		if err != nil {
			return fmt.Errorf("history ablation: %w", err)
		}
		report.HistorySection(hist)
	}

	report.Deviations()
	report.Elapsed(time.Since(start))
	progress("done")
	return emit(out, report.String())
}
