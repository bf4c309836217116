// Command experiments regenerates every table and figure of the paper's
// evaluation and writes the markdown report comparing paper values with
// measured values: the whole of EXPERIMENTS.md, generated by
// experiments.Generate, plus a wall-clock footer.
//
// Every (cell, seed) run of the evaluation is an independent simulation, so
// each section's grid executes through the internal/runner job harness: -j
// sets the worker count (the report is byte-identical for any value), and
// -cache-dir enables the content-addressed result cache so repeated or
// resumed sweeps skip completed runs.
//
// Usage:
//
//	go run ./cmd/experiments            # quick: 3 seeds, 150 s traffic
//	go run ./cmd/experiments -full      # paper scale: 10 seeds, 400 s (EXPERIMENTS.md)
//	go run ./cmd/experiments -full -j 8 -cache-dir .meshcache -o EXPERIMENTS.md
//	go run ./cmd/experiments -telemetry DIR   # record the harness itself (meshstat DIR)
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
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/prof"
	"meshcast/internal/runner"
	"meshcast/internal/telemetry"
)

func main() {
	full := flag.Bool("full", false, "paper-scale configuration (10 seeds, 400 s traffic; slower)")
	out := flag.String("o", "", "write the report to this file instead of stdout")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulation jobs (output is byte-identical for any value)")
	cacheDir := flag.String("cache-dir", "", "content-addressed result cache directory (empty disables caching)")
	telemetryDir := flag.String("telemetry", "", "record sweep-harness telemetry (cache hits/misses, job latency) to this directory")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	err = run(*full, *out, *jobs, *cacheDir, *telemetryDir)
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(full bool, out string, jobs int, cacheDir, telemetryDir string) (err error) {
	start := time.Now()
	opts := experiments.QuickOptions()
	if full {
		opts = experiments.FullOptions()
	}
	opts.Workers = jobs
	opts.CacheDir = cacheDir
	// One line per finished job on stderr: "[    41s] [12/50] etx seed 3
	// done (cached)", timed from start. Callbacks are serialized by the pool.
	opts.Progress = func(p runner.Progress) {
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
		// Finalize when a section fails too: NewRecorder has already created
		// series.jsonl, and meshstat cannot load a directory that has the
		// series but no manifest.
		defer func() {
			label := "experiments sweep"
			if err != nil {
				label += " (failed)"
			}
			if ferr := rec.Finalize(telemetry.Manifest{Label: label}); ferr != nil && err == nil {
				err = ferr
			}
		}()
	}
	report, err := experiments.Generate(opts)
	if err != nil {
		return err
	}
	report += fmt.Sprintf("---\nGenerated in %s.\n", time.Since(start).Round(time.Second))
	if out == "" {
		_, err = fmt.Print(report)
		return err
	}
	return os.WriteFile(out, []byte(report), 0o644)
}
