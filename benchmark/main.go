// Command benchmark is the repository's performance ledger: six workloads run
// through the simulator's real entry points, three end-to-end metrics with
// fixed regression bounds, and a per-layer ledger taken from outside the
// program in a separate traced run. README.md documents the names.
//
// Three ways to run it (from the repository root, through run.sh, which builds
// the binary inside the checkout):
//
//	bash benchmark/run.sh                       every workload, full document on stdout
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                            one workload, the driver's contract
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errRegressed makes -compare exit non-zero after printing its table.
var errRegressed = errors.New("compare: at least one metric regressed or more operations failed")

func realMain() error {
	var (
		seed      = flag.Uint64("seed", 1, "benchmark seed: drives every scenario RNG stream (2 is the held-out seed)")
		reps      = flag.Int("reps", 5, "minimum timed reps per workload")
		seconds   = flag.Float64("seconds", 15, "minimum measuring time of the timed phase per workload")
		names     = flag.String("workload", "", "comma-separated workload subset (default: all)")
		out       = flag.String("out", "", "also write the result document to this file")
		quick     = flag.Bool("quick", false, "smoke run: traffic windows ÷ 20, one rep, kernels at 10³ ops; refused by -compare")
		trace     = flag.Int("trace", -1, "contract mode: 0 prints the end-to-end metrics, 1 the per-layer metrics, of the one -workload")
		child     = flag.Bool("child", false, "internal: run one workload in this process and print its full result")
		compare   = flag.Bool("compare", false, "compare two result documents (or comma-separated lists of them): -compare A.json B.json")
		emitBench = flag.Bool("emit-benchmark-json", false, "print the BENCHMARK.json this code defines")
	)
	flag.Parse()

	if *emitBench {
		return printJSON(os.Stdout, benchmarkJSON(), true)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two arguments, got %d", flag.NArg())
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", flag.Args())
	}

	base, err := benchmarkDir()
	if err != nil {
		return err
	}
	selected, err := selectWorkloads(*names)
	if err != nil {
		return err
	}
	opt := options{seed: *seed, reps: *reps, seconds: *seconds, quick: *quick, outDir: filepath.Join(base, "out")}
	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return err
	}

	if *trace >= 0 || *child {
		if len(selected) != 1 || *names == "" {
			return fmt.Errorf("-trace and -child need exactly one -workload")
		}
		// One simulation per core is how the paper sweep runs (a pool of nproc
		// workers), and it is what repeats: with the collector on a second
		// core the spread of identical runs was five times wider.
		runtime.GOMAXPROCS(1)
	}
	switch {
	case *trace >= 0:
		// The driver's contract: one workload, one four-key JSON line.
		opt.timed, opt.traced = *trace == 0, *trace == 1
		res := selected[0].run(opt)
		metrics := res.EndToEnd
		if opt.traced {
			metrics = res.PerLayer
		}
		if len(metrics) == 0 {
			return fmt.Errorf("%s: no metrics measured: %s", res.Workload, strings.Join(res.Failures, "; "))
		}
		values := make(map[string]any, len(metrics))
		for name, m := range metrics {
			values[name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
		printTable(os.Stderr, []*workloadResult{res})
		return printJSON(os.Stdout, map[string]any{
			"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": values,
		}, false)

	case *child:
		opt.timed, opt.traced = true, true
		return printJSON(os.Stdout, selected[0].run(opt), false)
	}

	// Full run: each workload in its own child process, one at a time, so
	// that peak RSS belongs to that workload alone.
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := document{Schema: schemaName, Quick: *quick, EndToEnd: endToEnd, Bounds: "see end_to_end[].bound; setup_s and peak_rss_mb also need an absolute worsening of 20 ms and 4 MB"}
	for _, w := range selected {
		fmt.Fprintf(os.Stderr, "== %s\n", w.name)
		args := []string{"-child", "-workload", w.name,
			"-seed", fmt.Sprint(*seed), "-reps", fmt.Sprint(*reps), "-seconds", fmt.Sprint(*seconds)}
		if *quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("workload %s: %w", w.name, err)
		}
		var res workloadResult
		if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
			return fmt.Errorf("workload %s: parse child output: %w", w.name, err)
		}
		doc.Workloads = append(doc.Workloads, &res)
	}
	doc.Info = collectInfo(filepath.Dir(base), *seed, *reps, *seconds, time.Since(start))
	printTable(os.Stderr, doc.Workloads)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := printJSON(f, doc, true); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if err := printJSON(os.Stdout, doc, false); err != nil {
		return err
	}
	for _, r := range doc.Workloads {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

const schemaName = "meshcast/benchmark/v1"

// document is the full run's output: one JSON object, last line of stdout.
type document struct {
	Schema    string            `json:"schema"`
	Quick     bool              `json:"quick"`
	Info      map[string]any    `json:"info"`
	EndToEnd  []metricDef       `json:"end_to_end"`
	Bounds    string            `json:"bounds"`
	Workloads []*workloadResult `json:"workloads"`
}

func printJSON(f *os.File, v any, indent bool) error {
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	return []byte(lines[len(lines)-1])
}

func selectWorkloads(csv string) ([]workload, error) {
	if csv == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(csv, ",") {
		w, ok := findWorkload(strings.TrimSpace(name))
		if !ok {
			var known []string
			for _, w := range workloads {
				known = append(known, w.name)
			}
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(known, ", "))
		}
		out = append(out, w)
	}
	return out, nil
}

// benchmarkDir finds this package's directory from the working directory,
// which is either the repository root or the package directory itself.
func benchmarkDir() (string, error) {
	for _, dir := range []string{"benchmark", "."} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module meshcast/benchmark\n") {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("run from the repository root or from benchmark/: no benchmark/go.mod here")
}

// benchmarkJSON renders the contract file from the definitions in this
// package, so the two cannot drift apart.
func benchmarkJSON() map[string]any {
	strip := func(defs []metricDef, bounded bool) []map[string]any {
		out := make([]map[string]any, len(defs))
		for i, d := range defs {
			out[i] = map[string]any{"name": d.Name, "unit": d.Unit, "better": d.Better}
			if bounded {
				out[i]["bound"] = d.Bound
			}
		}
		return out
	}
	ws := make([]map[string]string, len(workloads))
	for i, w := range workloads {
		ws[i] = map[string]string{"name": w.name, "why": w.why}
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": 15,
		"workloads":   ws,
		"end_to_end":  strip(endToEnd, true),
		"per_layer":   strip(perLayer, false),
	}
}
