package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"meshcast/internal/runner"
	"meshcast/internal/testbed"
)

// ScenarioJob is one labeled simulation run for the job harness.
type ScenarioJob = runner.Job[ScenarioConfig]

// ScenarioResult is one scenario job's outcome, in submission order.
type ScenarioResult = runner.Result[*RunResult]

// BatchOptions configures the execution harness only: it never influences
// measured results (reports are byte-identical for any Workers value) and
// is not part of any cache key.
type BatchOptions struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// CacheDir enables the content-addressed result cache when non-empty:
	// repeated or resumed sweeps skip completed runs.
	CacheDir string
	// Progress, when set, observes each job completion.
	Progress func(runner.Progress)
	// PoolMetrics, when non-nil, instruments the worker pool (cache
	// hits/misses, job latency) into a telemetry registry.
	PoolMetrics *runner.Metrics
}

// runJobs executes jobs through the worker pool bo configures. Results come
// back in submission order with per-job errors captured, so aggregation
// never depends on completion order.
func runJobs[C, R any](bo BatchOptions, jobs []runner.Job[C], run func(C) (*R, error), key func(C) (string, bool)) ([]runner.Result[*R], error) {
	pool := &runner.Pool[C, *R]{
		Workers:    bo.Workers,
		Run:        run,
		OnProgress: bo.Progress,
		Metrics:    bo.PoolMetrics,
	}
	if bo.CacheDir != "" {
		cache, err := runner.OpenCache(bo.CacheDir)
		if err != nil {
			return nil, err
		}
		pool.Cache = cache
		pool.Key = key
	}
	return pool.Execute(jobs), nil
}

// gridCell is one row of a sweep: the label its jobs carry and the config
// it runs on each seed.
type gridCell[C any] struct {
	label  string
	config func(seed uint64) (C, error)
}

// runGrid is every sweep's one path: it runs each cell on each seed in a
// single pool dispatch, so the whole sweep saturates the workers, and
// returns runs[cell][seed]. Folds read that matrix in index order, never in
// completion order, which keeps a parallel sweep byte-identical to a serial
// one. A failed run fails the grid as "<cell> seed N: …".
func runGrid[C, R any](bo BatchOptions, seeds []uint64, cells []gridCell[C], run func(C) (*R, error), key func(C) (string, bool)) ([][]*R, error) {
	jobs := make([]runner.Job[C], 0, len(cells)*len(seeds))
	for _, c := range cells {
		for _, seed := range seeds {
			cfg, err := c.config(seed)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, runner.Job[C]{Label: fmt.Sprintf("%s seed %d", c.label, seed), Config: cfg})
		}
	}
	results, err := runJobs(bo, jobs, run, key)
	if err != nil {
		return nil, err
	}
	runs := make([][]*R, len(cells))
	for i, c := range cells {
		runs[i] = make([]*R, len(seeds))
		for j, seed := range seeds {
			r := results[i*len(seeds)+j]
			if r.Err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", c.label, seed, r.Err)
			}
			runs[i][j] = r.Value
		}
	}
	return runs, nil
}

// RunScenarioBatch executes labeled scenario jobs through the worker pool
// and returns their results in submission order. This is the public entry
// point for callers (examples, external tools) that build their own
// metric × seed matrices.
func RunScenarioBatch(jobs []ScenarioJob, bo BatchOptions) ([]ScenarioResult, error) {
	return runJobs(bo, jobs, RunScenario, ScenarioKey)
}

// RunTestbedBatch executes labeled testbed jobs through the worker pool and
// returns their results in submission order.
func RunTestbedBatch(jobs []TestbedJob, bo BatchOptions) ([]TestbedResult, error) {
	return runJobs(bo, jobs, testbed.Run, TestbedKey)
}

// contentKey is a cache key: the sha256 of version followed by each part's
// JSON. A config's own encoding names every exported field, so a field added
// later is keyed without further code. A part JSON cannot encode (a NaN, an
// infinity) makes the run uncachable. Bump a caller's version whenever its
// result type or the simulation's behavior changes incompatibly: old entries
// then simply miss.
func contentKey(version string, parts ...any) (string, bool) {
	h := sha256.New()
	io.WriteString(h, version)
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if enc.Encode(p) != nil {
			return "", false
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// ScenarioKey returns the content hash that addresses a scenario's cached
// result, and whether the scenario is cachable at all. Scenarios with an
// attached sink (span tracing, telemetry) have side effects beyond their
// RunResult and are never cached. The fading model is keyed by its %#v
// form, which names each concrete type: the JSON of an interface drops it,
// so Rayleigh{} and NoFading{} would encode alike. The fault plan is keyed as
// the simulator injects it, without ether restarts, so a plan that differs
// only in those shares its key with the run it reproduces.
func ScenarioKey(cfg ScenarioConfig) (string, bool) {
	if cfg.SpanSink != nil || cfg.Telemetry != nil {
		return "", false
	}
	cfg.Faults = simulatedFaults(cfg.Faults)
	fading := fmt.Sprintf("%#v", cfg.Fading)
	cfg.Fading = nil
	return contentKey("meshcast/scenario/v5", cfg, fading)
}

// --- testbed jobs -----------------------------------------------------------

// TestbedJob is one labeled testbed emulation for the job harness.
type TestbedJob = runner.Job[testbed.Config]

// TestbedResult is one testbed job's outcome.
type TestbedResult = runner.Result[*testbed.Result]

// TestbedKey content-addresses a testbed run (paper Figure 4 topology; the
// config fully determines the run).
func TestbedKey(cfg testbed.Config) (string, bool) {
	return contentKey("meshcast/testbed/v4", cfg)
}
