package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"

	"meshcast/internal/runner"
	"meshcast/internal/testbed"
)

// ScenarioJob is one labeled simulation run for the job harness.
type ScenarioJob = runner.Job[ScenarioConfig]

// ScenarioResult is one scenario job's outcome, in submission order.
type ScenarioResult = runner.Result[*RunResult]

// runJobs executes jobs through the worker pool configured by the Options
// (Workers, CacheDir, Progress). Results come back in submission order with
// per-job errors captured, so aggregation never depends on completion
// order. A cached result is the result struct's own JSON: integers round-
// trip trivially and float64 through encoding/json's shortest-exact
// formatting, so a cache hit reproduces the byte-identical report a fresh
// run would have produced, and a field added to R is cached without
// further code.
func runJobs[C, R any](o Options, jobs []runner.Job[C], run func(C) (*R, error), key func(C) (string, bool)) ([]runner.Result[*R], error) {
	pool := &runner.Pool[C, *R]{
		Workers:    o.Workers,
		Run:        run,
		OnProgress: o.Progress,
		Metrics:    o.PoolMetrics,
	}
	if o.CacheDir != "" {
		cache, err := runner.OpenCache(o.CacheDir)
		if err != nil {
			return nil, err
		}
		pool.Cache = cache
		pool.Key = key
		pool.Encode = encodeResult[R]
		pool.Decode = decodeResult[R]
	}
	return pool.Execute(jobs), nil
}

func encodeResult[R any](r *R) ([]byte, error) { return json.Marshal(r) }

func decodeResult[R any](data []byte) (*R, error) {
	r := new(R)
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

func (o Options) runScenarioJobs(jobs []ScenarioJob) ([]ScenarioResult, error) {
	return runJobs(o, jobs, RunScenario, ScenarioKey)
}

func (o Options) runTestbedJobs(jobs []TestbedJob) ([]TestbedResult, error) {
	return runJobs(o, jobs, testbed.Run, TestbedKey)
}

// BatchOptions configures a standalone batch run through the harness,
// independent of a paper sweep's Options.
type BatchOptions struct {
	// Workers is the worker-pool size (0 = GOMAXPROCS).
	Workers int
	// CacheDir enables the content-addressed result cache when non-empty.
	CacheDir string
	// Progress, when set, observes each job completion.
	Progress func(runner.Progress)
	// PoolMetrics, when non-nil, instruments the worker pool.
	PoolMetrics *runner.Metrics
}

// RunScenarioBatch executes labeled scenario jobs through the worker pool
// and returns their results in submission order. This is the public entry
// point for callers (examples, external tools) that build their own
// metric × seed matrices.
func RunScenarioBatch(jobs []ScenarioJob, bo BatchOptions) ([]ScenarioResult, error) {
	o := Options{Workers: bo.Workers, CacheDir: bo.CacheDir, Progress: bo.Progress, PoolMetrics: bo.PoolMetrics}
	return o.runScenarioJobs(jobs)
}

// RunTestbedBatch executes labeled testbed jobs through the worker pool and
// returns their results in submission order.
func RunTestbedBatch(jobs []TestbedJob, bo BatchOptions) ([]TestbedResult, error) {
	o := Options{Workers: bo.Workers, CacheDir: bo.CacheDir, Progress: bo.Progress, PoolMetrics: bo.PoolMetrics}
	return o.runTestbedJobs(jobs)
}

// hashWriter appends canonical field encodings to a hash. Floats are hashed
// by their IEEE-754 bits so that two configs hash equal exactly when every
// run-affecting value is bit-identical.
type hashWriter struct{ h hash.Hash }

func (w hashWriter) str(format string, args ...any) { fmt.Fprintf(w.h, format, args...) }

func (w hashWriter) f64(label string, v float64) {
	w.str("%s=%016x;", label, math.Float64bits(v))
}

// ScenarioKey returns the content hash that addresses a scenario's cached
// result, and whether the scenario is cachable at all. Scenarios with an
// attached sink (span tracing, telemetry) have side effects beyond their
// RunResult and are never cached. Bump the version prefix whenever RunResult
// or the simulation's behavior changes incompatibly: old entries then simply
// miss.
func ScenarioKey(cfg ScenarioConfig) (string, bool) {
	if cfg.SpanSink != nil || cfg.Telemetry != nil {
		return "", false
	}
	w := hashWriter{sha256.New()}
	w.str("meshcast/scenario/v4\n")
	w.str("proto=%s;", cfg.Protocol)
	w.str("seed=%d;metric=%s;dur=%d;payload=%d;interval=%d;start=%d;win=%d;",
		cfg.Seed, cfg.Metric, cfg.Duration, cfg.PayloadBytes, cfg.SendInterval,
		cfg.TrafficStart, cfg.WindowSize)
	w.f64("prf", cfg.ProbeRateFactor)
	w.f64("phw", cfg.PairHistoryWeight)

	// Fading: the concrete type plus its parameters (all known models are
	// plain value structs). nil means the Rayleigh default.
	if cfg.Fading == nil {
		w.str("fading=default;")
	} else {
		w.str("fading=%T%+v;", cfg.Fading, cfg.Fading)
	}

	// Topology: the area and every position, bit-exact.
	w.str("\ntopo:")
	if cfg.Topology != nil {
		a := cfg.Topology.Area
		w.f64("ax0", a.Min.X)
		w.f64("ay0", a.Min.Y)
		w.f64("ax1", a.Max.X)
		w.f64("ay1", a.Max.Y)
		for i, p := range cfg.Topology.Positions {
			w.str("n%d:", i)
			w.f64("x", p.X)
			w.f64("y", p.Y)
		}
	}

	w.str("\ngroups:")
	for _, g := range cfg.Groups {
		w.str("g=%d;src=%v;mem=%v;", g.Group, g.Sources, g.Members)
	}

	w.str("\nodmrp:")
	if cfg.ODMRP != nil {
		w.str("%+v", *cfg.ODMRP)
	}

	w.str("\nfaults:")
	if cfg.Faults != nil {
		p := cfg.Faults
		if p.Churn != nil {
			c := *p.Churn
			w.str("churn:mtbf=%d;mttr=%d;start=%d;end=%d;", c.MTBF, c.MTTR, c.Start, c.End)
			w.f64("frac", c.Fraction)
		}
		w.str("outages=%+v;partitions=%+v;", p.Outages, p.Partitions)
		for _, lf := range p.LinkFaults {
			w.str("lf:%d,%d,%d,%d,%v;", lf.From, lf.To, lf.Start, lf.Duration, lf.Symmetric)
			w.f64("drop", lf.DropProb)
			w.f64("att", lf.AttenuationDB)
		}
	}

	w.str("\nmobility:")
	if cfg.Mobility != nil {
		c := cfg.Mobility
		w.str("model=%s;pause=%d;tick=%d;start=%d;end=%d;groups=%d;corridors=%d;",
			c.Model, c.Pause, c.Tick, c.Start, c.End, c.Groups, c.Corridors)
		w.f64("min", c.MinSpeedMps)
		w.f64("max", c.MaxSpeedMps)
		w.f64("range", c.LinkRangeM)
		w.f64("gradius", c.GroupRadiusM)
	}
	return hex.EncodeToString(w.h.Sum(nil)), true
}

// --- testbed jobs -----------------------------------------------------------

// TestbedJob is one labeled testbed emulation for the job harness.
type TestbedJob = runner.Job[testbed.Config]

// TestbedResult is one testbed job's outcome.
type TestbedResult = runner.Result[*testbed.Result]

// TestbedKey content-addresses a testbed run (paper Figure 4 topology; the
// config fully determines the run).
func TestbedKey(cfg testbed.Config) (string, bool) {
	w := hashWriter{sha256.New()}
	w.str("meshcast/testbed/v3\n")
	w.str("proto=%s;metric=%s;seed=%d;traffic=%d;warmup=%d;vary=%d;",
		cfg.Protocol, cfg.Metric, cfg.Seed, cfg.TrafficSeconds, cfg.WarmupSeconds, cfg.VariationInterval)
	return hex.EncodeToString(w.h.Sum(nil)), true
}
