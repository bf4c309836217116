// Package runner is the deterministic job harness behind every experiment
// sweep: a worker pool executes independent simulation jobs concurrently
// while preserving submission order in the results, and an optional
// content-addressed on-disk cache lets repeated or resumed sweeps skip runs
// whose configuration hash has been seen before.
//
// The harness is generic over the config and result types so the same pool
// serves the §4.1 scenario matrix (experiments.ScenarioConfig), the testbed
// column (testbed.Config), and anything a future experiment layer invents.
// Determinism is the design constraint throughout: a job's result depends
// only on its config (each run builds its own engine, medium, and nodes),
// results are returned in submission order — never completion order — and
// per-job errors are captured instead of tearing the pool down, so callers
// aggregate over an order that does not depend on scheduling.
package runner

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Job is one unit of work: an opaque config plus a display label for
// progress reporting.
type Job[C any] struct {
	// Label names the job in progress lines ("etx seed 3").
	Label string
	// Config fully determines the job's result.
	Config C
}

// Result is one job's outcome, reported in submission order.
type Result[R any] struct {
	// Label echoes the job's label.
	Label string
	// Value is the run's result; the zero value when Err is non-nil.
	Value R
	// Err captures the job's failure. One failing job does not stop the
	// pool; callers decide whether any error is fatal.
	Err error
	// Cached reports whether the value was served from the cache.
	Cached bool
}

// Progress describes one completed job for progress callbacks.
type Progress struct {
	// Done and Total count completed jobs against the batch size.
	Done, Total int
	// Label is the finished job's label.
	Label string
	// Cached reports a cache hit.
	Cached bool
	// Err is the job's error, if any.
	Err error
}

// Pool executes jobs through a bounded worker pool with optional result
// caching. The zero value is usable: Run must be set, everything else is
// optional.
type Pool[C, R any] struct {
	// Workers bounds concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// Run executes one job. It must be safe for concurrent invocation and
	// must depend only on its config (no shared mutable state).
	Run func(C) (R, error)
	// Key returns a job's canonical content hash for cache lookups. A
	// false second return marks the job uncachable (e.g. it has side
	// effects like trace or capture sinks). Nil disables caching even when
	// Cache is set.
	Key func(C) (string, bool)
	// Cache, when non-nil (and Key is set), serves and stores results
	// keyed by Key. An entry is the result's own JSON: integers round-trip
	// trivially and float64 through encoding/json's shortest-exact
	// formatting, so a hit reproduces the value a fresh run would have
	// produced, and a field added to R is cached without further code. An
	// entry that does not decode is corrupt: the job reruns and the entry
	// is rewritten.
	Cache *Cache
	// OnProgress, when non-nil, is called after each job completes. Calls
	// are serialized (never concurrent) but their order follows completion,
	// not submission.
	OnProgress func(Progress)
	// Metrics, when non-nil, records cache hits/misses and job wall-clock
	// latency into a telemetry registry (see NewMetrics).
	Metrics *Metrics
}

// Execute runs every job and returns the results in submission order:
// results[i] corresponds to jobs[i] regardless of which worker finished
// first. It blocks until all jobs have completed.
func (p *Pool[C, R]) Execute(jobs []Job[C]) []Result[R] {
	results := make([]Result[R], len(jobs))
	if len(jobs) == 0 {
		return results
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex
		done       int
	)
	report := func(i int) {
		if p.OnProgress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		p.OnProgress(Progress{
			Done:   done,
			Total:  len(jobs),
			Label:  results[i].Label,
			Cached: results[i].Cached,
			Err:    results[i].Err,
		})
	}

	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = p.one(jobs[i])
				report(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// one executes a single job: cache lookup, run, cache store.
func (p *Pool[C, R]) one(job Job[C]) (res Result[R]) {
	res.Label = job.Label
	defer func() {
		// A panicking job must not wedge the pool or kill its worker;
		// surface it as this job's error.
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("runner: job %q panicked: %v", job.Label, r)
		}
	}()

	key, cachable := "", false
	if p.Key != nil && p.Cache != nil {
		key, cachable = p.Key(job.Config)
	}
	if cachable {
		if data, ok := p.Cache.Get(key); ok {
			var v R
			if err := json.Unmarshal(data, &v); err == nil {
				res.Value, res.Cached = v, true
				p.Metrics.hit()
				return res
			}
			// Corrupt entry: fall through to a fresh run, which rewrites it.
		}
	}

	start := time.Now()
	v, err := p.Run(job.Config)
	p.Metrics.miss(time.Since(start).Seconds())
	if err != nil {
		res.Err = err
		return res
	}
	res.Value = v
	if cachable {
		if data, err := json.Marshal(v); err == nil {
			// A failed store is not a failed job; the next sweep simply
			// misses.
			_ = p.Cache.Put(key, data)
		}
	}
	return res
}
