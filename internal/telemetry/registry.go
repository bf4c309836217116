// Package telemetry is the cross-layer metrics subsystem: a registry of
// named counters, gauge funcs, and fixed-bucket histograms, and a recorder
// that samples the registry on a sim-clock interval and persists each run as
// a JSONL time series and a run-manifest JSON. For live runs it also keeps a
// flight recorder: a ring of recent observations dumped on an anomaly.
//
// The simulation layers (PHY, MAC, link quality, the multicast kernel,
// mobility) do not hold instruments: each counts into the plain Stats struct
// of its node, and the run driver (internal/world) exports the sums over the
// nodes as CounterFuncs read at snapshot time; every gauge is likewise a
// GaugeFunc. Instruments proper are for what has no such struct: the job
// harness's counters and histogram, the MAC's queue-depth histogram.
//
// The design constraint is the same one package trace solves with its nil
// *Tracer: instrumentation must be free when disabled. Every instrument is
// nil-safe — a nil *Counter or *Histogram discards updates behind a
// single nil check, with no allocation and no branch on shared state — and a
// nil *Registry hands out nil instruments. Components therefore hold
// instrument pointers unconditionally and never test "is telemetry on".
//
// Like trace.SpanSink, instruments follow the single-sim-goroutine contract:
// updates are not synchronized. Callers that update instruments from
// multiple goroutines (the runner's worker pool) must serialize externally.
package telemetry

import "fmt"

// Counter is a monotonically increasing event count. A nil Counter discards
// updates.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Histogram counts observations into a fixed bucket layout chosen at
// registration time. Bucket i counts observations <= Bounds[i]; one implicit
// overflow bucket counts the rest. A nil Histogram discards observations.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.sum += v
	h.n++
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Preset bucket layouts. Fixed layouts keep every run's histograms directly
// comparable (meshstat -diff subtracts bucket by bucket).
var (
	// SecondsBuckets spans job and repair latencies from 10 ms to 5 min.
	SecondsBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
	// DepthBuckets spans queue depths for the MAC's default 64-slot queue.
	DepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}
)

// HistogramSnapshot is a histogram's serialized state.
type HistogramSnapshot struct {
	// Bounds are the upper bounds of the explicit buckets.
	Bounds []float64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries; the last is the overflow bucket.
	Counts []uint64 `json:"counts"`
	Sum    float64  `json:"sum"`
	Count  uint64   `json:"count"`
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Registry is the run-wide instrument namespace. Instruments are created on
// first use and shared on every later request for the same name, so each
// node's MAC asks for "mac.queue_depth" and they all observe into one
// run-wide histogram. A nil *Registry hands out nil instruments, making the
// zero wiring a no-op everywhere.
//
// Names are dotted, layer-first: "mac.retries", "odmrp.fg_size". meshstat
// groups its per-layer summaries by the prefix before the first dot.
type Registry struct {
	counters   map[string]*Counter
	histograms map[string]*Histogram
	gaugeFuncs map[string]func() float64
	// counterFuncs are counts kept elsewhere (the per-node Stats structs)
	// and read at snapshot time.
	counterFuncs map[string]func() uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:     make(map[string]*Counter),
		histograms:   make(map[string]*Histogram),
		gaugeFuncs:   make(map[string]func() float64),
		counterFuncs: make(map[string]func() uint64),
	}
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use (bounds must be sorted ascending). Later requests
// reuse the first layout; asking for the same name with a different layout
// panics, since merging mismatched buckets would corrupt the series.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.histograms[name]
	if !ok {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		h = &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
		r.histograms[name] = h
		return h
	}
	if len(h.bounds) != len(bounds) {
		panic(fmt.Sprintf("telemetry: histogram %q re-registered with %d bounds (had %d)",
			name, len(bounds), len(h.bounds)))
	}
	return h
}

// GaugeFunc registers a callback evaluated at snapshot time — for values
// that are cheaper to compute on demand than to maintain (forwarding-group
// size, neighbor-table totals, active faults). Re-registering a name
// replaces the callback. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.gaugeFuncs[name] = fn
}

// CounterFunc registers a callback evaluated at snapshot time for a count
// whose owner already keeps it: a layer increments a plain field on its hot
// path and the run driver exports the sum over the nodes under this name.
// fn must be monotone. Re-registering a name replaces the callback. No-op on
// a nil registry.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil {
		return
	}
	r.counterFuncs[name] = fn
}

// Snapshot is one point-in-time view of every registered instrument.
// Counter-func values appear under Counters next to the counters; every
// gauge is a gauge func.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every instrument. On a nil
// registry it returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)+len(r.counterFuncs)),
		Gauges:     make(map[string]float64, len(r.gaugeFuncs)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, fn := range r.counterFuncs {
		s.Counters[name] = fn()
	}
	for name, fn := range r.gaugeFuncs {
		s.Gauges[name] = fn()
	}
	for name, h := range r.histograms {
		counts := make([]uint64, len(h.counts))
		copy(counts, h.counts)
		bounds := make([]float64, len(h.bounds))
		copy(bounds, h.bounds)
		s.Histograms[name] = HistogramSnapshot{Bounds: bounds, Counts: counts, Sum: h.sum, Count: h.n}
	}
	return s
}
