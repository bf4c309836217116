package telemetry

import (
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"meshcast/internal/sim"
)

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("nil histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestNilRegistryHandsOutNilInstruments(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("z", DepthBuckets) != nil {
		t.Fatal("nil registry returned non-nil instrument")
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	r.CounterFunc("c", func() uint64 { return 1 })
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Gauges) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("mac.retries")
	b := r.Counter("mac.retries")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Inc()
	b.Add(2)
	if got := r.Snapshot().Counters["mac.retries"]; got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
	if h1, h2 := r.Histogram("mac.queue_depth", DepthBuckets), r.Histogram("mac.queue_depth", DepthBuckets); h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("d", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	snap := r.Snapshot().Histograms["d"]
	want := []uint64{2, 1, 1, 1} // <=1: {0.5,1}; <=2: {1.5}; <=4: {3}; overflow: {100}
	if len(snap.Counts) != len(want) {
		t.Fatalf("counts len = %d, want %d", len(snap.Counts), len(want))
	}
	for i := range want {
		if snap.Counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, snap.Counts[i], want[i], snap.Counts)
		}
	}
	if snap.Count != 5 || snap.Sum != 106 {
		t.Fatalf("count=%d sum=%v", snap.Count, snap.Sum)
	}
	if m := snap.Mean(); math.Abs(m-21.2) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	if (HistogramSnapshot{}).Mean() != 0 {
		t.Fatal("empty snapshot mean != 0")
	}
}

func TestHistogramRelayoutPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched bucket layout")
		}
	}()
	r.Histogram("h", []float64{1, 2, 3})
}

func TestGaugeFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("odmrp.fg_size", func() float64 { return v })
	if got := r.Snapshot().Gauges["odmrp.fg_size"]; got != 1 {
		t.Fatalf("gauge func = %v", got)
	}
	v = 5
	if got := r.Snapshot().Gauges["odmrp.fg_size"]; got != 5 {
		t.Fatalf("gauge func after update = %v", got)
	}
}

// TestCounterFuncEvaluatedAtSnapshot: a counter func reads its owner's count
// at each snapshot and lands under Counters, not Gauges.
func TestCounterFuncEvaluatedAtSnapshot(t *testing.T) {
	r := NewRegistry()
	n := uint64(1)
	r.CounterFunc("phy.frames_sent", func() uint64 { return n })
	snap := r.Snapshot()
	if _, isGauge := snap.Gauges["phy.frames_sent"]; snap.Counters["phy.frames_sent"] != 1 || isGauge {
		t.Fatalf("counter func = %v under counters, under gauges %v", snap.Counters["phy.frames_sent"], isGauge)
	}
	n = 7
	if got := r.Snapshot().Counters["phy.frames_sent"]; got != 7 {
		t.Fatalf("counter func after update = %v", got)
	}
}

func TestSamplerAttachSamplesOnIntervalPlusFinal(t *testing.T) {
	dir := t.TempDir()
	rec, err := NewRecorder(dir, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Registry().Counter("phy.tx")
	eng := sim.NewEngine(1)
	// One tx per second.
	for i := 1; i <= 25; i++ {
		eng.At(time.Duration(i)*time.Second, c.Inc)
	}
	end := 25 * time.Second
	rec.Attach(eng, end)
	eng.Run(end)
	if err := rec.Finalize(Manifest{}); err != nil {
		t.Fatal(err)
	}

	samples, err := LoadSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One sample per interval plus the final partial window, each carrying
	// the cumulative count.
	want := []float64{10, 20, 25}
	if len(samples) != len(want) {
		t.Fatalf("series samples = %+v, want t = %v", samples, want)
	}
	for i, s := range samples {
		if s.T != want[i] || s.Counters["phy.tx"] != uint64(want[i]) {
			t.Fatalf("sample %d at t=%v phy.tx=%d, want %v and %v", i, s.T, s.Counters["phy.tx"], want[i], want[i])
		}
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "telem")
	rec, err := NewRecorder(dir, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reg := rec.Registry()
	c := reg.Counter("phy.tx")
	reg.GaugeFunc("odmrp.fg_size", func() float64 { return 4 })
	reg.Histogram("runner.job_seconds", SecondsBuckets).Observe(0.2)

	eng := sim.NewEngine(1)
	eng.At(5*time.Second, func() { c.Add(3) })
	eng.At(15*time.Second, func() { c.Add(2) })
	end := 25 * time.Second
	rec.Attach(eng, end)
	eng.Run(end)

	err = rec.Finalize(Manifest{
		ConfigHash:      "abc123",
		Seed:            7,
		Metric:          "etx",
		DurationSeconds: end.Seconds(),
		Derived:         map[string]float64{"pdr": 0.93},
	})
	if err != nil {
		t.Fatal(err)
	}

	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Schema != ManifestSchema {
		t.Fatalf("schema = %q", m.Schema)
	}
	if m.ConfigHash != "abc123" || m.Seed != 7 || m.Metric != "etx" {
		t.Fatalf("identity fields: %+v", m)
	}
	if m.Counters["phy.tx"] != 5 {
		t.Fatalf("final phy.tx = %d", m.Counters["phy.tx"])
	}
	if m.Gauges["odmrp.fg_size"] != 4 {
		t.Fatalf("final fg_size = %v", m.Gauges["odmrp.fg_size"])
	}
	h, ok := m.Histograms["runner.job_seconds"]
	if !ok || h.Count != 1 {
		t.Fatalf("histogram missing or wrong: %+v", h)
	}
	if m.Derived["pdr"] != 0.93 {
		t.Fatalf("derived = %v", m.Derived)
	}
	if m.Samples != 3 || m.IntervalSeconds != 10 {
		t.Fatalf("samples=%d interval=%v", m.Samples, m.IntervalSeconds)
	}

	samples, err := LoadSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("series samples = %d, want 3", len(samples))
	}
	if samples[0].T != 10 || samples[0].Counters["phy.tx"] != 3 {
		t.Fatalf("sample 0 = %+v", samples[0])
	}
	if samples[2].T != 25 || samples[2].Counters["phy.tx"] != 5 {
		t.Fatalf("sample 2 = %+v", samples[2])
	}

	// Loading by explicit file path works too.
	if _, err := LoadManifest(filepath.Join(dir, ManifestFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSeries(filepath.Join(dir, SeriesFile)); err != nil {
		t.Fatal(err)
	}
}

// TestRecorderRotation: Rotate seals the open stream into numbered segments
// without losing samples; LoadAllSeries stitches the full run back together
// in time order and the manifest records the segment count.
func TestRecorderRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "soak")
	rec, err := NewRecorder(dir, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c := rec.Registry().Counter("emu.frames")
	sample := func(at time.Duration, v uint64) {
		c.Add(v)
		rec.Sample(at)
	}

	sample(1*time.Second, 10)
	sample(2*time.Second, 10)
	seg0, err := rec.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(seg0) != "series-0000.jsonl" {
		t.Fatalf("first segment = %s", seg0)
	}
	sample(3*time.Second, 10)
	if _, err := rec.Rotate(); err != nil {
		t.Fatal(err)
	}
	sample(4*time.Second, 10)

	if err := rec.Finalize(Manifest{Seed: 1}); err != nil {
		t.Fatal(err)
	}

	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.SeriesSegments != 2 {
		t.Fatalf("manifest segments = %d, want 2", m.SeriesSegments)
	}
	if m.Samples != 4 {
		t.Fatalf("manifest samples = %d, want 4", m.Samples)
	}

	// The open tail alone only has the post-rotation sample...
	tail, err := LoadSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].T != 4 {
		t.Fatalf("tail = %+v, want just t=4", tail)
	}
	// ...while LoadAllSeries recovers the whole stream in order.
	all, err := LoadAllSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Fatalf("all samples = %d, want 4", len(all))
	}
	for i, s := range all {
		if s.T != float64(i+1) {
			t.Fatalf("sample %d at t=%v, want %d", i, s.T, i+1)
		}
		if want := uint64(10 * (i + 1)); s.Counters["emu.frames"] != want {
			t.Fatalf("sample %d counter = %d, want %d", i, s.Counters["emu.frames"], want)
		}
	}
}

func TestLoadSeriesMissingFileIsEmpty(t *testing.T) {
	samples, err := LoadSeries(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if samples != nil {
		t.Fatalf("samples = %v", samples)
	}
}

func TestLoadManifestErrors(t *testing.T) {
	if _, err := LoadManifest(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("expected error for missing path")
	}
	bad := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(bad); err == nil {
		t.Fatal("expected parse error")
	}
}

// Disabled-path microbenchmarks (go test -bench Disabled ./internal/telemetry):
// a nil instrument costs a nil check, so instrumentation is free when
// telemetry is off. The enabled cost is the benchmark's telemetry.counter_add_ns.

func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("phy.tx")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("phy.tx")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramDisabled(b *testing.B) {
	var r *Registry
	h := r.Histogram("runner.job_seconds", SecondsBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.1)
	}
}

func BenchmarkHistogramEnabled(b *testing.B) {
	h := NewRegistry().Histogram("runner.job_seconds", SecondsBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.1)
	}
}
