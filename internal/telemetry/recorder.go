package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"meshcast/internal/sim"
)

// Artifact file names inside a telemetry directory.
const (
	// SeriesFile is the JSONL time-series stream: one sampleLine per
	// snapshot, in time order.
	SeriesFile = "series.jsonl"
	// ManifestFile is the run manifest.
	ManifestFile = "manifest.json"
)

// ManifestSchema versions the manifest layout for analyzers.
const ManifestSchema = "meshcast/telemetry/v1"

// BuildInfo identifies the binary that produced a run — the git-describe
// analog for module builds, read from the build metadata stamped by the go
// tool.
type BuildInfo struct {
	GoVersion string `json:"goVersion,omitempty"`
	Module    string `json:"module,omitempty"`
	// Revision is the VCS commit; Dirty marks uncommitted changes. Both are
	// empty for non-VCS builds (go run from a tarball, tests).
	Revision string `json:"revision,omitempty"`
	Time     string `json:"time,omitempty"`
	Dirty    bool   `json:"dirty,omitempty"`
}

// CurrentBuild reads the running binary's build metadata.
func CurrentBuild() BuildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return BuildInfo{}
	}
	out := BuildInfo{GoVersion: bi.GoVersion, Module: bi.Main.Path}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out.Revision = s.Value
		case "vcs.time":
			out.Time = s.Value
		case "vcs.modified":
			out.Dirty = s.Value == "true"
		}
	}
	return out
}

// Manifest is a run's machine-readable identity and final instrument state:
// enough to reproduce the run (config hash + seed + build) and to analyze it
// without replaying anything (final counters, gauges, histograms, and any
// derived summary values the producer added).
type Manifest struct {
	Schema string `json:"schema"`
	// ConfigHash is the run configuration's content hash — the same value
	// that keys the runner's result cache, so a manifest can be matched to
	// cached sweep results.
	ConfigHash string `json:"configHash,omitempty"`
	Seed       uint64 `json:"seed"`
	// Label names the run for humans ("spp seed 3", "etx -telemetry run").
	Label string `json:"label,omitempty"`
	// Metric is the routing metric's name, when the run has one.
	Metric string `json:"metric,omitempty"`
	// Protocol is the multicast routing protocol's registered name, when
	// the run has one — it makes ODMRP-vs-MCST A/B diffs self-describing.
	Protocol string    `json:"protocol,omitempty"`
	Build    BuildInfo `json:"build"`
	// DurationSeconds is the simulated (virtual) duration;
	// IntervalSeconds and Samples describe the series stream.
	DurationSeconds float64 `json:"durationSeconds,omitempty"`
	IntervalSeconds float64 `json:"intervalSeconds,omitempty"`
	Samples         int     `json:"samples"`
	// SeriesSegments counts rotated series-NNNN.jsonl files sealed before
	// the final series.jsonl (long soak runs rotate; batch runs leave 0).
	SeriesSegments int `json:"seriesSegments,omitempty"`
	// Final instrument values.
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Derived carries producer-computed summary values (pdr,
	// probe_overhead_pct, ...) so analyzers need not know every formula.
	Derived map[string]float64 `json:"derived,omitempty"`
}

// DefaultSampleInterval is the recorder's default sim-clock sampling period.
// Ten seconds matches the delivery TimeSeries bucket and gives 50 points on
// the paper's 500 s runs.
const DefaultSampleInterval = 10 * time.Second

// sampleLine is one JSONL record of the series stream.
type sampleLine struct {
	// T is the virtual time in seconds.
	T        float64            `json:"t"`
	Counters map[string]uint64  `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Recorder owns one run's telemetry artifacts: it couples a Registry to a
// directory, snapshotting the registry on a fixed virtual-time interval into
// series.jsonl as the run executes and writing manifest.json when the run
// finishes. Counters are recorded as raw cumulative values; consumers
// difference adjacent samples to recover per-interval rates (meshstat's
// sparklines do). Histograms land in the final manifest only: their bucket
// vectors are too wide for the stream.
//
// Long-running (soak) producers call Rotate periodically to seal the open
// series stream into a numbered segment, bounding the size of any single
// file; mu serializes the stream writer between the sampling goroutine and
// the rotation caller.
type Recorder struct {
	reg      *Registry
	dir      string
	interval time.Duration
	samples  int

	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	writeErr error
	segments int
}

// NewRecorder creates (or reuses) dir and opens the series stream. The
// sample interval defaults to DefaultSampleInterval when <= 0.
func NewRecorder(dir string, interval time.Duration) (*Recorder, error) {
	if dir == "" {
		return nil, fmt.Errorf("telemetry: empty recorder dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, SeriesFile))
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Recorder{
		reg:      NewRegistry(),
		dir:      dir,
		interval: interval,
		f:        f,
		w:        bufio.NewWriter(f),
	}, nil
}

// Registry returns the recorder's instrument registry.
func (r *Recorder) Registry() *Registry { return r.reg }

// Dir returns the artifact directory.
func (r *Recorder) Dir() string { return r.dir }

// Interval returns the sampling period.
func (r *Recorder) Interval() time.Duration { return r.interval }

// Attach schedules sampling on the engine: one snapshot per interval
// starting at interval (t=0 would sample nothing but zeros), plus a final
// snapshot at exactly end so the last partial window is captured even when
// end is not interval-aligned.
func (r *Recorder) Attach(engine *sim.Engine, end time.Duration) {
	var tick func()
	next := r.interval
	tick = func() {
		r.Sample(engine.Now())
		next += r.interval
		if next < end {
			engine.At(next, tick)
		}
	}
	if next < end {
		engine.At(next, tick)
	}
	if end > 0 {
		engine.At(end, func() { r.Sample(end) })
	}
}

// Sample snapshots the registry at virtual time at and appends the counters
// and gauges to the series stream.
func (r *Recorder) Sample(at time.Duration) {
	snap := r.reg.Snapshot()
	r.samples++
	line := sampleLine{T: at.Seconds(), Counters: snap.Counters, Gauges: snap.Gauges}
	data, err := json.Marshal(line)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err == nil {
		_, err = r.w.Write(append(data, '\n'))
	}
	if err != nil && r.writeErr == nil {
		r.writeErr = err
	}
}

// segmentName formats the sealed series segment file for index n.
func segmentName(n int) string {
	return fmt.Sprintf("series-%04d.jsonl", n)
}

// Rotate seals the open series stream: the current series.jsonl is flushed,
// closed, and renamed to the next numbered segment (series-0000.jsonl,
// series-0001.jsonl, ...), and a fresh series.jsonl is opened for subsequent
// samples. Safe to call concurrently with sampling; returns the sealed
// segment's path.
func (r *Recorder) Rotate() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.w.Flush(); err != nil {
		return "", fmt.Errorf("telemetry: rotate: %w", err)
	}
	if err := r.f.Close(); err != nil {
		return "", fmt.Errorf("telemetry: rotate: %w", err)
	}
	sealed := filepath.Join(r.dir, segmentName(r.segments))
	if err := os.Rename(filepath.Join(r.dir, SeriesFile), sealed); err != nil {
		return "", fmt.Errorf("telemetry: rotate: %w", err)
	}
	f, err := os.Create(filepath.Join(r.dir, SeriesFile))
	if err != nil {
		return "", fmt.Errorf("telemetry: rotate: %w", err)
	}
	r.segments++
	r.f = f
	r.w = bufio.NewWriter(f)
	return sealed, nil
}

// Finalize takes a last snapshot into the manifest, stamps schema, build,
// and series metadata, writes manifest.json, and closes the series stream.
// The caller fills the identity fields (ConfigHash, Seed, Metric, Label,
// DurationSeconds) and any Derived values before passing m in.
func (r *Recorder) Finalize(m Manifest) error {
	snap := r.reg.Snapshot()
	m.Schema = ManifestSchema
	m.Build = CurrentBuild()
	m.IntervalSeconds = r.interval.Seconds()
	m.Samples = r.samples
	m.Counters = snap.Counters
	m.Gauges = snap.Gauges
	m.Histograms = snap.Histograms

	r.mu.Lock()
	m.SeriesSegments = r.segments
	flushErr := r.w.Flush()
	closeErr := r.f.Close()
	writeErr := r.writeErr
	r.mu.Unlock()

	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("telemetry: manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(r.dir, ManifestFile), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("telemetry: manifest: %w", err)
	}
	for _, err := range []error{writeErr, flushErr, closeErr} {
		if err != nil {
			return fmt.Errorf("telemetry: series stream: %w", err)
		}
	}
	return nil
}

// LoadManifest reads a manifest from path, which may name the manifest file
// itself or a telemetry directory containing one.
func LoadManifest(path string) (*Manifest, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	if st.IsDir() {
		path = filepath.Join(path, ManifestFile)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("telemetry: parse %s: %w", path, err)
	}
	return &m, nil
}

// SeriesSample is one decoded record of a series.jsonl stream.
type SeriesSample struct {
	T        float64
	Counters map[string]uint64
	Gauges   map[string]float64
}

// LoadSeries reads a series.jsonl stream from path, which may name the file
// itself or a telemetry directory containing one. A missing file yields an
// empty series (manifest-only analysis still works).
func LoadSeries(path string) ([]SeriesSample, error) {
	st, err := os.Stat(path)
	if err == nil && st.IsDir() {
		path = filepath.Join(path, SeriesFile)
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	defer f.Close()
	var out []SeriesSample
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var line sampleLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("telemetry: parse %s: %w", path, err)
		}
		out = append(out, SeriesSample{T: line.T, Counters: line.Counters, Gauges: line.Gauges})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: read %s: %w", path, err)
	}
	return out, nil
}

// LoadAllSeries reads a run's complete series stream from a telemetry
// directory: every rotated series-NNNN.jsonl segment in order, then the open
// series.jsonl tail. Given a file path instead of a directory it behaves
// like LoadSeries.
func LoadAllSeries(path string) ([]SeriesSample, error) {
	st, err := os.Stat(path)
	if err != nil || !st.IsDir() {
		return LoadSeries(path)
	}
	segs, err := filepath.Glob(filepath.Join(path, "series-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	sort.Strings(segs) // fixed-width numbering sorts chronologically
	var out []SeriesSample
	for _, seg := range append(segs, filepath.Join(path, SeriesFile)) {
		samples, err := LoadSeries(seg)
		if err != nil {
			return nil, err
		}
		out = append(out, samples...)
	}
	return out, nil
}
