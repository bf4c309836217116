package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FlightSchema identifies the flight-recorder dump format.
const FlightSchema = "meshcast/flight/v1"

// The flight recorder's ring size and the quiet time it keeps after a dump
// (anomalies tend to arrive in bursts).
const (
	flightCapacity = 512
	flightCooldown = 10 * time.Second
)

// FlightRecord is one entry in the flight recorder's ring: a compact,
// already-rendered observation (a stats window, a supervisor event).
type FlightRecord struct {
	// T is the run time of the observation, in seconds.
	T float64 `json:"t"`
	// Source names the producing layer ("stats", "supervisor", "mcst", ...).
	Source string `json:"source"`
	// Msg is the rendered observation.
	Msg string `json:"msg"`
}

// FlightDump is the on-disk shape of one anomaly dump. At is the calendar
// time of the dump; UptimeSeconds is the run time.
type FlightDump struct {
	Schema        string         `json:"schema"`
	Reason        string         `json:"reason"`
	At            time.Time      `json:"at"`
	UptimeSeconds float64        `json:"uptimeSeconds"`
	Dropped       uint64         `json:"dropped"`
	Records       []FlightRecord `json:"records"`
}

// FlightRecorder keeps a bounded ring of recent observations and writes the
// whole ring to disk when an anomaly trigger fires — the black box around a
// failure, instead of everything. A nil *FlightRecorder discards records
// and triggers, so callers can hold one unconditionally. All methods are
// safe for concurrent use (live fleets feed it from several goroutines).
type FlightRecorder struct {
	// now reads the run clock.
	now func() time.Duration

	mu      sync.Mutex
	dir     string
	ring    []FlightRecord // oldest-first once full
	next    int            // ring write cursor
	full    bool
	dropped uint64 // records overwritten since the last dump
	dumps   int
	lastDmp time.Duration // run time of the last dump, valid once dumps > 0
}

// NewFlightRecorder creates a recorder dumping into dir that stamps its
// records, its dumps and its cooldown with the run clock now.
func NewFlightRecorder(dir string, now func() time.Duration) *FlightRecorder {
	return &FlightRecorder{
		now:  now,
		dir:  dir,
		ring: make([]FlightRecord, 0, flightCapacity),
	}
}

// Record appends one observation to the ring, evicting the oldest when
// full. No-op on a nil recorder.
func (f *FlightRecorder) Record(source, format string, args ...any) {
	if f == nil {
		return
	}
	rec := FlightRecord{Source: source, Msg: fmt.Sprintf(format, args...)}
	f.mu.Lock()
	rec.T = f.now().Seconds()
	if len(f.ring) < flightCapacity {
		f.ring = append(f.ring, rec)
	} else {
		f.ring[f.next] = rec
		f.next = (f.next + 1) % flightCapacity
		f.full = true
		f.dropped++
	}
	f.mu.Unlock()
}

// Dumps returns how many anomaly dumps have been written.
func (f *FlightRecorder) Dumps() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// Trigger dumps the current ring to flight-NNNN.json in the recorder's
// directory and returns the file path. Triggers within 10 s of run time of
// the previous dump are suppressed (empty path, nil error). No-op on a nil
// recorder.
func (f *FlightRecorder) Trigger(reason string) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	now := f.now()
	if f.dumps > 0 && now-f.lastDmp < flightCooldown {
		f.mu.Unlock()
		return "", nil
	}
	dump := FlightDump{
		Schema:        FlightSchema,
		Reason:        reason,
		At:            time.Now(),
		UptimeSeconds: now.Seconds(),
		Dropped:       f.dropped,
		Records:       make([]FlightRecord, 0, len(f.ring)),
	}
	if f.full {
		dump.Records = append(dump.Records, f.ring[f.next:]...)
		dump.Records = append(dump.Records, f.ring[:f.next]...)
	} else {
		dump.Records = append(dump.Records, f.ring...)
	}
	f.lastDmp = now
	f.dumps++
	f.dropped = 0
	seq := f.dumps
	f.mu.Unlock()

	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	path := filepath.Join(f.dir, fmt.Sprintf("flight-%04d.json", seq))
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("telemetry: flight dump: %w", err)
	}
	return path, nil
}

// PDRDipDetector turns a stream of windowed PDR observations into dip
// triggers. It arms once a healthy baseline is seen, tracks the best PDR
// since arming, and fires when a window drops to dipFraction of that
// baseline; a firing disarms the detector until the mesh looks healthy
// again, so one outage produces one trigger.
type PDRDipDetector struct {
	baseline float64
	armed    bool

	// The cumulative pair Window saw last, once it has seen one.
	expected, delivered uint64
	primed              bool
}

// Window is Observe for a caller holding cumulative expected/delivered
// counts rather than a PDR: it diffs them against the pair the previous call
// saw, and if the window expected anything feeds delivered/expected to
// Observe. pdr is defined when dExp > 0. The first call only remembers its
// pair; so does one whose counts fell (a restarted backend), and both return
// zeros.
func (d *PDRDipDetector) Window(expected, delivered uint64) (dExp, dDel uint64, pdr float64, dip bool) {
	if d.primed && expected >= d.expected && delivered >= d.delivered {
		dExp, dDel = expected-d.expected, delivered-d.delivered
	}
	d.expected, d.delivered, d.primed = expected, delivered, true
	if dExp > 0 {
		pdr = float64(dDel) / float64(dExp)
		dip = d.Observe(pdr)
	}
	return dExp, dDel, pdr, dip
}

// The PDR a window needs to (re-)arm a PDRDipDetector, and the fraction of
// the armed baseline at or below which a window counts as a dip.
const (
	armAbove    = 0.5
	dipFraction = 0.6
)

// Observe feeds one windowed PDR and reports whether a dip fired.
func (d *PDRDipDetector) Observe(pdr float64) bool {
	if !d.armed {
		if pdr >= armAbove {
			d.armed = true
			d.baseline = pdr
		}
		return false
	}
	if pdr > d.baseline {
		d.baseline = pdr
	}
	if pdr <= d.baseline*dipFraction {
		d.armed = false
		return true
	}
	return false
}

// CounterWatch fires whenever a watched count rises between polls (e.g. the
// fleet's core handovers: every core failover is anomalous enough to keep
// the black box).
type CounterWatch struct {
	read func() uint64
	last uint64
}

// NewCounterWatch starts watching the count read returns; what it reads now
// is the baseline.
func NewCounterWatch(read func() uint64) *CounterWatch {
	return &CounterWatch{read: read, last: read()}
}

// Delta returns the increment since the previous poll. A count that fell (a
// sum over daemons, one of which restarted) re-bases the watch and reports
// zero.
func (w *CounterWatch) Delta() uint64 {
	if w == nil {
		return 0
	}
	v := w.read()
	var d uint64
	if v > w.last {
		d = v - w.last
	}
	w.last = v
	return d
}
