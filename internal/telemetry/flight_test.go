package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fakeClock is a run clock a test advances by hand.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record("stats", "window pdr=%.2f", 0.5)
	if path, err := f.Trigger("anything"); err != nil || path != "" {
		t.Fatalf("nil Trigger = %q, %v", path, err)
	}
	if f.Dumps() != 0 {
		t.Fatal("nil recorder reports dumps")
	}
}

func TestFlightRecorderRingBoundAndDumpOrder(t *testing.T) {
	dir := t.TempDir()
	var clock fakeClock
	f := NewFlightRecorder(dir, clock.now)
	for i := 0; i < flightCapacity+6; i++ {
		f.Record("test", "record %d", i)
	}
	path, err := f.Trigger("test-trigger")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "flight-0001.json" {
		t.Fatalf("dump path = %s", path)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Schema != FlightSchema || dump.Reason != "test-trigger" {
		t.Fatalf("dump header = %+v", dump)
	}
	// Only the last flightCapacity records survive, oldest first.
	if len(dump.Records) != flightCapacity {
		t.Fatalf("dump holds %d records, want %d", len(dump.Records), flightCapacity)
	}
	for i, r := range dump.Records {
		if want := fmt.Sprintf("record %d", i+6); r.Msg != want {
			t.Fatalf("record %d = %q, want %q", i, r.Msg, want)
		}
	}
	if dump.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dump.Dropped)
	}
}

func TestFlightRecorderCooldown(t *testing.T) {
	clock := fakeClock{t: time.Second}
	f := NewFlightRecorder(t.TempDir(), clock.now)
	f.Record("test", "one")
	if path, err := f.Trigger("first"); err != nil || path == "" {
		t.Fatalf("first trigger = %q, %v", path, err)
	}
	// Within the cooldown the trigger is suppressed, not an error.
	clock.t += flightCooldown - time.Nanosecond
	if path, err := f.Trigger("second"); err != nil || path != "" {
		t.Fatalf("cooled-down trigger = %q, %v", path, err)
	}
	if f.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1", f.Dumps())
	}

	clock.t += time.Nanosecond
	if path, err := f.Trigger("third"); err != nil || path == "" {
		t.Fatalf("post-cooldown trigger = %q, %v", path, err)
	}
	if f.Dumps() != 2 {
		t.Fatalf("dumps = %d, want 2", f.Dumps())
	}
}

// TestFlightRecorderReadsRunClock: a record's t and a dump's uptime are the
// run clock's readings, not the time since the recorder was made.
func TestFlightRecorderReadsRunClock(t *testing.T) {
	clock := fakeClock{t: 90 * time.Second}
	f := NewFlightRecorder(t.TempDir(), clock.now)
	f.Record("test", "at 90s")
	clock.t = 95500 * time.Millisecond
	path, err := f.Trigger("clock-check")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump FlightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Records) != 1 || dump.Records[0].T != 90 || dump.UptimeSeconds != 95.5 {
		t.Fatalf("records %+v, uptime %v; want one record at t=90 and uptime 95.5", dump.Records, dump.UptimeSeconds)
	}
}

func TestPDRDipDetector(t *testing.T) {
	var d PDRDipDetector
	if d.Observe(0.3) {
		t.Fatal("fired while unarmed")
	}
	if d.Observe(0.9) { // arms, baseline 0.9
		t.Fatal("fired on the arming observation")
	}
	if d.Observe(0.95) { // baseline rises
		t.Fatal("fired on improvement")
	}
	if d.Observe(0.7) { // above 0.6 * 0.95
		t.Fatal("fired above the dip threshold")
	}
	if !d.Observe(0.3) { // below 0.57: dip
		t.Fatal("did not fire on the dip")
	}
	// Disarmed after firing: the continuing outage stays one trigger.
	if d.Observe(0.1) {
		t.Fatal("fired twice for one outage")
	}
	// Recovery re-arms, and a second outage fires again.
	if d.Observe(0.8) {
		t.Fatal("fired on recovery")
	}
	if !d.Observe(0.2) {
		t.Fatal("did not fire on the second outage")
	}
}

func TestCounterWatch(t *testing.T) {
	var nilWatch *CounterWatch
	if nilWatch.Delta() != 0 {
		t.Fatal("nil counter watch fired")
	}
	c := uint64(3)
	w := NewCounterWatch(func() uint64 { return c }) // baseline absorbs pre-existing increments
	if d := w.Delta(); d != 0 {
		t.Fatalf("initial delta = %d, want 0", d)
	}
	c += 2
	if d := w.Delta(); d != 2 {
		t.Fatalf("delta = %d, want 2", d)
	}
	if d := w.Delta(); d != 0 {
		t.Fatalf("repeat delta = %d, want 0", d)
	}
	// A restarted daemon takes its count out of a fleet-wide sum: the watch
	// re-bases instead of reporting a wrapped difference.
	c = 1
	if d := w.Delta(); d != 0 {
		t.Fatalf("delta after the count fell = %d, want 0", d)
	}
	c++
	if d := w.Delta(); d != 1 {
		t.Fatalf("delta after re-basing = %d, want 1", d)
	}
}

// TestPDRDipDetectorWindow: Window diffs cumulative counts and feeds the
// window's PDR to Observe; the first pair and a pair that fell only re-base.
func TestPDRDipDetectorWindow(t *testing.T) {
	var d PDRDipDetector
	steps := []struct {
		expected, delivered uint64
		dExp, dDel          uint64
		pdr                 float64
		dip                 bool
	}{
		{expected: 100, delivered: 90},                                            // remembered, not a window
		{expected: 200, delivered: 180, dExp: 100, dDel: 90, pdr: 0.9},            // arms at 0.9
		{expected: 200, delivered: 180},                                           // nothing expected: no PDR, nothing observed
		{expected: 300, delivered: 200, dExp: 100, dDel: 20, pdr: 0.2, dip: true}, // below 0.6 × 0.9
		{expected: 10, delivered: 5},                                              // the backend restarted: re-base
		{expected: 20, delivered: 15, dExp: 10, dDel: 10, pdr: 1},                 // re-arms
	}
	for i, s := range steps {
		dExp, dDel, pdr, dip := d.Window(s.expected, s.delivered)
		if dExp != s.dExp || dDel != s.dDel || pdr != s.pdr || dip != s.dip {
			t.Fatalf("step %d: Window(%d, %d) = (%d, %d, %v, %v), want (%d, %d, %v, %v)",
				i, s.expected, s.delivered, dExp, dDel, pdr, dip, s.dExp, s.dDel, s.pdr, s.dip)
		}
	}
}
