package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"meshcast/internal/trace"
)

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record("stats", "window pdr=%.2f", 0.5)
	f.EmitSpan(trace.Span{})
	if path, err := f.Trigger("anything"); err != nil || path != "" {
		t.Fatalf("nil Trigger = %q, %v", path, err)
	}
	if f.Dumps() != 0 {
		t.Fatal("nil recorder reports dumps")
	}
}

func TestFlightRecorderRingBoundAndDumpOrder(t *testing.T) {
	dir := t.TempDir()
	f := NewFlightRecorder(dir, 4)
	for i := 0; i < 10; i++ {
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
	// Ring of 4: only the last four records survive, oldest first.
	if len(dump.Records) != 4 {
		t.Fatalf("dump holds %d records, want 4", len(dump.Records))
	}
	for i, want := range []string{"record 6", "record 7", "record 8", "record 9"} {
		if dump.Records[i].Msg != want {
			t.Fatalf("record %d = %q, want %q", i, dump.Records[i].Msg, want)
		}
	}
	if dump.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dump.Dropped)
	}
}

func TestFlightRecorderCooldown(t *testing.T) {
	f := NewFlightRecorder(t.TempDir(), 8)
	f.Record("test", "one")
	if path, err := f.Trigger("first"); err != nil || path == "" {
		t.Fatalf("first trigger = %q, %v", path, err)
	}
	// Within the cooldown the trigger is suppressed, not an error.
	if path, err := f.Trigger("second"); err != nil || path != "" {
		t.Fatalf("cooled-down trigger = %q, %v", path, err)
	}
	if f.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1", f.Dumps())
	}

	f.Cooldown = time.Nanosecond
	time.Sleep(time.Millisecond)
	if path, err := f.Trigger("third"); err != nil || path == "" {
		t.Fatalf("post-cooldown trigger = %q, %v", path, err)
	}
	if f.Dumps() != 2 {
		t.Fatalf("dumps = %d, want 2", f.Dumps())
	}
}

func TestFlightRecorderAsSpanSink(t *testing.T) {
	f := NewFlightRecorder(t.TempDir(), 8)
	var sink trace.SpanSink = f
	sink.EmitSpan(trace.Span{At: time.Second, Kind: trace.SpanDeliver, TraceID: 0x7, Node: 3, Peer: 3})
	path, err := f.Trigger("span-check")
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
	if len(dump.Records) != 1 || dump.Records[0].Source != "span" {
		t.Fatalf("records = %+v", dump.Records)
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
