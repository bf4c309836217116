package soak

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"meshcast/internal/ctlplane"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/telemetry"
)

// TestSoakShutdownOrder runs a tiny soak and checks the graceful-shutdown
// contract: control listener first, then fleet stop, then the final
// telemetry sample + manifest — in exactly that order —
// and that the teardown leaks no goroutine, socket or listener.
func TestSoakShutdownOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (seconds)")
	}
	settled := leakCheck(t)

	var mu sync.Mutex
	var steps []string
	dir := t.TempDir()
	cfg := Config{
		Nodes:          6,
		Seed:           3,
		SendInterval:   20 * time.Millisecond,
		StartStagger:   time.Millisecond,
		Listen:         "127.0.0.1:0",
		TelemetryDir:   dir,
		SampleInterval: 200 * time.Millisecond,
		RotateEvery:    -1,
		trace: func(step string) {
			mu.Lock()
			steps = append(steps, step)
			mu.Unlock()
		},
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- r.Run(ctx) }()

	// The control plane must be live while the fleet runs.
	c := ctlplane.NewClient("http://" + r.Addr())
	reqCtx, reqCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer reqCancel()
	h, err := c.Health(reqCtx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status == "" {
		t.Fatal("empty health verdict")
	}

	time.Sleep(1500 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	got := append([]string(nil), steps...)
	mu.Unlock()
	want := []string{"control-stop", "fleet-stop", "telemetry-final"}
	if len(got) != len(want) {
		t.Fatalf("shutdown steps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shutdown step %d = %q, want %q (full order %v)", i, got[i], want[i], got)
		}
	}

	// The control listener must actually be closed.
	if _, err := http.Get("http://" + r.Addr() + "/health"); err == nil {
		t.Fatal("control listener still serving after shutdown")
	}

	// The final flush must have produced a manifest with samples.
	m, err := telemetry.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Samples < 2 {
		t.Fatalf("manifest samples = %d, want >= 2", m.Samples)
	}
	if _, ok := m.Derived["availability"]; !ok {
		t.Fatal("manifest missing availability")
	}
	series, err := telemetry.LoadAllSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != m.Samples {
		t.Fatalf("series has %d samples, manifest says %d", len(series), m.Samples)
	}
	settled()
}

// TestSoakRotation checks that a short rotation period seals numbered
// segments and LoadAllSeries stitches them back together.
func TestSoakRotation(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (seconds)")
	}
	dir := t.TempDir()
	r, err := New(Config{
		Nodes:          6,
		Seed:           4,
		SendInterval:   50 * time.Millisecond,
		StartStagger:   time.Millisecond,
		TelemetryDir:   dir,
		SampleInterval: 100 * time.Millisecond,
		RotateEvery:    400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	if err := r.Run(ctx); err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.SeriesSegments < 2 {
		t.Fatalf("series segments = %d, want >= 2", m.SeriesSegments)
	}
	if seg := filepath.Join(dir, "series-0000.jsonl"); !fileExists(seg) {
		t.Fatalf("missing sealed segment %s", seg)
	}
	series, err := telemetry.LoadAllSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != m.Samples {
		t.Fatalf("stitched series = %d samples, manifest says %d", len(series), m.Samples)
	}
	for i := 1; i < len(series); i++ {
		if series[i].T < series[i-1].T {
			t.Fatalf("stitched series out of order at %d: %v after %v", i, series[i].T, series[i-1].T)
		}
	}
}

// TestCoreHandoverWatchReadsTheFleet checks that the flight recorder's
// core-handover trigger watches the daemons' routers: a handover inside one
// router shows in the next poll. (It used to watch a registry counter that
// no live daemon incremented.) The fleet is built but never run; the
// announces are handed to the router under the daemon's driver lock.
func TestCoreHandoverWatchReadsTheFleet(t *testing.T) {
	for _, proto := range []string{"mcst", "odmrp"} {
		r, err := New(Config{Nodes: 6, Seed: 3, Protocol: proto, TelemetryDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		if proto == "odmrp" {
			if r.coreWatch != nil {
				t.Fatal("an ODMRP fleet has no cores to watch")
			}
			continue
		}
		if d := r.coreWatch.Delta(); d != 0 {
			t.Fatalf("delta before any handover = %d", d)
		}
		announce := func(core packet.NodeID) *packet.Packet {
			return &packet.Packet{Kind: packet.TypeCoreAnnounce, Src: core, PrevHop: core, Group: 1, TTL: 1}
		}
		daemon := r.fleet.Daemon(r.fleet.NodeIDs()[0])
		daemon.ReadRouter(func(router multicast.Protocol) uint64 {
			router.Handle(announce(901), 901) // adopted
			router.Handle(announce(900), 900) // a lower ID displaces it
			return 0
		})
		if d := r.coreWatch.Delta(); d != 1 {
			t.Fatalf("delta after one handover = %d, want 1", d)
		}
		if d := r.coreWatch.Delta(); d != 0 {
			t.Fatalf("repeat delta = %d, want 0", d)
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
