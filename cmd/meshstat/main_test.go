package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"meshcast/internal/ctlplane"
	"meshcast/internal/emu"
	"meshcast/internal/telemetry"
)

// writeRun materializes a synthetic telemetry directory with known values.
func writeRun(t *testing.T, label string, frames uint64) string {
	t.Helper()
	dir := t.TempDir()
	manifest := `{
  "schema": "meshcast/telemetry/v1",
  "seed": 7,
  "label": "` + label + `",
  "metric": "spp",
  "build": {"goVersion": "go1.24.0"},
  "durationSeconds": 20,
  "intervalSeconds": 10,
  "samples": 2,
  "counters": {"phy.frames_sent": ` + uitoa(frames) + `, "mac.retries": 3},
  "gauges": {"odmrp.fg_size": 4},
  "histograms": {"mac.queue_depth": {"bounds": [1, 2], "counts": [5, 1, 0], "sum": 7, "count": 6}},
  "derived": {"pdr": 0.9}
}`
	if err := os.WriteFile(filepath.Join(dir, telemetry.ManifestFile), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	series := `{"t":10,"counters":{"phy.frames_sent":` + uitoa(frames/2) + `},"gauges":{"odmrp.fg_size":2}}
{"t":20,"counters":{"phy.frames_sent":` + uitoa(frames) + `},"gauges":{"odmrp.fg_size":4}}
`
	if err := os.WriteFile(filepath.Join(dir, telemetry.SeriesFile), []byte(series), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{'0' + byte(v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestSummaryRendersLayersAndTop(t *testing.T) {
	dir := writeRun(t, "run a", 100)
	var sb strings.Builder
	if err := runSummary(&sb, dir, 2); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"run: run a",
		"metric spp, seed 7",
		"[phy]", "[mac]", "[odmrp]",
		"frames_sent", "100",
		"fg_size",
		"queue_depth", "mean 1.167",
		"pdr", "0.9",
		"top 2 counters:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
	// Top-2 must exclude the third-ranked counter section ordering: only two
	// rows under the header.
	topIdx := strings.Index(out, "top 2 counters:")
	rows := strings.Count(strings.TrimRight(out[topIdx:], "\n"), "\n")
	if rows != 2 {
		t.Errorf("top table has %d rows, want 2:\n%s", rows, out[topIdx:])
	}
	// The sparkline for an increasing counter must be present (non-ASCII
	// blocks in the phy section).
	if !strings.Contains(out, "▁") && !strings.Contains(out, "█") {
		t.Errorf("no sparkline rendered:\n%s", out)
	}
}

func TestSummaryWorksWithoutSeries(t *testing.T) {
	dir := writeRun(t, "no series", 10)
	if err := os.Remove(filepath.Join(dir, telemetry.SeriesFile)); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := runSummary(&sb, dir, 3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "frames_sent") {
		t.Fatalf("manifest-only summary broken:\n%s", sb.String())
	}
}

func TestSummaryMissingDir(t *testing.T) {
	var sb strings.Builder
	if err := runSummary(&sb, filepath.Join(t.TempDir(), "nope"), 5); err == nil {
		t.Fatal("missing run accepted")
	}
}

func TestDiffShowsDeltas(t *testing.T) {
	a := writeRun(t, "run a", 100)
	b := writeRun(t, "run b", 150)
	var sb strings.Builder
	if err := runDiff(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"(run a)", "(run b)",
		"phy.frames_sent",
		"+50", "+50.0%",
		"mac.retries",
		"pdr",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff missing %q:\n%s", want, out)
		}
	}
}

func TestLayerGrouping(t *testing.T) {
	layers, byLayer := layersOf([]string{"mac.b", "mac.a", "phy.x", "plain"})
	if len(layers) != 3 || layers[0] != "mac" || layers[1] != "phy" || layers[2] != "plain" {
		t.Fatalf("layers = %v", layers)
	}
	if got := byLayer["mac"]; len(got) != 2 || got[0] != "mac.a" {
		t.Fatalf("mac group = %v", got)
	}
}

func TestCounterDeltas(t *testing.T) {
	series := []telemetry.SeriesSample{
		{T: 10, Counters: map[string]uint64{"c": 5}},
		{T: 20, Counters: map[string]uint64{"c": 12}},
		{T: 30, Counters: map[string]uint64{"c": 12}},
	}
	got := counterDeltas(series, "c")
	want := []float64{5, 7, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("deltas = %v, want %v", got, want)
		}
	}
}

func TestNormalizeBase(t *testing.T) {
	if got := normalizeBase("127.0.0.1:8420"); got != "http://127.0.0.1:8420" {
		t.Fatalf("normalizeBase bare = %q", got)
	}
	if got := normalizeBase("https://mesh.local:8420"); got != "https://mesh.local:8420" {
		t.Fatalf("normalizeBase schemed = %q", got)
	}
}

func TestWatchLine(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 30, 15, 0, time.UTC)
	s := watchSample{
		T: at,
		Stats: ctlplane.Stats{
			NodesAlive: 23,
			NodesTotal: 25,
			EtherUp:    true,
		},
		DeltaExpected:  100,
		DeltaDelivered: 80,
		PDR:            0.8,
		HasPDR:         true,
	}
	line := watchLine(s, []float64{0.9, 0.8})
	for _, want := range []string{"12:30:15", "23/25", "ether up", "pdr 0.800", "80/100"} {
		if !strings.Contains(line, want) {
			t.Errorf("watch line missing %q: %s", want, line)
		}
	}

	s.Stats.EtherUp = false
	s.HasPDR = false
	line = watchLine(s, nil)
	if !strings.Contains(line, "DOWN") {
		t.Errorf("watch line missing DOWN: %s", line)
	}
	if strings.Contains(line, "0.800") {
		t.Errorf("watch line kept stale pdr: %s", line)
	}

	s.Err = errors.New("connection refused")
	line = watchLine(s, nil)
	if !strings.Contains(line, "poll failed") || !strings.Contains(line, "connection refused") {
		t.Errorf("error sample rendered wrong: %s", line)
	}
}

// TestWatchStep feeds sequences of polls through one watcher and checks the
// lines each poll prints: one substring per line, in order.
func TestWatchStep(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 30, 15, 0, time.UTC)
	stats := func(alive int, expected, delivered uint64) ctlplane.Stats {
		return ctlplane.Stats{NodesAlive: alive, NodesTotal: 5, EtherUp: true, Expected: expected, Delivered: delivered}
	}
	type poll struct {
		st   ctlplane.Stats
		err  error
		want []string
	}
	for _, tc := range []struct {
		name  string
		polls []poll
	}{
		{"normal window", []poll{
			{st: stats(5, 100, 90), want: []string{"pdr   -    Δ 0/0"}},
			{st: stats(5, 200, 180), want: []string{"nodes   5/5    ether up    pdr 0.900  Δ 90/100"}},
		}},
		{"node-death", []poll{
			{st: stats(5, 100, 90), want: []string{"nodes   5/5"}},
			{st: stats(3, 200, 180), want: []string{"nodes   3/5", "12:30:15  ANOMALY  node-death alive 5 -> 3"}},
			{st: stats(3, 300, 270), want: []string{"nodes   3/5"}},
		}},
		{"dip", []poll{
			{st: stats(5, 100, 90), want: []string{"pdr   -"}},
			{st: stats(5, 200, 180), want: []string{"pdr 0.900"}},
			{st: stats(5, 300, 210), want: []string{"pdr 0.300  Δ 30/100", "12:30:15  ANOMALY  pdr-dip window pdr=0.300"}},
		}},
		{"counter reset from a restarted server", []poll{
			{st: stats(5, 100, 90), want: []string{"pdr   -"}},
			{st: stats(5, 200, 180), want: []string{"pdr 0.900  Δ 90/100"}},
			{st: stats(5, 20, 10), want: []string{"pdr   -    Δ 0/0"}},
			{st: stats(5, 120, 100), want: []string{"pdr 0.900  Δ 90/100"}},
		}},
		{"failed poll", []poll{
			{st: stats(5, 100, 90), want: []string{"pdr   -"}},
			{err: errors.New("connection refused"), want: []string{"12:30:15  poll failed: connection refused"}},
			{st: stats(4, 300, 250), want: []string{"pdr 0.800  Δ 160/200", "node-death alive 5 -> 4"}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w watcher
			for i, p := range tc.polls {
				lines := w.step(at, p.st, p.err)
				if len(lines) != len(p.want) {
					t.Fatalf("poll %d printed %d lines, want %d:\n%s", i, len(lines), len(p.want), strings.Join(lines, "\n"))
				}
				for j, want := range p.want {
					if !strings.Contains(lines[j], want) {
						t.Errorf("poll %d line %d = %q, want it to contain %q", i, j, lines[j], want)
					}
				}
			}
		})
	}
}

// lineWriter hands each Write to a channel, dropping it if the channel is
// full.
type lineWriter chan string

func (w lineWriter) Write(p []byte) (int, error) {
	select {
	case w <- string(p):
	default:
	}
	return len(p), nil
}

// TestWatchDoesNotHoldShutdown attaches -watch to a control plane served
// the way etherd -listen serves it and checks that the server's graceful
// Shutdown is not held up by the watcher.
func TestWatchDoesNotHoldShutdown(t *testing.T) {
	medium, err := emu.NewMedium("127.0.0.1:0", emu.NewLinkTable(1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer medium.Stop()
	ctl := ctlplane.NewMediumController(medium, func() time.Duration { return 0 })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: ctlplane.NewServer(ctl).Handler()}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); hs.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Room for the header and the first polls' lines: later ones may drop.
	lines := make(lineWriter, 64)
	watchDone := make(chan error, 1)
	go func() { watchDone <- runWatch(ctx, lines, ln.Addr().String()) }()
	deadline := time.After(5 * time.Second)
	for seen := false; !seen; {
		select {
		case line := <-lines:
			seen = strings.Contains(line, "nodes ")
		case <-deadline:
			t.Fatal("no window line within 5 s")
		}
	}

	start := time.Now()
	shutCtx, stop := context.WithTimeout(context.Background(), 5*time.Second)
	defer stop()
	if err := hs.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown with a watcher attached: %v after %v", err, time.Since(start))
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Shutdown with a watcher attached took %v, want under 1 s", took)
	}
	<-serveDone
	cancel()
	if err := <-watchDone; err != nil {
		t.Fatal(err)
	}
}

func TestCheckCounts(t *testing.T) {
	for _, tc := range []struct {
		top, n int
		want   string // "" accepts
	}{
		{5, 5, ""},
		{0, 0, ""},
		{-2, 5, "-top must not be negative, got -2"},
		{5, -3, "-n must not be negative, got -3"},
	} {
		err := checkCounts(tc.top, tc.n)
		if (err == nil) != (tc.want == "") || err != nil && err.Error() != tc.want {
			t.Errorf("checkCounts(%d, %d) = %v, want %q", tc.top, tc.n, err, tc.want)
		}
	}
}
