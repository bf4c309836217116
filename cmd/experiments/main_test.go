package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"meshcast/internal/telemetry"
)

// TestRunFinalizesTelemetryWhenAPhaseFails makes the first phase fail before
// any simulation starts (the result cache cannot be created under a regular
// file) and requires the -telemetry directory to be loadable anyway: a
// series.jsonl without a manifest.json is a directory meshstat rejects.
func TestRunFinalizesTelemetryWhenAPhaseFails(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	telemDir := filepath.Join(dir, "telemetry")
	err := run(false, "", true, 1, 1, filepath.Join(blocker, "cache"), telemDir)
	if err == nil || !strings.Contains(err.Error(), "fig2 simulations") {
		t.Fatalf("run error = %v, want the fig2 phase to fail on the cache directory", err)
	}
	m, err := telemetry.LoadManifest(telemDir)
	if err != nil {
		t.Fatalf("telemetry directory of a failed sweep does not load: %v", err)
	}
	if !strings.Contains(m.Label, "failed") {
		t.Fatalf("manifest label %q does not mark the sweep as failed", m.Label)
	}
}
