package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestJourneysReportPinned pins the whole -journeys report of a fixed-seed
// span file, `meshsim -metric spp -seconds 20 -seed 1 -spans FILE`.
func TestJourneysReportPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs meshsim")
	}
	path := meshsimSpans(t, "-metric", "spp", "-seconds", "20", "-seed", "1")
	var sb strings.Builder
	if err := runJourneys(&sb, path, 5); err != nil {
		t.Fatal(err)
	}
	got := strings.ReplaceAll(sb.String(), path, "spans.jsonl")
	want, err := os.ReadFile("testdata/journeys_spp_seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("-journeys report moved:\n%s", got)
	}
}

// meshsimSpans runs meshsim with args and returns the -spans file it wrote.
func meshsimSpans(t *testing.T, args ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	cmd := exec.Command("go", append([]string{"run", "meshcast/cmd/meshsim", "-spans", path}, args...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("meshsim %v: %v\n%s", args, err, out)
	}
	return path
}
