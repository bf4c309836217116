package experiments

import (
	"sync"
	"testing"

	"meshcast/internal/runner"
)

// TestReportGolden generates the whole report at a tiny scale — one seed, 8 s
// of traffic after 4 s of probing — into an empty cache, and pins it. Run
// again on the warm cache, every job is served from it and the report is
// byte-identical. Rewrite testdata/report_tiny.md with -update.
func TestReportGolden(t *testing.T) {
	var mu sync.Mutex
	var jobs, cached int
	o := Options{Seeds: []uint64{1}, TrafficSeconds: 8, WarmupSeconds: 4, ProbeRateFactor: 1, SourcesPerGroup: 1}
	o.Workers = 2
	o.CacheDir = t.TempDir()
	o.Progress = func(p runner.Progress) {
		mu.Lock()
		defer mu.Unlock()
		jobs++
		if p.Cached {
			cached++
		}
	}
	cold, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report_tiny.md", cold)

	coldJobs := jobs
	jobs, cached = 0, 0
	warm, err := Generate(o)
	if err != nil {
		t.Fatal(err)
	}
	if jobs != coldJobs || cached != jobs {
		t.Fatalf("warm run: %d of %d jobs cached, want all %d of the cold run", cached, jobs, coldJobs)
	}
	if warm != cold {
		t.Fatalf("warm report differs from the cold one:\n--- cold ---\n%s\n--- warm ---\n%s", cold, warm)
	}
}

// TestSectionScales: -full gives each section the scale its committed table
// was made at, and the quick run keeps the headline scale where the section
// caps allow it.
func TestSectionScales(t *testing.T) {
	for _, tc := range []struct {
		name           string
		o              Options
		scale          sectionScale
		seeds, seconds int
	}{
		{"full headline", FullOptions(), sectionScale{seeds: 10, seconds: 400}, 10, 400},
		{"full secondary", FullOptions(), secondaryScale, 5, 250},
		{"full protocol", FullOptions(), protocolScale, 3, 150},
		{"full churn", FullOptions(), churnScale, 1, 100},
		{"quick secondary", QuickOptions(), secondaryScale, 3, 150},
		{"quick protocol", QuickOptions(), protocolScale, 3, 150},
		{"quick churn", QuickOptions(), churnScale, 1, 100},
	} {
		got := tc.o.capped(tc.scale)
		if len(got.Seeds) != tc.seeds || got.TrafficSeconds != tc.seconds {
			t.Errorf("%s: %d seeds × %d s, want %d × %d", tc.name, len(got.Seeds), got.TrafficSeconds, tc.seeds, tc.seconds)
		}
	}
	if testbedRuns != 5 {
		t.Errorf("testbed column runs %d times per metric, want the paper's 5", testbedRuns)
	}
}
