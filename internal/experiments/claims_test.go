package experiments

import (
	"testing"
	"time"

	"meshcast/internal/metric"
)

// TestPaperClaims holds the paper's per-seed claim (§4.2, Figure 2): on the
// §4.1 scenario every link-quality metric delivers more than min-hop on
// each seed, not only on average. The runs are shortened to a 30 s probing
// head start and 60 s of traffic, which keeps the claim's direction.
func TestPaperClaims(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4}
	kinds := metric.All()
	cells := make([]gridCell[ScenarioConfig], len(kinds))
	for i, k := range kinds {
		cells[i] = gridCell[ScenarioConfig]{label: k.String(), config: func(seed uint64) (ScenarioConfig, error) {
			cfg, err := DefaultScenario(k, seed)
			cfg.TrafficStart, cfg.Duration = 30*time.Second, 90*time.Second
			return cfg, err
		}}
	}
	runs, err := runGrid(BatchOptions{Workers: 2}, seeds, cells, RunScenario, ScenarioKey)
	if err != nil {
		t.Fatal(err)
	}
	if kinds[0] != metric.MinHop {
		t.Fatalf("metric.All() starts with %v, want the min-hop baseline", kinds[0])
	}
	for i, k := range kinds[1:] {
		for j, seed := range seeds {
			base, got := runs[0][j].Summary.PDR, runs[i+1][j].Summary.PDR
			t.Logf("%v seed %d: PDR %.3f vs min-hop %.3f (×%.2f)", k, seed, got, base, got/base)
			if got <= base {
				t.Errorf("%v seed %d: PDR %.3f does not beat min-hop's %.3f", k, seed, got, base)
			}
		}
	}
}
