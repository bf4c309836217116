package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/telemetry"
)

// TestGoldenCounters pins the `counters` block a recorded run persists —
// every name, that it is a counter and not a gauge, and its fixed-seed value
// — for both protocols and a mobile run on the 50-node scenario. The crash
// runs (crashRetryScenario) move the radio-down drops, the core handovers
// and ODMRP's reply retransmissions.
// It was written against the per-layer registry instruments and must pass
// unchanged now that the registry derives the same names from the nodes.
func TestGoldenCounters(t *testing.T) {
	mobile := goldenScenario(t)
	mobile.Metric = metric.PP // packet pairs, so the EWMA counter moves
	mobile.Duration = 18 * time.Second
	mobile.Mobility = &mobility.Config{Model: mobility.ModelWaypoint, MaxSpeedMps: 10, Start: mobile.TrafficStart}
	for _, run := range []struct {
		name string
		cfg  ScenarioConfig
	}{
		{"odmrp", crashRetryScenario(t, "odmrp")},
		{"mcst", crashRetryScenario(t, "mcst")},
		{"waypoint", mobile},
	} {
		t.Run(run.name, func(t *testing.T) {
			dir := t.TempDir()
			rec, err := telemetry.NewRecorder(dir, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			cfg := run.cfg
			cfg.Telemetry = rec
			if _, err := RunScenario(cfg); err != nil {
				t.Fatal(err)
			}
			m, err := telemetry.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			names := make([]string, 0, len(m.Counters))
			for name := range m.Counters {
				names = append(names, name)
			}
			sort.Strings(names)
			var b strings.Builder
			for _, name := range names {
				fmt.Fprintf(&b, "%s=%d\n", name, m.Counters[name])
			}
			checkGolden(t, "golden_counters_"+run.name+".txt", b.String())
		})
	}
}
