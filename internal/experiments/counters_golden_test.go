package experiments

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/odmrp"
	"meshcast/internal/telemetry"
)

// TestGoldenCounters pins the `counters` block a recorded run persists —
// every name, that it is a counter and not a gauge, and its fixed-seed value
// — for both protocols and a mobile run on the 50-node scenario. The crash
// runs are the crash/restart golden's (radio-down drops, core handovers),
// with ODMRP's reply retransmission switched on so its counter moves too.
// It was written against the per-layer registry instruments and must pass
// unchanged now that the registry derives the same names from the nodes.
func TestGoldenCounters(t *testing.T) {
	crash := func(protocol string) ScenarioConfig {
		cfg := crashRestartScenario(t, protocol)
		if protocol == "odmrp" {
			params := odmrp.DefaultParams()
			params.ReplyRetries = 2
			cfg.ODMRP = &params
		}
		return cfg
	}
	mobile := goldenScenario(t)
	mobile.Metric = metric.PP // packet pairs, so the EWMA counter moves
	mobile.Duration = 18 * time.Second
	mobile.Mobility = &mobility.Config{Model: mobility.ModelWaypoint, MaxSpeedMps: 10, Start: mobile.TrafficStart}
	for _, run := range []struct {
		name string
		cfg  ScenarioConfig
	}{
		{"odmrp", crash("odmrp")},
		{"mcst", crash("mcst")},
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
