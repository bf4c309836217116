// Chaoslive is the live-testbed counterpart of examples/churn: it runs the
// paper's §4.1 scenario as a fleet of real UDP daemons (internal/emu) under
// a supervised chaos schedule — scripted daemon crashes, an ether restart,
// and link impairments — and verifies that the mesh self-heals: every
// killed daemon is restarted, delivery resumes, and availability stays
// above zero for all nodes. Wall-clock health is summarized the same way
// the simulator's churn experiments are (repair latency, outage-vs-steady
// PDR, availability), so the two layers can be compared directly.
//
// The fault schedule is derived from the seed alone (or from -script, the
// same JSON format the simulator consumes), so every metric faces exactly
// the same crashes at the same wall-clock times.
//
// The harness is self-verifying and exits nonzero when a run fails to
// recover — CI uses it as the live-chaos smoke test:
//
//	go run ./examples/chaoslive -seconds 20 -metrics spp,etx
//	go run ./examples/chaoslive -seconds 6 -metrics spp -json CHAOSLIVE.json
//	go run ./examples/chaoslive -script chaos.json -time-scale 0.1
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"meshcast/internal/emu"
	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
	"meshcast/internal/telemetry"
	"meshcast/internal/testbed"
)

func main() {
	seconds := flag.Int("seconds", 20, "wall-clock traffic seconds per metric")
	seed := flag.Uint64("seed", 1, "seed for the fault schedule and medium loss draws")
	metricsFlag := flag.String("metrics", "spp", "comma-separated metrics to run (or 'all')")
	script := flag.String("script", "", "JSON fault script (internal/faults format; default: built-in relay-crash + ether-restart schedule)")
	timeScale := flag.Float64("time-scale", 1, "wall-clock seconds per script virtual second")
	jsonOut := flag.String("json", "", "write the run summary as JSON here")
	telemetryDir := flag.String("telemetry", "", "record per-metric telemetry series/manifests under this directory")
	flag.Parse()
	if err := run(*seconds, *seed, *metricsFlag, *script, *timeScale, *jsonOut, *telemetryDir); err != nil {
		log.Fatal(err)
	}
}

// nodeOutcome is one node's supervision summary in the JSON artifact.
type nodeOutcome struct {
	Node         packet.NodeID `json:"node"`
	Kills        int           `json:"kills"`
	Restarts     int           `json:"restarts"`
	DowntimeS    float64       `json:"downtimeS"`
	Availability float64       `json:"availability"`
}

// groupOutcome is one multicast group's wall-clock health summary.
type groupOutcome struct {
	Group       packet.GroupID `json:"group"`
	OutagePDR   float64        `json:"outagePdr"`
	SteadyPDR   float64        `json:"steadyPdr"`
	MeanRepairS float64        `json:"meanRepairS"`
	MaxRepairS  float64        `json:"maxRepairS"`
	Repairs     int            `json:"repairs"`
}

// metricOutcome is one metric's full chaos-run summary.
type metricOutcome struct {
	Metric        string         `json:"metric"`
	PDR           float64        `json:"pdr"`
	EtherRestarts int            `json:"etherRestarts"`
	Nodes         []nodeOutcome  `json:"nodes"`
	Groups        []groupOutcome `json:"groups"`
	FramesIn      uint64         `json:"framesIn"`
	FramesDropped uint64         `json:"framesDropped"`
	Events        int            `json:"events"`
}

type summary struct {
	Seed     uint64          `json:"seed"`
	Seconds  int             `json:"seconds"`
	Script   string          `json:"script,omitempty"`
	Outcomes []metricOutcome `json:"outcomes"`
}

func run(seconds int, seed uint64, metricsFlag, script string, timeScale float64, jsonOut, telemetryDir string) error {
	if seconds < 4 {
		return fmt.Errorf("-seconds must be at least 4 (the schedule needs room to crash and recover)")
	}
	metrics, err := parseMetrics(metricsFlag)
	if err != nil {
		return err
	}
	plan, planDesc, err := loadOrBuildPlan(script, seconds)
	if err != nil {
		return err
	}
	wall := time.Duration(seconds) * time.Second

	fmt.Printf("chaoslive: paper testbed, %ds wall per metric, seed %d, schedule: %s\n\n",
		seconds, seed, planDesc)

	sum := summary{Seed: seed, Seconds: seconds, Script: script}
	failed := false
	for _, m := range metrics {
		out, err := runMetric(m, plan, seed, timeScale, wall, telemetryDir)
		if err != nil {
			return fmt.Errorf("%v: %w", m, err)
		}
		sum.Outcomes = append(sum.Outcomes, *out)
		if verr := verify(out); verr != nil {
			failed = true
			fmt.Printf("  FAIL %v: %v\n", m, verr)
		}
		fmt.Println()
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("summary written to %s\n", jsonOut)
	}
	if failed {
		return fmt.Errorf("one or more metrics failed chaos verification")
	}
	fmt.Println("all metrics recovered from every scripted fault")
	return nil
}

// runMetric executes one supervised chaos run and checks for goroutine
// leaks after teardown.
func runMetric(m metric.Kind, plan faults.Plan, seed uint64, timeScale float64, wall time.Duration, telemetryDir string) (*metricOutcome, error) {
	baseline := runtime.NumGoroutine()

	fleet, err := emu.NewFleet(emu.FleetConfig{
		Scenario: testbed.PaperScenario(),
		Metric:   m,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	chaos, err := emu.NewChaos(emu.ChaosConfig{
		Plan:      plan,
		Seed:      seed,
		TimeScale: timeScale,
		Horizon:   time.Duration(float64(wall) / scaleOf(timeScale)),
	}, fleet.NodeIDs(), fleet.Driver().Now)
	if err != nil {
		fleet.Close()
		return nil, err
	}
	fleet.UseChaos(chaos)
	sup := emu.NewFleetSupervisor(fleet, chaos, emu.SupervisorConfig{})

	var rec *telemetry.Recorder
	if telemetryDir != "" {
		rec, err = telemetry.NewRecorder(filepath.Join(telemetryDir, m.String()), time.Second)
		if err != nil {
			fleet.Close()
			return nil, err
		}
		emu.InstrumentFleet(rec.Registry(), fleet, chaos, sup)
		// Sampling is one more ticker on the run engine, beside the
		// supervisor's schedule and watchdog.
		engine, sampler := fleet.Driver().Engine(), rec.Sampler()
		sim.NewTicker(engine, sampler.Interval(), 0, nil, func() { sampler.Sample(engine.Now()) })
	}

	ctx, cancel := context.WithTimeout(context.Background(), wall)
	fleet.Run(ctx)
	cancel()
	elapsed := fleet.Driver().Now()
	if rec != nil {
		rec.Sampler().Sample(elapsed) // the last partial window
	}

	res := fleet.Result()
	rep := sup.Report()
	etherStats := fleet.Medium().Stats()
	fleet.Close()

	if rec != nil {
		snap := rec.Registry().Snapshot()
		err := rec.Finalize(telemetry.Manifest{
			Seed: seed, Label: fmt.Sprintf("chaoslive %v", m), Metric: m.String(),
			DurationSeconds: elapsed.Seconds(),
			IntervalSeconds: rec.Sampler().Interval().Seconds(),
			Samples:         rec.Sampler().Samples(),
			Counters:        snap.Counters, Gauges: snap.Gauges, Histograms: snap.Histograms,
			Derived: map[string]float64{"pdr": res.Summary.PDR},
		})
		if err != nil {
			return nil, err
		}
	}

	if err := checkGoroutines(baseline); err != nil {
		return nil, err
	}

	out := &metricOutcome{
		Metric:        m.String(),
		PDR:           res.Summary.PDR,
		EtherRestarts: rep.EtherRestarts,
		FramesIn:      etherStats.FramesIn,
		FramesDropped: etherStats.FramesDropped,
		Events:        len(rep.Events),
	}
	for _, n := range rep.Nodes {
		out.Nodes = append(out.Nodes, nodeOutcome{
			Node: n.ID, Kills: n.Kills, Restarts: n.Restarts,
			DowntimeS: n.Downtime.Seconds(), Availability: n.Availability,
		})
	}
	for _, g := range res.Health {
		out.Groups = append(out.Groups, groupOutcome{
			Group: g.Group, OutagePDR: g.OutagePDR, SteadyPDR: g.SteadyPDR,
			MeanRepairS: g.MeanRepair.Seconds(), MaxRepairS: g.MaxRepair.Seconds(),
			Repairs: len(g.RepairLatencies),
		})
	}
	printOutcome(out, rep)
	return out, nil
}

func printOutcome(out *metricOutcome, rep emu.SupervisorReport) {
	fmt.Printf("%-8s PDR %5.1f%%  ether restarts %d  supervisor events %d\n",
		out.Metric, 100*out.PDR, out.EtherRestarts, out.Events)
	for _, n := range out.Nodes {
		if n.Kills == 0 && n.Restarts == 0 {
			continue
		}
		fmt.Printf("  node %-3v kills %d  restarts %d  downtime %5.2fs  availability %5.1f%%\n",
			n.Node, n.Kills, n.Restarts, n.DowntimeS, 100*n.Availability)
	}
	for _, g := range out.Groups {
		fmt.Printf("  group %-3v steady PDR %5.1f%%  outage PDR %5.1f%%  repairs %d (mean %.2fs, max %.2fs)\n",
			g.Group, 100*g.SteadyPDR, 100*g.OutagePDR, g.Repairs, g.MeanRepairS, g.MaxRepairS)
	}
	for _, ev := range rep.Events {
		switch ev.Kind {
		case "ether-down", "ether-up":
			fmt.Printf("  [%6.2fs] %-16s\n", ev.At.Seconds(), ev.Kind)
		default:
			fmt.Printf("  [%6.2fs] %-16s node=%v\n", ev.At.Seconds(), ev.Kind, ev.Node)
		}
	}
}

// verify applies the harness's recovery criteria to one metric's outcome.
func verify(out *metricOutcome) error {
	if out.PDR <= 0 {
		return fmt.Errorf("no multicast delivery at all (PDR 0)")
	}
	kills := 0
	for _, n := range out.Nodes {
		kills += n.Kills
		if n.Kills > n.Restarts {
			return fmt.Errorf("node %v: %d kills but only %d restarts — daemon left dead", n.Node, n.Kills, n.Restarts)
		}
		if n.Availability <= 0 {
			return fmt.Errorf("node %v: availability %.3f", n.Node, n.Availability)
		}
	}
	if kills == 0 {
		return fmt.Errorf("schedule killed nothing — not a chaos run")
	}
	return nil
}

// checkGoroutines waits for the run's goroutines to drain after Close.
func checkGoroutines(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		// Slack of 4 covers runtime background goroutines that come and go.
		n := runtime.NumGoroutine()
		if n <= baseline+4 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d before run, %d after teardown", baseline, n)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// loadOrBuildPlan returns the fault plan to execute. Without -script it
// builds the default schedule, scaled to the run length: crash relay node
// 10 (index 7) in the first third, crash member node 3 (index 2) in the
// second, and bounce the ether at the two-thirds mark.
func loadOrBuildPlan(script string, seconds int) (faults.Plan, string, error) {
	if script != "" {
		plan, err := faults.LoadPlan(script)
		if err != nil {
			return faults.Plan{}, "", err
		}
		return plan, script, nil
	}
	third := time.Duration(seconds) * time.Second / 3
	plan := faults.Plan{
		Outages: []faults.Outage{
			{Node: 7, Start: third / 2, Duration: third / 2},       // node 10: relay for both groups
			{Node: 2, Start: third + third/2, Duration: third / 2}, // node 3: group 1 member
		},
		EtherRestarts: []faults.EtherRestart{
			{Start: 2 * third, Duration: third / 4},
		},
	}
	return plan, fmt.Sprintf("built-in (2 node crashes + 1 ether restart over %ds)", seconds), nil
}

func scaleOf(timeScale float64) float64 {
	if timeScale <= 0 {
		return 1
	}
	return timeScale
}

func parseMetrics(s string) ([]metric.Kind, error) {
	if s == "all" {
		return metric.All(), nil
	}
	var out []metric.Kind
	for _, part := range strings.Split(s, ",") {
		k, err := metric.ParseKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}
