// Chaoslive is the live-testbed counterpart of the churn sweep: it runs the
// paper's §4.1 scenario as a fleet of real UDP daemons (internal/emu) under
// a supervised chaos schedule — scripted daemon crashes, an ether restart,
// and link impairments — and prints how the mesh healed, summarized the way
// the simulator's churn experiments are. docs/ROBUSTNESS.md's live chaos table
// comes from it; the recovery checks are internal/emu's and internal/soak's
// tests. The fault schedule is derived from the seed alone (or from -script,
// the same JSON format the simulator consumes), so every metric faces
// exactly the same crashes at the same wall-clock times.
//
//	go run ./examples/chaoslive -seconds 20 -seed 1 -metrics minhop,etx,spp
//	go run ./examples/chaoslive -script chaos.json -time-scale 0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strings"
	"time"

	"meshcast/internal/emu"
	"meshcast/internal/faults"
	"meshcast/internal/metric"
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
	telemetryDir := flag.String("telemetry", "", "record per-metric telemetry series/manifests under this directory")
	flag.Parse()
	if *seconds < 4 {
		log.Fatal("-seconds must be at least 4 (the schedule needs room to crash and recover)")
	}
	metrics := metric.All()
	if *metricsFlag != "all" {
		metrics = nil
		for _, part := range strings.Split(*metricsFlag, ",") {
			k, err := metric.ParseKind(strings.TrimSpace(part))
			if err != nil {
				log.Fatal(err)
			}
			metrics = append(metrics, k)
		}
	}

	// Without -script: crash relay node 10 (index 7) in the first third,
	// member node 3 (index 2) in the second, and bounce the ether at the
	// two-thirds mark.
	wall := time.Duration(*seconds) * time.Second
	third := wall / 3
	cfg := emu.ChaosConfig{Plan: faults.Plan{
		Outages: []faults.Outage{
			{Node: 7, Start: third / 2, Duration: third / 2},
			{Node: 2, Start: third + third/2, Duration: third / 2},
		},
		EtherRestarts: []faults.EtherRestart{{Start: 2 * third, Duration: third / 4}},
	}, Seed: *seed, TimeScale: *timeScale, Horizon: wall}
	desc := fmt.Sprintf("built-in (2 node crashes + 1 ether restart over %ds)", *seconds)
	if *script != "" {
		var err error
		if cfg.Plan, err = faults.LoadPlan(*script); err != nil {
			log.Fatal(err)
		}
		desc = *script
	}
	if *timeScale > 0 {
		cfg.Horizon = time.Duration(float64(wall) / *timeScale)
	}

	fmt.Printf("chaoslive: paper testbed, %ds wall per metric, seed %d, schedule: %s\n\n", *seconds, *seed, desc)
	for _, m := range metrics {
		if err := runMetric(m, cfg, wall, *telemetryDir); err != nil {
			log.Fatalf("%v: %v", m, err)
		}
		fmt.Println()
	}
}

// runMetric executes one supervised chaos run and prints its outcome.
func runMetric(m metric.Kind, cfg emu.ChaosConfig, wall time.Duration, telemetryDir string) error {
	fleet, err := emu.NewFleet(emu.FleetConfig{Scenario: testbed.PaperScenario(), Metric: m, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	defer fleet.Close()
	chaos, err := emu.NewChaos(cfg, fleet.NodeIDs(), fleet.Driver().Now)
	if err != nil {
		return err
	}
	fleet.UseChaos(chaos)
	sup := emu.NewFleetSupervisor(fleet, chaos)

	var rec *telemetry.Recorder
	if telemetryDir != "" {
		if rec, err = telemetry.NewRecorder(filepath.Join(telemetryDir, m.String()), time.Second); err != nil {
			return err
		}
		emu.InstrumentFleet(rec.Registry(), fleet, chaos, sup)
		// Sampling is one more ticker on the run engine, beside the
		// supervisor's schedule and watchdog.
		engine := fleet.Driver().Engine()
		sim.NewTicker(engine, rec.Interval(), 0, nil, func() { rec.Sample(engine.Now()) })
	}

	ctx, cancel := context.WithTimeout(context.Background(), wall)
	fleet.Run(ctx)
	cancel()
	res, rep := fleet.Result(), sup.Report()

	fmt.Printf("%-8s PDR %5.1f%%  ether restarts %d  supervisor events %d\n",
		m, 100*res.Summary.PDR, rep.EtherRestarts, len(rep.Events))
	for _, n := range rep.Nodes {
		if n.Kills > 0 || n.Restarts > 0 {
			fmt.Printf("  node %-3v kills %d  restarts %d  downtime %5.2fs  availability %5.1f%%\n",
				n.ID, n.Kills, n.Restarts, n.Downtime.Seconds(), 100*n.Availability)
		}
	}
	for _, g := range res.Health {
		fmt.Printf("  group %-3v steady PDR %5.1f%%  outage PDR %5.1f%%  repairs %d (mean %.2fs, max %.2fs)\n",
			g.Group, 100*g.SteadyPDR, 100*g.OutagePDR, len(g.RepairLatencies), g.MeanRepair.Seconds(), g.MaxRepair.Seconds())
	}
	for _, ev := range rep.Events {
		switch ev.Kind {
		case "ether-down", "ether-up":
			fmt.Printf("  [%6.2fs] %-16s\n", ev.At.Seconds(), ev.Kind)
		default:
			fmt.Printf("  [%6.2fs] %-16s node=%v\n", ev.At.Seconds(), ev.Kind, ev.Node)
		}
	}

	if rec == nil {
		return nil
	}
	rec.Sample(rep.Elapsed) // the last partial window
	return rec.Finalize(telemetry.Manifest{
		Seed: cfg.Seed, Label: fmt.Sprintf("chaoslive %v", m), Metric: m.String(),
		DurationSeconds: rep.Elapsed.Seconds(),
		Derived:         map[string]float64{"pdr": res.Summary.PDR},
	})
}
