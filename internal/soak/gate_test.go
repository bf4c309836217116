package soak

import (
	"context"
	"fmt"
	"testing"
	"time"

	"meshcast/internal/ctlplane"
	"meshcast/internal/packet"
	"meshcast/internal/telemetry"
)

// TestSoakSurvivesControlPlaneFaults is the soak stack's recovery gate. A
// supervised fleet of 25 daemons is hurt mid-run only through the control
// plane's HTTP API, the way an operator would: two daemons killed (so their
// recovery is the watchdog's), a quarter of the fleet partitioned off the
// medium, and a fault script injected into the running fleet. The
// /stats/stream feed that meshstat -watch renders is read throughout. The
// watchdog must revive both daemons, the feed must show a dead daemon and a
// window PDR below the recovered one, the flight recorder must dump, and
// teardown must leak nothing. The test logs the fields of docs/ROBUSTNESS.md's
// 25-daemon soak row.
func TestSoakSurvivesControlPlaneFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (seconds)")
	}
	const nodes = 25
	settled := leakCheck(t)
	dir := t.TempDir()
	r, err := New(Config{
		Nodes:          nodes,
		Seed:           1,
		SendInterval:   50 * time.Millisecond,
		StartStagger:   5 * time.Millisecond,
		Listen:         "127.0.0.1:0",
		TelemetryDir:   dir,
		SampleInterval: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- r.Run(ctx) }()

	row, err := hurtAndHeal(ctx, ctlplane.NewClient("http://"+r.Addr()), nodes)
	cancel()
	if rerr := <-runDone; rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}

	for _, victim := range row.victims {
		revived := false
		for _, ev := range r.sup.Events() {
			revived = revived || ev.Kind == "watchdog-restart" && ev.Node == packet.NodeID(victim)
		}
		if !revived {
			t.Errorf("the watchdog never revived killed node %d", victim)
		}
	}
	if r.FlightDumps() == 0 {
		t.Error("flight recorder never dumped despite kills and partition")
	}
	m, err := telemetry.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d daemons: availability %.1f%%, run PDR %.1f%%, steady wPDR %.2f, dip wPDR %.2f, recovered wPDR %.2f, min alive %d",
		nodes, 100*m.Derived["availability"], 100*m.Derived["pdr"], row.steady, row.dip, row.recovered, row.minAlive)
	settled()
}

// soakRow is what the gate saw through the control plane.
type soakRow struct {
	victims                []int
	steady, dip, recovered float64
	minAlive               int
}

// hurtAndHeal runs the gate's fault sequence over the HTTP API and checks
// what the /stats/stream watch saw. It returns an error rather than failing
// the test, so the caller stops the run first.
func hurtAndHeal(ctx context.Context, c *ctlplane.Client, nodes int) (row soakRow, err error) {
	if row.steady, err = waitSteady(ctx, c, nodes); err != nil {
		return row, fmt.Errorf("warmup: %w", err)
	}

	watchCtx, stopWatch := context.WithCancel(ctx)
	watchDone := make(chan struct{})
	minAlive, dip, samples, sawPDR := nodes, 0.0, 0, false
	go func() {
		defer close(watchDone)
		for s := range ctlplane.WatchStream(watchCtx, c) {
			if s.Err != nil || s.Anomaly != "" {
				continue
			}
			samples++
			minAlive = min(minAlive, s.Stats.NodesAlive)
			if s.HasPDR && (!sawPDR || s.PDR < dip) {
				dip, sawPDR = s.PDR, true
			}
		}
	}()
	defer func() {
		stopWatch()
		<-watchDone
	}()

	// Kill two daemons. The deaths are unscheduled, so recovery must come
	// from the supervisor's watchdog.
	roster, err := c.Nodes(ctx)
	if err != nil {
		return row, err
	}
	row.victims = []int{roster[len(roster)/3].ID, roster[2*len(roster)/3].ID}
	for _, id := range row.victims {
		if err := c.KillNode(ctx, id); err != nil {
			return row, fmt.Errorf("kill node %d: %w", id, err)
		}
	}
	// Partition a quarter of the fleet off the medium.
	var sideA []int
	for _, n := range roster[:len(roster)/4] {
		sideA = append(sideA, n.ID)
	}
	if _, err := c.Partition(ctx, ctlplane.PartitionRequest{SideA: sideA}); err != nil {
		return row, fmt.Errorf("partition: %w", err)
	}
	// Inject a short extra outage into the running fleet.
	script := []byte(`{"outages":[{"node":1,"start_s":0.5,"duration_s":1}]}`)
	if _, err := c.InjectScript(ctx, ctlplane.ScriptRequest{Script: script}); err != nil {
		return row, fmt.Errorf("inject script: %w", err)
	}

	// Let the faults bite, then heal the partition and wait until every
	// daemon, the killed ones included, is alive and delivering again.
	select {
	case <-ctx.Done():
		return row, ctx.Err()
	case <-time.After(4 * time.Second):
	}
	if _, err := c.Partition(ctx, ctlplane.PartitionRequest{Clear: true}); err != nil {
		return row, fmt.Errorf("clear partition: %w", err)
	}
	if row.recovered, err = waitSteady(ctx, c, nodes); err != nil {
		return row, fmt.Errorf("recovery: %w", err)
	}

	stopWatch()
	<-watchDone
	row.minAlive, row.dip = minAlive, dip
	switch {
	case samples < 3:
		return row, fmt.Errorf("stats stream produced only %d samples", samples)
	case minAlive >= nodes:
		return row, fmt.Errorf("watch never observed a dead daemon (min alive %d of %d)", minAlive, nodes)
	case dip >= row.recovered:
		return row, fmt.Errorf("watch never observed a delivery dip (min %.3f, recovered %.3f)", dip, row.recovered)
	}
	return row, nil
}

// waitSteady polls /stats every 500 ms until every daemon is alive and the
// window since the previous poll delivered traffic; it returns that
// window's PDR.
func waitSteady(ctx context.Context, c *ctlplane.Client, nodes int) (float64, error) {
	poll := time.NewTicker(500 * time.Millisecond)
	defer poll.Stop()
	var prev ctlplane.Stats
	havePrev := false
	for {
		select {
		case <-ctx.Done():
			return 0, fmt.Errorf("fleet never reached steady state: %w", ctx.Err())
		case <-poll.C:
		}
		s, err := c.Stats(ctx)
		if err != nil {
			continue
		}
		if havePrev && s.NodesAlive == nodes {
			de, dd := s.Expected-prev.Expected, s.Delivered-prev.Delivered
			if de > 0 && dd > 0 {
				return float64(dd) / float64(de), nil
			}
		}
		prev, havePrev = s, true
	}
}
