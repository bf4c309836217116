package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/odmrp"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// goldenScenario is a shortened fixed-seed instance of the paper's 50-node
// §4.1 scenario: full topology and group structure, reduced traffic window
// so the regression test stays fast.
func goldenScenario(t *testing.T) ScenarioConfig {
	t.Helper()
	cfg, err := DefaultScenario(metric.SPP, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TrafficStart = 10 * time.Second
	cfg.Duration = 25 * time.Second
	return cfg
}

// formatRunResult renders every deterministic quantity of a run, in a fixed
// order, so any behavioral drift in the simulation core shows up as a diff.
func formatRunResult(res *RunResult) string {
	var b strings.Builder
	s := res.Summary
	fmt.Fprintf(&b, "pdr=%.9f\n", s.PDR)
	fmt.Fprintf(&b, "mean_delay_seconds=%.9f\n", s.MeanDelaySeconds)
	fmt.Fprintf(&b, "packets_sent=%d\n", s.PacketsSent)
	fmt.Fprintf(&b, "packets_delivered=%d\n", s.PacketsDelivered)
	fmt.Fprintf(&b, "data_bytes_received=%d\n", s.DataBytesReceived)
	fmt.Fprintf(&b, "probe_overhead_pct=%.9f\n", s.ProbeOverheadPct)
	fmt.Fprintf(&b, "fairness=%.9f\n", s.Fairness)
	fmt.Fprintf(&b, "probe_bytes=%d\n", res.ProbeBytes)
	fmt.Fprintf(&b, "control_bytes=%d\n", res.ControlBytes)
	fmt.Fprintf(&b, "mac_collisions=%d\n", res.MACCollisions)
	fmt.Fprintf(&b, "data_forwards=%d\n", res.DataForwards)
	fmt.Fprintf(&b, "delay_p50=%v delay_p90=%v delay_p99=%v delay_max=%v count=%d\n",
		res.Delay.P50, res.Delay.P90, res.Delay.P99, res.Delay.Max, res.Delay.Count)
	fmt.Fprintf(&b, "events=%d\n", res.Events)
	for _, m := range res.PerMember {
		fmt.Fprintf(&b, "member %v\n", m)
	}
	return b.String()
}

// TestGoldenSimcoreOutput pins the fixed-seed 50-node paper scenario's
// complete stats output against testdata/golden_simcore.txt. Any change to
// the event engine, PHY, MAC, routing, or RNG draw order shows up here.
// Regenerate deliberately with:
//
//	go test ./internal/experiments -run TestGoldenSimcoreOutput -update
func TestGoldenSimcoreOutput(t *testing.T) {
	res, err := RunScenario(goldenScenario(t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_simcore.txt", formatRunResult(res))
}

// TestGoldenSimcoreOutputExplicitProtocol runs the golden scenario with the
// ODMRP protocol named explicitly instead of defaulted, and requires the
// byte-identical golden output: the protocol-registry indirection must be
// invisible to ODMRP's behavior (same construction order, same RNG draws).
func TestGoldenSimcoreOutputExplicitProtocol(t *testing.T) {
	cfg := goldenScenario(t)
	cfg.Protocol = "odmrp"
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := formatRunResult(res)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_simcore.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("explicit -protocol odmrp diverged from the default-protocol golden output:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestGoldenSimcoreOutputMCSTSingleSource pins a structural theorem of the
// two protocols: with one source per group, ODMRP's δ-wait reply mesh *is*
// the best-parent shared tree MCST builds from that source as core — same
// flood (CORE_ANNOUNCE mirrors JOIN_QUERY in size, interval, and α re-flood
// rule), same δ-selected parents (TREE_JOIN mirrors JOIN_REPLY), hence the
// same forwarder set, the same RNG draw sequence, and byte-identical
// output. The protocols only diverge with multiple sources per group
// (ODMRP unions per-source meshes; MCST keeps one core) — which is why the
// protocol-comparison sweep runs the §4.3 multi-source regime.
func TestGoldenSimcoreOutputMCSTSingleSource(t *testing.T) {
	cfg := goldenScenario(t)
	cfg.Protocol = "mcst"
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := formatRunResult(res)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_simcore.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("single-source MCST diverged from the ODMRP golden output — the shared tree no longer mirrors the one-source mesh:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// checkGolden compares got against testdata/<name>, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s (rerun with -update if intentional):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// multiSourceScenario is the golden scenario with three sources per group —
// the paper50-mcst-3src benchmark shape. Only here do the two protocols
// diverge: ODMRP runs one flood per source and unions the meshes, MCST
// elects one core per group, suppresses the other sources' announces and
// grafts them as senders.
func multiSourceScenario(t *testing.T, protocol string) ScenarioConfig {
	t.Helper()
	cfg, err := DefaultScenarioWith(metric.SPP, 1, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = protocol
	cfg.TrafficStart = 10 * time.Second
	cfg.Duration = 18 * time.Second
	return cfg
}

// TestGoldenMultiSource pins the three-sources-per-group run of each
// protocol: per-source rounds sharing one forwarding group (ODMRP), core
// election, announce suppression and sender grafts (MCST).
func TestGoldenMultiSource(t *testing.T) {
	for _, protocol := range []string{"odmrp", "mcst"} {
		t.Run(protocol, func(t *testing.T) {
			res, err := RunScenario(multiSourceScenario(t, protocol))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "golden_3src_"+protocol+".txt", formatRunResult(res))
		})
	}
}

// crashRestartScenario is a multi-source run through a scripted crash and
// restart, the path that exercises Router.Reset. Group
// 1's lowest-ID source (MCST's core) is down from 11 s to 26 s: the
// suppressed sources' watchdogs, armed when they stepped down at
// TrafficStart, find the core still fresh at 17 s and silent at 24 s, so one
// reclaims the core role then and hands it back after the restart. A
// group-2 member crashes with floods and replies in flight. Half the paper's
// send rate keeps the MAC unsaturated, the regime the multi-source golden
// does not cover, and the run cheap.
func crashRestartScenario(t *testing.T, protocol string) ScenarioConfig {
	t.Helper()
	cfg := multiSourceScenario(t, protocol)
	cfg.Duration = 29 * time.Second
	cfg.SendInterval = 100 * time.Millisecond
	core := cfg.Groups[0].Sources[0]
	for _, s := range cfg.Groups[0].Sources {
		if s < core {
			core = s
		}
	}
	cfg.Faults = &faults.Plan{Outages: []faults.Outage{
		{Node: core, Start: 11 * time.Second, Duration: 15 * time.Second},
		{Node: cfg.Groups[1].Members[0], Start: 13 * time.Second, Duration: 3 * time.Second},
	}}
	return cfg
}

// crashRetryScenario is crashRestartScenario with, under ODMRP, the
// passive-ack JOIN REPLY retransmission switched on (two retries).
func crashRetryScenario(t *testing.T, protocol string) ScenarioConfig {
	t.Helper()
	cfg := crashRestartScenario(t, protocol)
	if protocol == "odmrp" {
		params := odmrp.DefaultParams()
		params.ReplyRetries = 2
		cfg.ODMRP = &params
	}
	return cfg
}

// TestGoldenCrashRestart pins crashRestartScenario's output for each protocol.
func TestGoldenCrashRestart(t *testing.T) {
	for _, protocol := range []string{"odmrp", "mcst"} {
		t.Run(protocol, func(t *testing.T) {
			res, err := RunScenario(crashRestartScenario(t, protocol))
			if err != nil {
				t.Fatal(err)
			}
			if res.Faulted != 2 {
				t.Fatalf("injected %d outages, want 2", res.Faulted)
			}
			checkGolden(t, "golden_crash_"+protocol+".txt", formatRunResult(res))
		})
	}
}
