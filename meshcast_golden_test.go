package meshcast

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// formatSimulation renders every deterministic quantity the public
// Simulation reports, in a fixed order.
func formatSimulation(b *strings.Builder, s *Simulation, groups []GroupID) {
	sum := s.Summary()
	fmt.Fprintf(b, "pdr=%.9f mean_delay_seconds=%.9f fairness=%.9f probe_overhead_pct=%.9f\n",
		sum.PDR, sum.MeanDelaySeconds, sum.Fairness, sum.ProbeOverheadPct)
	fmt.Fprintf(b, "packets_sent=%d packets_delivered=%d data_bytes_received=%d\n",
		sum.PacketsSent, sum.PacketsDelivered, sum.DataBytesReceived)
	d := s.DelayPercentiles()
	fmt.Fprintf(b, "delay_p50=%v delay_p90=%v delay_p99=%v delay_max=%v count=%d\n", d.P50, d.P90, d.P99, d.Max, d.Count)
	for _, g := range groups {
		gs := s.GroupSummary(g)
		fmt.Fprintf(b, "group %v pdr=%.9f sent=%d delivered=%d\n", g, gs.PDR, gs.PacketsSent, gs.PacketsDelivered)
		forwarders := 0
		for id := 0; id < s.NodeCount(); id++ {
			if s.IsForwarder(NodeID(id), g) {
				forwarders++
			}
		}
		fmt.Fprintf(b, "group %v forwarders=%d\n", g, forwarders)
	}
	for _, m := range s.PerMember() {
		fmt.Fprintf(b, "member %v/%v->%v %.9f\n", m.Group, m.Source, m.Member, m.PDR)
	}
	use := s.EdgeUse()
	edges := make([]Edge, 0, len(use))
	for e := range use {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		fmt.Fprintf(b, "edge %v->%v %d\n", e.From, e.To, use[e])
	}
	// What the layers of every node count (PHY, MAC, probing, the routing
	// protocol), by sorted name. Run-level instruments are not a layer's and
	// are asserted by name in TestSimulationTelemetry.
	if snap, ok := s.Telemetry(); ok {
		var names []string
		for name := range snap.Counters {
			for _, layer := range []string{"phy.", "mac.", "linkquality.", "odmrp.", "mcst."} {
				if strings.HasPrefix(name, layer) {
					names = append(names, name)
				}
			}
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(b, "counter %s %d\n", name, snap.Counters[name])
		}
	}
}

// TestGoldenSimulation pins the fixed-seed output of the public Simulation
// against testdata/golden_simulation.txt: the quickstart topology (random
// 20-node mesh, Rayleigh fading, one group), and a multi-group MCST run on
// a grid with telemetry on, a two-source group, a member that joins after
// its source is declared and a second Run call. Regenerate deliberately
// with:
//
//	go test . -run TestGoldenSimulation -update
func TestGoldenSimulation(t *testing.T) {
	var b strings.Builder
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	quick := NewSimulation(SimulationConfig{Seed: 2026, Metric: SPP})
	quick.EnableTelemetry()
	ids, err := quick.AddRandomNodes(20, 700)
	must(err)
	for _, r := range []NodeID{ids[7], ids[13], ids[19]} {
		must(quick.Join(r, 1))
	}
	must(quick.AddSource(ids[0], 1, 10*time.Second))
	quick.Run(25 * time.Second)
	b.WriteString("== quickstart\n")
	formatSimulation(&b, quick, []GroupID{1})

	multi := NewSimulation(SimulationConfig{Seed: 11, Metric: PP, Protocol: "mcst", DisableFading: true, SendInterval: 100 * time.Millisecond})
	multi.EnableTelemetry()
	for i := 0; i < 12; i++ {
		_, err := multi.AddNode(float64(i%4)*180, float64(i/4)*180)
		must(err)
	}
	must(multi.Join(11, 1))
	must(multi.Join(7, 1))
	must(multi.AddSource(0, 1, 8*time.Second))
	must(multi.AddSource(3, 1, 8*time.Second))
	must(multi.AddSource(8, 2, 9*time.Second))
	must(multi.Join(2, 2))
	must(multi.Join(5, 2))
	must(multi.Join(4, 1)) // after both of group 1's sources
	multi.Run(12 * time.Second)
	multi.Run(20 * time.Second)
	b.WriteString("== multigroup mcst pp\n")
	formatSimulation(&b, multi, []GroupID{1, 2})

	got := b.String()
	path := filepath.Join("testdata", "golden_simulation.txt")
	if *updateGolden {
		must(os.MkdirAll("testdata", 0o755))
		must(os.WriteFile(path, []byte(got), 0o644))
	}
	want, err := os.ReadFile(path)
	must(err)
	if got != string(want) {
		t.Fatalf("output drifted from %s (rerun with -update if intentional):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
