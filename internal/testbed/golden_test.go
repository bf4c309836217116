package testbed

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current output")

// formatResult renders every deterministic quantity of a testbed run in a
// fixed order, so any drift in how the run is wired or counted is a diff.
func formatResult(b *strings.Builder, res *Result) {
	s := res.Summary
	fmt.Fprintf(b, "pdr=%.9f mean_delay_seconds=%.9f fairness=%.9f probe_overhead_pct=%.9f\n",
		s.PDR, s.MeanDelaySeconds, s.Fairness, s.ProbeOverheadPct)
	fmt.Fprintf(b, "packets_sent=%d packets_delivered=%d data_bytes_received=%d\n",
		s.PacketsSent, s.PacketsDelivered, s.DataBytesReceived)
	fmt.Fprintf(b, "delay_p50=%v delay_p90=%v delay_p99=%v delay_max=%v count=%d\n",
		res.Delay.P50, res.Delay.P90, res.Delay.P99, res.Delay.Max, res.Delay.Count)
	for _, m := range res.PerMember {
		fmt.Fprintf(b, "member %v/%v->%v %.9f\n", m.Group, m.Source, m.Member, m.PDR)
	}
	for _, p := range res.Series {
		fmt.Fprintf(b, "series %v sent=%d delivered=%d ratio=%.9f\n", p.Start, p.Sent, p.Delivered, p.Ratio)
	}
	edges := make([]multicast.Edge, 0, len(res.EdgeUse))
	for e := range res.EdgeUse {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for _, e := range edges {
		fmt.Fprintf(b, "edge %v->%v %d\n", e.From, e.To, res.EdgeUse[e])
	}
	sources := make([]packet.NodeID, 0, len(res.Sent))
	for id := range res.Sent {
		sources = append(sources, id)
	}
	sort.Slice(sources, func(i, j int) bool { return sources[i] < sources[j] })
	for _, id := range sources {
		fmt.Fprintf(b, "sent %v %d\n", id, res.Sent[id])
	}
}

// TestGoldenTestbed pins the fixed-seed output of the testbed emulation —
// both protocols under min-hop, PP and SPP on the paper's eight nodes, plus
// one generated floor — against testdata/golden_testbed.txt. The loss
// processes, the link oracle's draw order, the warm-up probe snapshot and
// the harvest all show up here. Regenerate deliberately with:
//
//	go test ./internal/testbed -run TestGoldenTestbed -update
func TestGoldenTestbed(t *testing.T) {
	var b strings.Builder
	short := func(k metric.Kind, protocol string) Config {
		cfg := DefaultConfig(k, 1)
		cfg.Protocol = protocol
		cfg.WarmupSeconds = 20
		cfg.TrafficSeconds = 40
		return cfg
	}
	for _, protocol := range []string{"odmrp", "mcst"} {
		for _, k := range []metric.Kind{metric.MinHop, metric.PP, metric.SPP} {
			res, err := Run(short(k, protocol))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "== paper %s %v\n", protocol, k)
			formatResult(&b, res)
		}
	}
	floor, err := GenerateFloor(FloorConfig{Nodes: 14, Seed: 5, Groups: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(short(metric.SPP, ""), floor)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== floor14 default spp\n")
	formatResult(&b, res)

	got := b.String()
	path := filepath.Join("testdata", "golden_testbed.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
