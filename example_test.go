package meshcast_test

import (
	"fmt"
	"time"

	"meshcast"
)

// ExampleSimulation builds a small random mesh, runs ODMRP with the SPP
// metric, and prints the delivery statistics plus a three-line telemetry
// summary.
func ExampleSimulation() {
	// A 20-node mesh in a 700x700 m field, Rayleigh fading, SPP metric.
	simulation := meshcast.NewSimulation(meshcast.SimulationConfig{
		Seed:   2026,
		Metric: meshcast.SPP,
	})
	// Instrument every layer before nodes are created; the counters cost a
	// few nanoseconds each and nothing when telemetry stays disabled.
	simulation.EnableTelemetry()
	ids, err := simulation.AddRandomNodes(20, 700)
	if err != nil {
		fmt.Println(err)
		return
	}

	// Node 0 multicasts to three receivers spread across the field.
	const group meshcast.GroupID = 1
	for _, r := range []meshcast.NodeID{ids[7], ids[13], ids[19]} {
		if err := simulation.Join(r, group); err != nil {
			fmt.Println(err)
			return
		}
	}
	// Probes warm up for 60 s, then 120 s of CBR traffic (512 B, 20 pkt/s).
	if err := simulation.AddSource(ids[0], group, 60*time.Second); err != nil {
		fmt.Println(err)
		return
	}
	simulation.Run(180 * time.Second)

	summary := simulation.Summary()
	fmt.Printf("sent %d packets; mean delivery ratio %.1f%%, mean delay %.1f ms\n",
		summary.PacketsSent, 100*summary.PDR, 1000*summary.MeanDelaySeconds)
	for _, m := range simulation.PerMember() {
		fmt.Printf("  receiver %v: %.1f%% of source %v's packets\n", m.Member, 100*m.PDR, m.Source)
	}
	forwarders := 0
	for _, id := range ids {
		if simulation.IsForwarder(id, group) {
			forwarders++
		}
	}
	fmt.Printf("forwarding group size: %d of %d nodes\n", forwarders, simulation.NodeCount())

	// Three-line telemetry summary straight from the cross-layer registry.
	if snap, ok := simulation.Telemetry(); ok {
		probePct := 100 * float64(snap.Counters["linkquality.probe_bytes_sent"]) /
			float64(summary.DataBytesReceived)
		enqueued := snap.Counters["mac.enqueued"]
		drops := snap.Counters["mac.queue_drops"] + snap.Counters["mac.retry_drops"]
		fmt.Printf("telemetry: probe overhead %.2f%% of delivered data bytes\n", probePct)
		fmt.Printf("telemetry: forwarding group size %d\n", int(snap.Gauges["odmrp.fg_size"]))
		fmt.Printf("telemetry: MAC drop rate %.2f%% (%d of %d enqueued frames)\n",
			100*float64(drops)/float64(enqueued), drops, enqueued)
	}
	// Output:
	// sent 2287 packets; mean delivery ratio 95.9%, mean delay 5.7 ms
	//   receiver n7: 99.9% of source n0's packets
	//   receiver n13: 87.8% of source n0's packets
	//   receiver n19: 99.9% of source n0's packets
	// forwarding group size: 4 of 20 nodes
	// telemetry: probe overhead 2.10% of delivered data bytes
	// telemetry: forwarding group size 4
	// telemetry: MAC drop rate 0.00% (0 of 16527 enqueued frames)
}

// ExamplePathCost evaluates the paper's Figure 1 example: SPP picks the path
// with the higher end-to-end success probability, while METX minimizes total
// expected transmissions and picks the other one.
func ExamplePathCost() {
	acd := []meshcast.LinkEstimate{{DeliveryProb: 1}, {DeliveryProb: 1.0 / 3.0}}
	abd := []meshcast.LinkEstimate{{DeliveryProb: 0.25}, {DeliveryProb: 1}}

	sppACD, _ := meshcast.PathCost(meshcast.SPP, acd)
	sppABD, _ := meshcast.PathCost(meshcast.SPP, abd)
	metxACD, _ := meshcast.PathCost(meshcast.METX, acd)
	metxABD, _ := meshcast.PathCost(meshcast.METX, abd)

	fmt.Printf("SPP:  A-C-D %.3f  A-B-D %.3f\n", sppACD, sppABD)
	fmt.Printf("METX: A-C-D %.0f      A-B-D %.0f\n", metxACD, metxABD)
	// Output:
	// SPP:  A-C-D 0.333  A-B-D 0.250
	// METX: A-C-D 6      A-B-D 5
}

// ExamplePathCost_figure3 evaluates the paper's Figure 3 example: ETX sums
// per-link expected transmissions and narrowly prefers the short path through
// the lossy 0.4 link, while SPP's product collapses on that link and picks the
// longer path.
func ExamplePathCost_figure3() {
	abcd := []meshcast.LinkEstimate{{DeliveryProb: 0.8}, {DeliveryProb: 0.8}, {DeliveryProb: 0.8}}
	aed := []meshcast.LinkEstimate{{DeliveryProb: 0.9}, {DeliveryProb: 0.4}}
	for _, m := range []meshcast.Metric{meshcast.ETX, meshcast.SPP} {
		long, _ := meshcast.PathCost(m, abcd)
		short, _ := meshcast.PathCost(m, aed)
		pick := "A-E-D"
		if better, _ := meshcast.BetterPath(m, long, short); better {
			pick = "A-B-C-D"
		}
		fmt.Printf("%-4v A-B-C-D %.3f  A-E-D %.3f  picks %s\n", m, long, short, pick)
	}
	// Output:
	// etx  A-B-C-D 3.750  A-E-D 3.611  picks A-E-D
	// spp  A-B-C-D 0.512  A-E-D 0.360  picks A-B-C-D
}

// ExampleBetterPath compares two path costs under a metric: SPP is
// maximized, every other metric is minimized.
func ExampleBetterPath() {
	better, _ := meshcast.BetterPath(meshcast.SPP, 0.5, 0.3)
	fmt.Println("SPP 0.5 beats 0.3:", better)
	better, _ = meshcast.BetterPath(meshcast.ETX, 2.0, 3.0)
	fmt.Println("ETX 2.0 beats 3.0:", better)
	// Output:
	// SPP 0.5 beats 0.3: true
	// ETX 2.0 beats 3.0: true
}

// ExampleParseMetric converts metric names from flags or config files.
func ExampleParseMetric() {
	m, _ := meshcast.ParseMetric("spp")
	fmt.Println(m == meshcast.SPP)
	// Output: true
}

// ExampleMetrics lists every implemented metric in presentation order.
func ExampleMetrics() {
	for _, m := range meshcast.Metrics() {
		fmt.Println(m)
	}
	// Output:
	// minhop
	// ett
	// etx
	// metx
	// pp
	// spp
}
