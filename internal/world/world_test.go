package world

import (
	"fmt"
	"maps"
	"reflect"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/mcst"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/node"
	"meshcast/internal/odmrp"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/telemetry"
)

// line builds a no-fading chain of n nodes 200 m apart (250 m radio range),
// IDs 0..n-1, optionally instrumented.
func line(t *testing.T, n int, reg *telemetry.Registry) *World {
	t.Helper()
	w := New(Config{
		Seed:         1,
		Fading:       propagation.NoFading{},
		Node:         node.DefaultConfig(metric.SPP),
		PayloadBytes: 512,
		SendInterval: 50 * time.Millisecond,
	})
	if reg != nil {
		w.Instrument(reg)
	}
	for i := 0; i < n; i++ {
		if _, err := w.AddNode(packet.NodeID(i), geom.Point{X: float64(i) * 200}); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func rows(w *World) []string {
	var out []string
	for _, m := range w.Harvest().PerMember {
		out = append(out, fmt.Sprintf("g%d/%d->%d", m.Group, m.Source, m.Member))
	}
	return out
}

// TestSubscriptionMatrix declares a two-source group whose first source is
// also a member, in three call orders: every member expects every source
// but itself, whatever came first.
func TestSubscriptionMatrix(t *testing.T) {
	type step struct {
		join bool
		id   packet.NodeID
	}
	join := func(id packet.NodeID) step { return step{true, id} }
	source := func(id packet.NodeID) step { return step{false, id} }
	orders := map[string][]step{
		"members first": {join(0), join(2), join(3), source(0), source(1)},
		"sources first": {source(0), source(1), join(0), join(2), join(3)},
		"interleaved":   {join(3), source(1), join(0), source(0), join(2)},
	}
	want := []string{"g7/0->2", "g7/0->3", "g7/1->0", "g7/1->2", "g7/1->3"}
	for name, steps := range orders {
		w := line(t, 4, nil)
		for _, s := range steps {
			var err error
			if s.join {
				err = w.Join(s.id, 7)
			} else {
				_, err = w.AddSource(s.id, 7, time.Second)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Join(2, 7); err != nil { // joining twice changes nothing
			t.Fatal(err)
		}
		w.Engine.Run(5 * time.Second)
		if got := rows(w); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: subscriptions %v, want %v", name, got, want)
		}
		if s := w.Harvest().Summary; s.PDR < 0.9 {
			t.Errorf("%s: PDR %.3f on a clean line; a self-subscription would hold it under 5/6", name, s.PDR)
		}
	}
	if _, err := line(t, 2, nil).AddSource(9, 1, 0); err == nil {
		t.Error("AddSource on an unknown node succeeded")
	}
	if err := line(t, 2, nil).Join(9, 1); err == nil {
		t.Error("Join on an unknown node succeeded")
	}
}

// TestHooks checks the two observer hooks: OnDeliver once per counted
// delivery, OnSend once per packet sent with the number of members other
// than the source.
func TestHooks(t *testing.T) {
	w := line(t, 4, nil)
	var delivered, sends uint64
	receivers := map[packet.GroupID]map[int]bool{}
	w.OnDeliver = func(p *packet.Packet, at time.Duration) {
		delivered++
		if at != w.Engine.Now() || at < p.SentAt {
			t.Errorf("delivery at %v (now %v) of a packet sent at %v", at, w.Engine.Now(), p.SentAt)
		}
	}
	w.OnSend = func(g packet.GroupID, at time.Duration, n int) {
		sends++
		if receivers[g] == nil {
			receivers[g] = map[int]bool{}
		}
		receivers[g][n] = true
	}
	// Group 1: source 0 is also a member, so each send has two receivers.
	// Group 2: source 3, one member.
	for _, m := range []packet.NodeID{0, 1, 2} {
		if err := w.Join(m, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Join(0, 2); err != nil {
		t.Fatal(err)
	}
	for g, s := range map[packet.GroupID]packet.NodeID{1: 0, 2: 3} {
		if _, err := w.AddSource(s, g, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	w.Engine.Run(6 * time.Second)
	s := w.Harvest().Summary
	if delivered == 0 || delivered != s.PacketsDelivered {
		t.Errorf("OnDeliver fired %d times for %d deliveries", delivered, s.PacketsDelivered)
	}
	if sends == 0 || sends != s.PacketsSent {
		t.Errorf("OnSend fired %d times for %d packets", sends, s.PacketsSent)
	}
	if want := (map[packet.GroupID]map[int]bool{1: {2: true}, 2: {1: true}}); !reflect.DeepEqual(receivers, want) {
		t.Errorf("receivers per send = %v, want %v", receivers, want)
	}
}

// TestMeasureFrom runs the same world with and without a measurement
// window: the window excludes exactly the probe bytes sent before it.
func TestMeasureFrom(t *testing.T) {
	run := func(measure bool) (Harvest, uint64) {
		w := line(t, 3, nil)
		if err := w.Join(2, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := w.AddSource(0, 1, 20*time.Second); err != nil {
			t.Fatal(err)
		}
		if measure {
			w.MeasureFrom(20 * time.Second)
		}
		w.Engine.Run(20 * time.Second)
		warmup := w.probeBytesSent()
		w.Engine.Run(40 * time.Second)
		return w.Harvest(), warmup
	}
	all, warmup := run(false)
	window, _ := run(true)
	if warmup == 0 {
		t.Fatal("no probes in 20 s of warm-up")
	}
	if all.ProbeBytes != window.ProbeBytes+warmup {
		t.Errorf("probe bytes: %d unwindowed, %d windowed + %d warm-up", all.ProbeBytes, window.ProbeBytes, warmup)
	}
	if window.Summary.ProbeOverheadPct <= 0 || window.Summary.ProbeOverheadPct >= all.Summary.ProbeOverheadPct {
		t.Errorf("overhead %.3f%% windowed, %.3f%% unwindowed", window.Summary.ProbeOverheadPct, all.Summary.ProbeOverheadPct)
	}
	all.ProbeBytes, all.Summary.ProbeOverheadPct = window.ProbeBytes, window.Summary.ProbeOverheadPct
	all.Events++ // the window's own snapshot event
	if !reflect.DeepEqual(all, window) {
		t.Errorf("the window changed more than the probe accounting:\n%+v\n%+v", all, window)
	}
}

// TestHarvestTotalsAndInstruments checks the harvest against the per-node
// counters it sums and the run-level instruments against the harvest.
func TestHarvestTotalsAndInstruments(t *testing.T) {
	reg := telemetry.NewRegistry()
	w := line(t, 4, reg)
	if err := w.Join(3, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddSource(0, 1, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	w.MeasureFrom(15 * time.Second)
	w.Engine.Run(25 * time.Second)
	h := w.Harvest()

	var probe, control, collisions, forwards uint64
	var state, forwarders, entries int
	edges := 0
	for _, n := range w.Nodes() {
		c := n.Router.Counters()
		probe += n.Prober.Stats.BytesSent
		control += c.ControlBytesSent
		collisions += n.Radio.Stats.Collisions
		forwards += c.DataForwarded
		state += n.Router.RoundCount() + n.Router.DupWindowCount()
		edges += len(n.Router.EdgeUse())
		entries += n.Table.Len()
		if n.Router.IsForwarder(1) {
			forwarders++
		}
	}
	if h.ControlBytes != control || h.Collisions != collisions || h.DataForwards != forwards || h.ForwarderState != state {
		t.Errorf("harvest %+v, node sums control=%d collisions=%d forwards=%d state=%d", h, control, collisions, forwards, state)
	}
	if h.Summary.PacketsDelivered == 0 || forwards == 0 || control == 0 || state == 0 {
		t.Fatalf("the line carried nothing: %+v", h)
	}
	if len(h.EdgeUse) != edges { // a line: no edge is reported by two nodes
		t.Errorf("merged %d edges from %d", len(h.EdgeUse), edges)
	}
	if h.Events != w.Engine.Processed || h.Events == 0 {
		t.Errorf("events = %d, engine processed %d", h.Events, w.Engine.Processed)
	}
	if h.Delay.Count != int(h.Summary.PacketsDelivered) {
		t.Errorf("delay samples = %d, deliveries = %d", h.Delay.Count, h.Summary.PacketsDelivered)
	}

	snap := reg.Snapshot()
	wantGauges := map[string]float64{
		"odmrp.fg_size":                  float64(forwarders),
		"odmrp.rounds":                   float64(h.ForwarderState) - snap.Gauges["odmrp.dup_windows"],
		"linkquality.table_entries":      float64(entries),
		"linkquality.probe_bytes_warmup": float64(probe - h.ProbeBytes),
		"sim.events":                     float64(h.Events),
		"sim.events_in_place":            float64(w.Engine.InPlace),
	}
	for name, want := range wantGauges {
		if got, ok := snap.Gauges[name]; !ok || got != want || want == 0 {
			t.Errorf("gauge %s = %v (registered %v), want %v (nonzero)", name, got, ok, want)
		}
	}
	if got := snap.Counters["stats.data_bytes_received"]; got != h.Summary.DataBytesReceived || got == 0 {
		t.Errorf("stats.data_bytes_received = %d, summary says %d", got, h.Summary.DataBytesReceived)
	}
	if _, ok := snap.Gauges["odmrp.dup_windows"]; !ok {
		t.Error("gauge odmrp.dup_windows not registered")
	}
}

// TestExportedCountersAreNodeSums runs each protocol on a five-node line that
// exercises every counted occurrence — two sources (an MCST core election), a
// crash and restart, a moved radio, packet-pair probing, unicasts that are
// delivered, time out and exhaust their retries, an overflowing queue — and
// requires every name under `counters` to equal the sum over the nodes of
// the field behind it, to be non-zero, and to be listed here.
func TestExportedCountersAreNodeSums(t *testing.T) {
	kernel := func(field func(multicast.Stats) uint64) func(*node.Node) uint64 {
		return func(n *node.Node) uint64 { return field(n.Router.Counters()) }
	}
	fields := map[string]func(*node.Node) uint64{
		"phy.frames_sent":              func(n *node.Node) uint64 { return n.Radio.Stats.FramesSent },
		"phy.frames_delivered":         func(n *node.Node) uint64 { return n.Radio.Stats.FramesDelivered },
		"phy.collisions":               func(n *node.Node) uint64 { return n.Radio.Stats.Collisions },
		"phy.capture_wins":             func(n *node.Node) uint64 { return n.Radio.Stats.CaptureWins },
		"phy.below_threshold":          func(n *node.Node) uint64 { return n.Radio.Stats.BelowThreshold },
		"phy.half_duplex_loss":         func(n *node.Node) uint64 { return n.Radio.Stats.HalfDuplexLoss },
		"phy.radio_down_drops":         func(n *node.Node) uint64 { return n.Radio.Stats.RadioDownDrops },
		"phy.radio_moves":              func(n *node.Node) uint64 { return n.Radio.Stats.RadioMoves },
		"mac.backoffs":                 func(n *node.Node) uint64 { return n.MAC.Stats.Backoffs },
		"mac.retries":                  func(n *node.Node) uint64 { return n.MAC.Stats.Retries },
		"mac.cts_timeouts":             func(n *node.Node) uint64 { return n.MAC.Stats.CTSTimeouts },
		"mac.ack_timeouts":             func(n *node.Node) uint64 { return n.MAC.Stats.AckTimeouts },
		"mac.retry_drops":              func(n *node.Node) uint64 { return n.MAC.Stats.RetryDrops },
		"mac.enqueued":                 func(n *node.Node) uint64 { return n.MAC.Stats.Enqueued },
		"mac.queue_drops":              func(n *node.Node) uint64 { return n.MAC.Stats.QueueDrops },
		"mac.broadcasts_sent":          func(n *node.Node) uint64 { return n.MAC.Stats.BroadcastsSent },
		"mac.unicasts_sent":            func(n *node.Node) uint64 { return n.MAC.Stats.UnicastsSent },
		"mac.bytes_sent":               func(n *node.Node) uint64 { return n.MAC.Stats.BytesSent },
		"linkquality.probes_sent":      func(n *node.Node) uint64 { return n.Prober.Stats.ProbesSent },
		"linkquality.probe_bytes_sent": func(n *node.Node) uint64 { return n.Prober.Stats.BytesSent },
		"linkquality.probes_received":  func(n *node.Node) uint64 { return n.Table.Stats.ProbesReceived },
		"linkquality.ewma_updates":     func(n *node.Node) uint64 { return n.Table.Stats.EWMAUpdates },
	}
	protocols := map[string]map[string]func(*node.Node) uint64{
		"odmrp": {
			"odmrp.queries_originated":    kernel(func(s multicast.Stats) uint64 { return s.FloodsOriginated }),
			"odmrp.queries_forwarded":     kernel(func(s multicast.Stats) uint64 { return s.FloodsForwarded }),
			"odmrp.dup_queries_forwarded": kernel(func(s multicast.Stats) uint64 { return s.DupFloodsForwarded }),
			"odmrp.replies_sent":          kernel(func(s multicast.Stats) uint64 { return s.GraftsSent }),
			"odmrp.control_bytes":         kernel(func(s multicast.Stats) uint64 { return s.ControlBytesSent }),
			"odmrp.data_originated":       kernel(func(s multicast.Stats) uint64 { return s.DataOriginated }),
			"odmrp.data_forwarded":        kernel(func(s multicast.Stats) uint64 { return s.DataForwarded }),
			"odmrp.data_delivered":        kernel(func(s multicast.Stats) uint64 { return s.DataDelivered }),
			"odmrp.dup_suppressed":        kernel(func(s multicast.Stats) uint64 { return s.DataDuplicates }),
			"odmrp.reply_retransmits":     func(n *node.Node) uint64 { return n.Router.(*odmrp.Router).ReplyRetransmits },
		},
		"mcst": {
			"mcst.announces_originated":    kernel(func(s multicast.Stats) uint64 { return s.FloodsOriginated }),
			"mcst.announces_forwarded":     kernel(func(s multicast.Stats) uint64 { return s.FloodsForwarded }),
			"mcst.dup_announces_forwarded": kernel(func(s multicast.Stats) uint64 { return s.DupFloodsForwarded }),
			"mcst.joins_sent":              kernel(func(s multicast.Stats) uint64 { return s.GraftsSent }),
			"mcst.control_bytes":           kernel(func(s multicast.Stats) uint64 { return s.ControlBytesSent }),
			"mcst.data_originated":         kernel(func(s multicast.Stats) uint64 { return s.DataOriginated }),
			"mcst.data_forwarded":          kernel(func(s multicast.Stats) uint64 { return s.DataForwarded }),
			"mcst.data_delivered":          kernel(func(s multicast.Stats) uint64 { return s.DataDelivered }),
			"mcst.dup_suppressed":          kernel(func(s multicast.Stats) uint64 { return s.DataDuplicates }),
			"mcst.core_handovers":          func(n *node.Node) uint64 { return n.Router.(*mcst.Router).CoreHandovers },
		},
	}
	for proto, own := range protocols {
		t.Run(proto, func(t *testing.T) {
			cfg := node.DefaultConfig(metric.PP)
			cfg.Protocol = proto
			if proto == "odmrp" {
				params := odmrp.DefaultParams()
				params.ReplyRetries = 2
				cfg.Tuning = &params
			}
			w := New(Config{Seed: 1, Node: cfg, PayloadBytes: 512, SendInterval: 50 * time.Millisecond})
			reg := telemetry.NewRegistry()
			w.Instrument(reg)
			for i := 0; i < 5; i++ {
				if _, err := w.AddNode(packet.NodeID(i), geom.Point{X: float64(i) * 150}); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range []packet.NodeID{1, 2, 3} {
				if err := w.Join(m, 1); err != nil {
					t.Fatal(err)
				}
			}
			// The higher-ID source starts first, so under MCST it is adopted
			// as core and then displaced.
			for _, src := range []packet.NodeID{4, 0} {
				if _, err := w.AddSource(src, 1, time.Duration(14-src)*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			nodes := w.Nodes()
			unicast := func(from int, to packet.NodeID, bytes int) {
				nodes[from].MAC.SendUnicast(&packet.Packet{Kind: packet.TypeData, Src: packet.NodeID(from), PayloadBytes: bytes}, to)
			}
			w.Engine.At(5*time.Second, func() {
				unicast(0, 1, 512) // RTS/CTS, acknowledged
				unicast(1, 9, 512) // nobody answers the RTS: retried, then dropped
				unicast(2, 9, 64)  // below the RTS threshold: the ACK never comes
				for i := 0; i < 70; i++ {
					unicast(3, 4, 64) // five more than the queue holds
				}
			})
			w.Engine.At(14*time.Second, nodes[2].Fail)
			w.Engine.At(17*time.Second, nodes[2].Restore)
			w.Engine.At(18*time.Second, func() { w.Medium.MoveRadio(nodes[4].Radio, geom.Point{X: 590}) })
			w.Engine.Run(25 * time.Second)

			fields := maps.Clone(fields)
			maps.Copy(fields, own)
			counters := reg.Snapshot().Counters
			for name, field := range fields {
				got, ok := counters[name]
				if want := sum(w, field); !ok || got != want || want == 0 {
					t.Errorf("%s = %d (exported %v), the node fields sum to %d (want non-zero)", name, got, ok, want)
				}
			}
			for name := range counters {
				if _, ok := fields[name]; !ok && name != "stats.data_bytes_received" {
					t.Errorf("%s is exported but has no line in this test", name)
				}
			}
		})
	}
}

// TestLateAdditions adds a node, a member and a source while the clock is
// running: each starts from there.
func TestLateAdditions(t *testing.T) {
	w := line(t, 2, nil)
	w.Engine.Run(10 * time.Second)
	late, err := w.AddNode(2, geom.Point{X: 400})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Join(2, 1); err != nil {
		t.Fatal(err)
	}
	cbr, err := w.AddSource(0, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.Engine.Run(10*time.Second + 900*time.Millisecond)
	if cbr.Sent != 0 {
		t.Errorf("a flow added at 10 s with a 1 s offset sent %d packets by 10.9 s", cbr.Sent)
	}
	w.Engine.Run(30 * time.Second)
	if late.Prober.Stats.BytesSent == 0 {
		t.Error("a node added at 10 s never probed")
	}
	if s := w.Harvest().Summary; s.PacketsSent == 0 || s.PDR < 0.9 {
		t.Errorf("late member on a clean line: %+v", s)
	}
}
