package world

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/node"
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
