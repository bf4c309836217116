package emu

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/testbed"
)

// TestFleetPaperTestbedLive runs the paper's whole 8-node testbed as live
// UDP daemons for a few wall-clock seconds and checks multicast delivery
// through the forwarding groups.
func TestFleetPaperTestbedLive(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test (several seconds)")
	}
	fleet, err := NewFleet(FleetConfig{
		Scenario:     testbed.PaperScenario(),
		Metric:       metric.SPP,
		SendInterval: 25 * time.Millisecond,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	// accepted is what the run must reach. Real-time runs converge
	// unevenly — with 50%-loss links a branch can take a few 3 s ODMRP
	// refresh rounds to establish, especially on a loaded CI machine — so it
	// requires every group to deliver to at least one member and most
	// members overall, rather than demanding every branch.
	accepted := func(res FleetResult) error {
		if len(res.PerMember) != 4 {
			return fmt.Errorf("per-member rows = %v, want one per member of the two groups", res.PerMember)
		}
		for _, g := range testbed.PaperScenario().Groups {
			if n := fleet.Daemon(g.Source).SentCount(); n < 50 {
				return fmt.Errorf("source %v sent only %d packets", g.Source, n)
			}
		}
		receiving := 0
		for _, g := range testbed.PaperScenario().Groups {
			groupGot := 0
			for _, m := range res.PerMember {
				if m.Group == g.Group && m.Source == g.Source && m.PDR > 0 {
					groupGot++
					receiving++
				}
			}
			if groupGot == 0 {
				return fmt.Errorf("no member of group %v received anything from source %v", g.Group, g.Source)
			}
		}
		if receiving < 3 {
			return fmt.Errorf("only %d of 4 members receiving", receiving)
		}
		if res.Summary.PDR < 0.3 {
			return fmt.Errorf("fleet PDR = %.3f, implausibly low", res.Summary.PDR)
		}
		return nil
	}
	// The run stops as soon as that holds; 10 s is the ceiling.
	runUntil(10*time.Second, func() bool { return accepted(fleet.Result()) == nil }, fleet.Run)
	res := fleet.Result()
	if err := accepted(res); err != nil {
		t.Fatal(err)
	}
	// The run is over and no node was killed, so the book holds exactly the
	// two sources' sends (nodes 2 and 4), and only their flows.
	var sent uint64
	for _, g := range testbed.PaperScenario().Groups {
		sent += fleet.Daemon(g.Source).SentCount()
	}
	if res.Summary.PacketsSent != sent {
		t.Fatalf("book sent = %d, the sources' daemons sent %d", res.Summary.PacketsSent, sent)
	}
	flows := map[[2]int]bool{{1, 2}: true, {2, 4}: true} // (group, source)
	for _, m := range res.PerMember {
		if !flows[[2]int{int(m.Group), int(m.Source)}] {
			t.Fatalf("per-member row %v is not of flow (1,2) or (2,4)", m)
		}
	}
}

func TestFleetResultEmpty(t *testing.T) {
	f := &Fleet{book: newBook(nil, nil)}
	res := f.Result()
	if res.Summary.PDR != 0 || res.Summary.PacketsSent != 0 || len(res.PerMember) != 0 {
		t.Fatalf("empty fleet result = %+v", res)
	}
}

// TestFleetBookMatchesParentFormula drives the fleet's send and delivery
// hooks without a socket and checks the book's PDR against the formula the
// fleet computed before it booked traffic in a stats.Collector: the mean,
// over groups whose source sent and their members, of delivered/sent. The
// run has a member that receives nothing, a group whose source never sends,
// and a kill of a source between its sends. The book is keyed by node, not
// by daemon generation (a restarted daemon reuses its slot's hooks), so all
// a kill leaves in it is a gap in the source's sends; TestFleetGaugesMatchResult
// kills and restarts a real source daemon.
func TestFleetBookMatchesParentFormula(t *testing.T) {
	groups := []testbed.GroupSpec{
		{Group: 1, Source: 1, Members: []packet.NodeID{2, 3, 4}}, // 4 receives nothing
		{Group: 2, Source: 5, Members: []packet.NodeID{2, 6}},    // 5 never sends
		{Group: 3, Source: 6, Members: []packet.NodeID{3}},       // 6 is killed between sends
	}
	f := &Fleet{driver: NewDriver(1)}
	f.book = newBook(groups, f.driver.Now)
	deliver := func(member, src packet.NodeID, g packet.GroupID, n int) {
		for i := 0; i < n; i++ {
			f.recordDeliver(member, &packet.Packet{Group: g, Src: src, PayloadBytes: 512})
		}
	}
	for i := 0; i < 10; i++ {
		f.recordSend(1, 1)
	}
	deliver(2, 1, 1, 7)
	deliver(3, 1, 1, 3)
	for i := 0; i < 4; i++ {
		f.recordSend(6, 3)
	}
	deliver(3, 6, 3, 2)
	// Source 6 is killed here and its next generation resumes sending.
	for i := 0; i < 4; i++ {
		f.recordSend(6, 3)
	}
	deliver(3, 6, 3, 3)

	// The parent's formula, over its own books: packets sent per source and
	// delivered per member and source.
	sent := map[packet.NodeID]float64{1: 10, 6: 8}
	received := map[packet.NodeID]map[packet.NodeID]float64{2: {1: 7}, 3: {1: 3, 6: 5}}
	var sum float64
	var n int
	for _, g := range groups {
		if sent[g.Source] == 0 {
			continue
		}
		for _, m := range g.Members {
			sum += received[m][g.Source] / sent[g.Source]
			n++
		}
	}
	want := sum / float64(n)

	res := f.Result()
	if got := res.Summary.PDR; math.Abs(got-want) > 1e-12 {
		t.Fatalf("book PDR = %.15f, parent formula %.15f", got, want)
	}
	if res.Summary.PacketsSent != 18 || res.Summary.PacketsDelivered != 15 {
		t.Fatalf("book totals = %d sent, %d delivered, want 18 and 15", res.Summary.PacketsSent, res.Summary.PacketsDelivered)
	}
	if len(res.PerMember) != 6 {
		t.Fatalf("per-member rows = %v, want one per subscription", res.PerMember)
	}
	if exp, del := f.DeliveryEstimate(); exp != 10*3+8*1 || del != 15 {
		t.Fatalf("lock-free totals = %d expected, %d delivered, want 38 and 15", exp, del)
	}
}

// TestFleetBookConcurrentHooks feeds the book from many goroutines at once,
// as the daemons' driver goroutines do, while another reads Result: under
// -race this is the book's locking test, and the totals must add up.
func TestFleetBookConcurrentHooks(t *testing.T) {
	groups := []testbed.GroupSpec{{Group: 1, Source: 1, Members: []packet.NodeID{2, 3}}}
	chaos, err := NewChaos(ChaosConfig{Plan: faults.Plan{Outages: []faults.Outage{
		{Node: 1, Start: time.Millisecond, Duration: time.Millisecond},
	}}}, []packet.NodeID{1, 2, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &Fleet{driver: NewDriver(1)}
	f.book = newBook(groups, f.driver.Now)
	f.UseChaos(chaos)
	const perGoroutine = 200
	var wg sync.WaitGroup
	for _, member := range []packet.NodeID{2, 3} {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				f.recordSend(1, 1)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				f.recordDeliver(member, &packet.Packet{Group: 1, Src: 1, PayloadBytes: 512})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			f.Result()
		}
	}()
	wg.Wait()
	<-done
	res := f.Result()
	if res.Summary.PacketsSent != 2*perGoroutine || res.Summary.PacketsDelivered != 2*perGoroutine {
		t.Fatalf("book totals = %d sent, %d delivered, want %d each", res.Summary.PacketsSent, res.Summary.PacketsDelivered, 2*perGoroutine)
	}
	if len(res.Health) != 1 || res.Health[0].SentInWindows+res.Health[0].SentOutside != 2*2*perGoroutine {
		t.Fatalf("health = %+v, want one group with every delivery opportunity", res.Health)
	}
}
