package emu

import (
	"net"
	"sync"
	"testing"
	"time"

	"meshcast/internal/packet"
)

// fakeClients registers n fake clients (IDs 1..n) directly in the ether's
// table so decide() can be exercised without sockets.
func fakeClients(e *Ether, n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id := 1; id <= n; id++ {
		e.clients[packet.NodeID(id)] = &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 10000 + id}
	}
}

// decision flattens one frame's decide() outcome for comparison.
type decision struct {
	delays  []time.Duration
	dups    []bool
	dropped int
}

func decideFrames(e *Ether, frames int) []decision {
	out := make([]decision, 0, frames)
	for i := 0; i < frames; i++ {
		e.mu.Lock()
		dels, dropped := e.decide(1, e.snapshotTargets(1))
		e.mu.Unlock()
		d := decision{dropped: dropped}
		for _, del := range dels {
			d.delays = append(d.delays, del.delay)
			d.dups = append(d.dups, del.dup)
		}
		out = append(out, d)
	}
	return out
}

// TestEtherDecideDeterministic is the fixed-seed regression for the fan-out
// path: two ethers with the same seed and link configuration must make an
// identical sequence of drop/delay/duplicate decisions. This locks in the
// ID-sorted target iteration — map-order iteration would consume RNG draws
// in a different order every run.
func TestEtherDecideDeterministic(t *testing.T) {
	mk := func() *Ether {
		links := NewLinkTable(0.6)
		links.Set(1, 3, 0.3)
		links.SetProfile(1, 4, LinkProfile{DF: 0.9, Delay: time.Millisecond, Jitter: 4 * time.Millisecond, DupProb: 0.2})
		e, err := NewEther("127.0.0.1:0", links, 42)
		if err != nil {
			t.Fatal(err)
		}
		fakeClients(e, 6)
		return e
	}
	a := mk()
	defer a.Close()
	b := mk()
	defer b.Close()

	da := decideFrames(a, 200)
	db := decideFrames(b, 200)
	for i := range da {
		if da[i].dropped != db[i].dropped || len(da[i].delays) != len(db[i].delays) {
			t.Fatalf("frame %d diverged: %+v vs %+v", i, da[i], db[i])
		}
		for j := range da[i].delays {
			if da[i].delays[j] != db[i].delays[j] || da[i].dups[j] != db[i].dups[j] {
				t.Fatalf("frame %d delivery %d diverged: %+v vs %+v", i, j, da[i], db[i])
			}
		}
	}
}

// TestSnapshotTargetsSorted pins the determinism precondition directly.
func TestSnapshotTargetsSorted(t *testing.T) {
	e, err := NewEther("127.0.0.1:0", NewLinkTable(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fakeClients(e, 9)
	e.mu.Lock()
	targets := e.snapshotTargets(5)
	e.mu.Unlock()
	if len(targets) != 8 {
		t.Fatalf("targets = %d, want 8 (sender excluded)", len(targets))
	}
	for i := 1; i < len(targets); i++ {
		if targets[i-1].id >= targets[i].id {
			t.Fatalf("targets not sorted: %v then %v", targets[i-1].id, targets[i].id)
		}
	}
}

func TestDecideProfiles(t *testing.T) {
	links := NewLinkTable(1)
	links.SetProfile(1, 2, LinkProfile{DF: 1, Delay: 5 * time.Millisecond})
	links.SetProfile(1, 3, LinkProfile{DF: 1, Delay: 5 * time.Millisecond, Jitter: 10 * time.Millisecond})
	links.SetProfile(1, 4, LinkProfile{DF: 1, DupProb: 1})
	links.SetProfile(1, 5, LinkProfile{DF: 0})
	e, err := NewEther("127.0.0.1:0", links, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fakeClients(e, 5)

	for i := 0; i < 50; i++ {
		e.mu.Lock()
		dels, dropped := e.decide(1, e.snapshotTargets(1))
		e.mu.Unlock()
		if dropped != 1 {
			t.Fatalf("dropped = %d, want 1 (the DF-0 link)", dropped)
		}
		if len(dels) != 3 {
			t.Fatalf("deliveries = %d, want 3", len(dels))
		}
		// decide preserves target order: 2 (fixed delay), 3 (jittered), 4 (dup).
		if dels[0].delay != 5*time.Millisecond {
			t.Fatalf("fixed delay = %v", dels[0].delay)
		}
		if dels[1].delay < 5*time.Millisecond || dels[1].delay >= 15*time.Millisecond {
			t.Fatalf("jittered delay = %v, want [5ms, 15ms)", dels[1].delay)
		}
		if !dels[2].dup {
			t.Fatal("DupProb 1 delivery not duplicated")
		}
		if dels[0].dup || dels[1].dup {
			t.Fatal("unexpected duplicate on non-dup links")
		}
	}
}

func TestPartitionMask(t *testing.T) {
	links := NewLinkTable(1)
	links.SetPartition([]packet.NodeID{1, 2})
	if !links.Partitioned(1, 3) || !links.Partitioned(3, 2) {
		t.Fatal("cross-cut pairs not partitioned")
	}
	if links.Partitioned(1, 2) || links.Partitioned(3, 4) {
		t.Fatal("same-side pairs partitioned")
	}
	links.ClearPartition()
	if links.Partitioned(1, 3) {
		t.Fatal("partition survived ClearPartition")
	}
}

func TestShapeAllPreservesDF(t *testing.T) {
	links := NewLinkTable(0.8)
	links.Set(1, 2, 0.5)
	links.ShapeAll(2*time.Millisecond, time.Millisecond, 0.1)
	if p := links.Profile(1, 2); p.DF != 0.5 || p.Delay != 2*time.Millisecond || p.DupProb != 0.1 {
		t.Fatalf("shaped explicit link = %+v", p)
	}
	if p := links.Profile(3, 4); p.DF != 0.8 || p.Jitter != time.Millisecond {
		t.Fatalf("shaped default = %+v", p)
	}
	// Setting a DF later keeps the shaping.
	links.Set(1, 2, 0.9)
	if p := links.Profile(1, 2); p.DF != 0.9 || p.Delay != 2*time.Millisecond {
		t.Fatalf("Set clobbered shaping: %+v", p)
	}
}

// TestEtherDelayAndDuplicationLive exercises the shaped path over real
// sockets: a 40 ms link delays frames by at least that much, and a DupProb-1
// link delivers every frame twice.
func TestEtherDelayAndDuplicationLive(t *testing.T) {
	links := NewLinkTable(1)
	links.SetProfile(1, 2, LinkProfile{DF: 1, Delay: 40 * time.Millisecond})
	links.SetProfile(1, 3, LinkProfile{DF: 1, DupProb: 1})
	ether, err := NewEther("127.0.0.1:0", links, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer ether.Close()

	var mu sync.Mutex
	var arrivals2 []time.Time
	var got3 int
	mkConn := func(id packet.NodeID, on func()) *NodeConn {
		c, err := Dial(id, ether.Addr(), still)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if on != nil {
			c.SetOnPacket(func(*packet.Packet, packet.NodeID) { on() })
		}
		return c
	}
	c1 := mkConn(1, nil)
	mkConn(2, func() { mu.Lock(); arrivals2 = append(arrivals2, time.Now()); mu.Unlock() })
	mkConn(3, func() { mu.Lock(); got3++; mu.Unlock() })

	sendAt := time.Now()
	if !c1.Send(&packet.Packet{Kind: packet.TypeData, Src: 1, Seq: 1}) {
		t.Fatal("send failed")
	}
	waitFor(t, 2*time.Second, "delayed + duplicated delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(arrivals2) >= 1 && got3 >= 2
	})
	mu.Lock()
	defer mu.Unlock()
	if d := arrivals2[0].Sub(sendAt); d < 40*time.Millisecond {
		t.Fatalf("frame arrived after %v, want >= 40ms", d)
	}
	if got3 != 2 {
		t.Fatalf("dup link delivered %d copies, want 2", got3)
	}
	s := ether.Stats()
	if s.FramesDup != 1 {
		t.Fatalf("FramesDup = %d, want 1", s.FramesDup)
	}
}

// TestEtherCloseCancelsDelayedFrames: Close with deliveries still queued on
// timers must not leak goroutines or write to the closed socket.
func TestEtherCloseCancelsDelayedFrames(t *testing.T) {
	links := NewLinkTable(1)
	links.SetDefaultProfile(LinkProfile{DF: 1, Delay: 5 * time.Second})
	ether, err := NewEther("127.0.0.1:0", links, 5)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := Dial(1, ether.Addr(), still)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(2, ether.Addr(), still)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	waitFor(t, 2*time.Second, "registrations", func() bool {
		return hasClient(ether, 1) && hasClient(ether, 2)
	})
	for i := 0; i < 10; i++ {
		c1.Send(&packet.Packet{Kind: packet.TypeData, Src: 1, Seq: uint32(i)})
	}
	waitFor(t, 2*time.Second, "frames accepted", func() bool { return ether.Stats().FramesIn >= 10 })
	done := make(chan error, 1)
	go func() { done <- ether.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close blocked on pending delayed frames")
	}
}
