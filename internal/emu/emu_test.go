package emu

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

func TestLinkTable(t *testing.T) {
	lt := NewLinkTable(0.5)
	if got := lt.DF(1, 2); got != 0.5 {
		t.Fatalf("default DF = %v", got)
	}
	lt.Set(1, 2, 0.9)
	if got := lt.DF(1, 2); got != 0.9 {
		t.Fatalf("DF(1,2) = %v", got)
	}
	if got := lt.DF(2, 1); got != 0.5 {
		t.Fatalf("reverse not defaulted: %v", got)
	}
	lt.SetSymmetric(3, 4, 0.7)
	if lt.DF(3, 4) != 0.7 || lt.DF(4, 3) != 0.7 {
		t.Fatal("SetSymmetric did not set both directions")
	}
}

func TestEtherBroadcastFanOut(t *testing.T) {
	ether, err := NewEther("127.0.0.1:0", NewLinkTable(1.0), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ether.Close()

	var mu sync.Mutex
	received := map[packet.NodeID][]packet.NodeID{} // receiver -> senders seen
	var conns []*NodeConn
	for id := packet.NodeID(1); id <= 3; id++ {
		id := id
		c, err := Dial(id, ether.Addr(), still)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetOnPacket(func(p *packet.Packet, from packet.NodeID) {
			mu.Lock()
			received[id] = append(received[id], from)
			mu.Unlock()
		})
		conns = append(conns, c)
	}
	// Dial sent each registration before it returned, so the ether reads all
	// three ahead of the frame.

	if !conns[0].Send(&packet.Packet{Kind: packet.TypeData, Src: 1, Seq: 7, PayloadBytes: 100}) {
		t.Fatal("send failed")
	}
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		got2, got3 := len(received[2]), len(received[3])
		got1 := len(received[1])
		mu.Unlock()
		if got2 == 1 && got3 == 1 {
			if got1 != 0 {
				t.Fatal("sender received its own frame")
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("fan-out incomplete: n2=%d n3=%d", got2, got3)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestEtherAppliesLoss(t *testing.T) {
	links := NewLinkTable(1.0)
	links.Set(1, 2, 0.0) // 1 -> 2 totally dead
	ether, err := NewEther("127.0.0.1:0", links, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ether.Close()

	var mu sync.Mutex
	var got2, got3 int
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
	c2.SetOnPacket(func(*packet.Packet, packet.NodeID) { mu.Lock(); got2++; mu.Unlock() })
	c3, err := Dial(3, ether.Addr(), still)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	c3.SetOnPacket(func(*packet.Packet, packet.NodeID) { mu.Lock(); got3++; mu.Unlock() })

	for i := 0; i < 20; i++ {
		c1.Send(&packet.Packet{Kind: packet.TypeData, Src: 1, Seq: uint32(i)})
	}
	time.Sleep(300 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if got2 != 0 {
		t.Fatalf("dead link delivered %d frames", got2)
	}
	if got3 != 20 {
		t.Fatalf("clean link delivered %d of 20", got3)
	}
}

func TestNodeConnCloseIdempotent(t *testing.T) {
	ether, err := NewEther("127.0.0.1:0", NewLinkTable(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ether.Close()
	c, err := Dial(1, ether.Addr(), still)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != ErrClosed {
		t.Fatalf("second close = %v, want ErrClosed", err)
	}
	if c.Send(&packet.Packet{Kind: packet.TypeData}) {
		t.Fatal("send on closed conn succeeded")
	}
}

func TestDriverRunsScheduledEvents(t *testing.T) {
	d := NewDriver(1)
	var mu sync.Mutex
	fired := 0
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	d.Engine().Schedule(30*time.Millisecond, func() { mu.Lock(); fired++; mu.Unlock() })
	d.Engine().Schedule(60*time.Millisecond, func() { mu.Lock(); fired++; mu.Unlock(); cancel() })
	if d.Now() != 0 {
		t.Fatalf("Now = %v before Run, want 0", d.Now())
	}
	d.Run(ctx)
	if now := d.Now(); now < 60*time.Millisecond {
		t.Fatalf("Now = %v after the 60ms event fired", now)
	}
	mu.Lock()
	defer mu.Unlock()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestDriverInjection(t *testing.T) {
	d := NewDriver(1)
	var mu sync.Mutex
	var order []string
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	d.Engine().Schedule(50*time.Millisecond, func() { mu.Lock(); order = append(order, "timer"); mu.Unlock(); cancel() })
	go func() {
		time.Sleep(10 * time.Millisecond)
		d.Inject(func() { mu.Lock(); order = append(order, "inject"); mu.Unlock() })
	}()
	d.Run(ctx)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "inject" || order[1] != "timer" {
		t.Fatalf("order = %v, want [inject timer]", order)
	}
}

// TestDriverInjectReturnsOnceRunHasExited: nothing drains the queue after
// Run returns, so an Inject that finds it full must give up instead of
// blocking its caller (a NodeConn receive goroutine that Close waits for)
// forever.
func TestDriverInjectReturnsOnceRunHasExited(t *testing.T) {
	d := NewDriver(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.Run(ctx)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 300; i++ { // more than the queue holds
			d.Inject(func() {})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Inject blocked on a driver whose Run has returned")
	}
	if d.Inject(func() {}) {
		t.Fatal("Inject reported a callback queued on a driver whose Run has returned")
	}
}

// still is the run clock of a connection no engine drives: always zero.
func still() time.Duration { return 0 }

// steppedConn is a connection whose keepalive runs on an engine the test
// steps by hand. The receive goroutine stamps acks with the connection's
// clock, so the engine's time is mirrored into an atomic after every step.
type steppedConn struct {
	*NodeConn
	engine *sim.Engine
	clock  atomic.Int64
}

func dialStepped(t *testing.T, id packet.NodeID, addr string, seed uint64) *steppedConn {
	t.Helper()
	sc := &steppedConn{engine: sim.NewEngine(seed)}
	c, err := Dial(id, addr, func() time.Duration { return time.Duration(sc.clock.Load()) })
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sc.NodeConn = c
	c.keepAlive(sc.engine, sc.engine.RNG())
	return sc
}

// runTo runs the engine up to virtual time at.
func (sc *steppedConn) runTo(at time.Duration) {
	sc.clock.Store(int64(sc.engine.Run(at)))
}

// runUntil runs the blocking run function on a context it cancels as soon
// as done reports true, or at ceiling.
func runUntil(ceiling time.Duration, done func() bool, run func(ctx context.Context)) {
	ctx, cancel := context.WithTimeout(context.Background(), ceiling)
	defer cancel()
	go func() {
		for ctx.Err() == nil {
			if done() {
				cancel()
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	run(ctx)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func hasClient(e *Ether, id packet.NodeID) bool {
	for _, c := range e.Clients() {
		if c == id {
			return true
		}
	}
	return false
}

func TestNodeConnReregistersAfterEtherRestart(t *testing.T) {
	ether, err := NewEther("127.0.0.1:0", NewLinkTable(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	addr := ether.Addr()
	c := dialStepped(t, 5, addr, 5)
	waitFor(t, 2*time.Second, "initial registration", func() bool { return hasClient(ether, 5) })
	waitFor(t, 2*time.Second, "registration ack", c.Registered)

	if err := ether.Close(); err != nil {
		t.Fatal(err)
	}
	// A new ether on the same port has an empty client table; the daemon's
	// periodic re-registration must repopulate it without any help.
	ether2, err := NewEther(addr, NewLinkTable(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ether2.Close()
	waitFor(t, 3*time.Second, "re-registration with restarted ether", func() bool {
		c.runTo(c.engine.Now() + 100*time.Millisecond)
		return hasClient(ether2, 5)
	})
}

// TestDaemonReconnectsAfterEtherRestart kills the ether mid-session and
// brings a fresh one up on the same port: both daemons must re-register and
// delivery must resume.
func TestDaemonReconnectsAfterEtherRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	ether, err := NewEther("127.0.0.1:0", NewLinkTable(1), 7)
	if err != nil {
		t.Fatal(err)
	}
	addr := ether.Addr()

	mk := func(cfg DaemonConfig) *Daemon {
		cfg.EtherAddr = addr
		cfg.Metric = metric.SPP
		cfg.SendInterval = 20 * time.Millisecond
		d, err := NewDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	src := mk(DaemonConfig{ID: 1, SourceGroups: []packet.GroupID{9}, Seed: 1})
	sink := mk(DaemonConfig{ID: 2, JoinGroups: []packet.GroupID{9}, Seed: 2})
	defer src.Close()
	defer sink.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, d := range []*Daemon{src, sink} {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Run(ctx)
		}()
	}

	waitFor(t, 5*time.Second, "initial delivery", func() bool { return sink.DeliveredCount() >= 5 })

	if err := ether.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // outage: sends go nowhere
	before := sink.DeliveredCount()

	ether2, err := NewEther(addr, NewLinkTable(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer ether2.Close()

	waitFor(t, 5*time.Second, "delivery to resume after ether restart", func() bool {
		return sink.DeliveredCount() >= before+5
	})
	cancel()
	wg.Wait()
}

// TestDaemonEndToEnd runs a real three-daemon multicast session over
// loopback UDP: source 1 — relay 2 — receiver 3, with the 1-3 link dead so
// delivery requires the forwarding group at node 2.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time test")
	}
	links := NewLinkTable(1.0)
	links.SetSymmetric(1, 3, 0) // force two-hop topology
	ether, err := NewEther("127.0.0.1:0", links, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer ether.Close()

	mk := func(cfg DaemonConfig) *Daemon {
		cfg.EtherAddr = ether.Addr()
		cfg.Metric = metric.SPP
		cfg.SendInterval = 20 * time.Millisecond
		d, err := NewDaemon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	src := mk(DaemonConfig{ID: 1, SourceGroups: []packet.GroupID{9}, Seed: 1})
	relay := mk(DaemonConfig{ID: 2, Seed: 2})
	var stray atomic.Int64 // deliveries from any (group, source) but (9, 1)
	sink := mk(DaemonConfig{ID: 3, JoinGroups: []packet.GroupID{9}, Seed: 3,
		OnDeliver: func(p *packet.Packet) {
			if p.Group != 9 || p.Src != 1 {
				stray.Add(1)
			}
		}})
	defer src.Close()
	defer relay.Close()
	defer sink.Close()

	// The relay must have become a forwarder for delivery to happen at all
	// (the direct link is dead); expect the majority of packets through.
	// The run stops as soon as that holds; 3 s is the ceiling.
	through := func() bool {
		sent, got := src.SentCount(), sink.DeliveredCount()
		return got >= 20 && float64(got) >= 0.5*float64(sent)
	}
	runUntil(3*time.Second, through, func(ctx context.Context) {
		var wg sync.WaitGroup
		for _, d := range []*Daemon{src, relay, sink} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.Run(ctx)
			}()
		}
		wg.Wait()
	})

	sent, got := src.SentCount(), sink.DeliveredCount()
	if sent == 0 {
		t.Fatal("source sent nothing")
	}
	if got == 0 {
		t.Fatalf("receiver got nothing of %d sent (forwarding group never formed?)", sent)
	}
	if !through() {
		t.Fatalf("delivered only %d of %d", got, sent)
	}
	if n := stray.Load(); n != 0 {
		t.Fatalf("%d deliveries from a group or source other than (9, 1)", n)
	}
	if by := sink.DeliveredBySource(); len(by) != 1 || by[1] != got {
		t.Fatalf("per-source counts = %v, want all %d from source 1", by, got)
	}
}
