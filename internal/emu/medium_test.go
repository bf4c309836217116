package emu

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"meshcast/internal/packet"
)

// TestMediumAcrossGenerations: the address picked by the first bind, the
// counters and the impairment hook all survive a Stop/Start, and both are
// no-ops when there is nothing to do.
func TestMediumAcrossGenerations(t *testing.T) {
	var hookCalls atomic.Int64
	m, err := NewMedium("127.0.0.1:0", NewLinkTable(1), 1, func(_, _ packet.NodeID) float64 {
		hookCalls.Add(1)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	addr := m.Addr()

	var got atomic.Int64
	sender, err := Dial(1, addr, still)
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	receiver, err := Dial(2, addr, still)
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	receiver.SetOnPacket(func(*packet.Packet, packet.NodeID) { got.Add(1) })

	deliver := func(generation string) {
		t.Helper()
		before, calls := got.Load(), hookCalls.Load()
		sender.Send(&packet.Packet{Kind: packet.TypeData, Src: 1})
		waitFor(t, 2*time.Second, "a frame through the "+generation+" generation", func() bool { return got.Load() > before })
		if hookCalls.Load() == calls {
			t.Fatalf("the %s generation delivered without consulting the impairment hook", generation)
		}
	}
	deliver("first")
	if err := m.Start(); err != nil || m.Stats().Registrations != 2 {
		t.Fatalf("Start while up: err %v, stats %+v — want a no-op", err, m.Stats())
	}

	if err := m.Stop(); err != nil {
		t.Fatal(err)
	}
	retired := m.Stats()
	if m.Up() || m.Clients() != nil || retired.FramesIn != 1 || retired.FramesOut != 1 {
		t.Fatalf("after Stop: up %v, clients %v, stats %+v", m.Up(), m.Clients(), retired)
	}
	if err := m.Stop(); err != nil || m.Stats() != retired {
		t.Fatalf("Stop while down: err %v, stats %+v — want a no-op", err, m.Stats())
	}
	m.Drain() // nothing to drain while down; must not block

	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if !m.Up() || m.Addr() != addr || len(m.Clients()) != 0 {
		t.Fatalf("after Start: up %v, addr %s (was %s), clients %v", m.Up(), m.Addr(), addr, m.Clients())
	}
	// No keepalive runs here: re-register by hand, as one would.
	sender.register()
	receiver.register()
	waitFor(t, 2*time.Second, "both clients back", func() bool { return len(m.Clients()) == 2 })
	deliver("second")
	if s := m.Stats(); s.FramesIn != 2 || s.FramesOut != 2 || s.Registrations != 4 {
		t.Fatalf("stats over both generations = %+v, want 2 frames in, 2 out, 4 registrations", s)
	}
}

// TestMediumConcurrentUse bounces the medium while other goroutines read it,
// the way the supervisor and control-plane requests do; run under -race.
func TestMediumConcurrentUse(t *testing.T) {
	m, err := NewMedium("127.0.0.1:0", NewLinkTable(1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					m.Stats()
					m.Clients()
					m.Up()
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := m.Stop(); err != nil {
			t.Error(err)
		}
		if err := m.Start(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	readers.Wait()
	if !m.Up() {
		t.Fatal("medium left down")
	}
}
