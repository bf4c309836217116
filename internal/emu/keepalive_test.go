package emu

import (
	"context"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
)

// deafEther is a plain UDP listener standing in for the ether: it reads
// registrations and acknowledges one only when the test says so.
type deafEther struct {
	t    *testing.T
	conn *net.UDPConn
}

func listenDeaf(t *testing.T) *deafEther {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &deafEther{t: t, conn: conn}
}

// registration reads the next datagram, which must be node id's
// registration, and returns where it came from.
func (e *deafEther) registration(id packet.NodeID) *net.UDPAddr {
	e.t.Helper()
	var buf [16]byte
	e.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, from, err := e.conn.ReadFromUDP(buf[:])
	if err != nil {
		e.t.Fatalf("no registration datagram: %v", err)
	}
	if n != 3 || buf[0] != msgRegister || packet.NodeID(binary.BigEndian.Uint16(buf[1:3])) != id {
		e.t.Fatalf("datagram % x is not node %v's registration", buf[:n], id)
	}
	return from
}

// ack acknowledges c's registration and waits for c to have read it.
func (e *deafEther) ack(c *steppedConn, to *net.UDPAddr) {
	e.t.Helper()
	ack := [3]byte{msgRegAck}
	binary.BigEndian.PutUint16(ack[1:], uint16(c.id))
	if _, err := e.conn.WriteToUDP(ack[:], to); err != nil {
		e.t.Fatal(err)
	}
	waitFor(e.t, 2*time.Second, "the ack to be read", c.acked.Load)
}

// nextRegistration checks that the keepalive's next event is due step after
// the previous registration, stretched by at most a quarter, runs the engine
// up to it and reads the datagram it sent. It returns the event's time.
func (e *deafEther) nextRegistration(c *steppedConn, prev, step time.Duration) time.Duration {
	e.t.Helper()
	at, ok := c.engine.PeekNext()
	if !ok {
		e.t.Fatal("the keepalive left no event on the engine")
	}
	if gap := at - prev; gap < step || gap > step+step/4 {
		e.t.Fatalf("registration after %v came %v later, want %v plus at most a quarter", prev, gap, step)
	}
	c.runTo(at)
	e.registration(c.id)
	return at
}

// TestKeepaliveVirtualTime pins the registration schedule on a stepped
// engine: capped exponential backoff while nothing acknowledges, a steady
// refresh once something does, and back to the start of the backoff when the
// acks stop.
func TestKeepaliveVirtualTime(t *testing.T) {
	ether := listenDeaf(t)
	c := dialStepped(t, 7, ether.conn.LocalAddr().String(), 42)
	from := ether.registration(7) // Dial's own, before any engine step
	if c.Registered() {
		t.Fatal("registered before any ack")
	}

	var at time.Duration
	for _, step := range []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 2000 * ms, 2000 * ms} {
		at = ether.nextRegistration(c, at, step)
	}
	if c.Registered() {
		t.Fatal("registered though no registration was acknowledged")
	}

	// The wait after a registration is chosen when it is sent, so the first
	// ack shows in the wait after the next one.
	ether.ack(c, from)
	at = ether.nextRegistration(c, at, 2000*ms)
	for i := 0; i < 3; i++ {
		if !c.Registered() {
			t.Fatalf("not registered at %v, within a refresh of an ack", at)
		}
		ether.ack(c, from)
		at = ether.nextRegistration(c, at, 1000*ms)
	}

	// Acks stop: the refresh in flight goes unanswered, and the schedule
	// drops back to the first backoff step.
	for _, step := range []time.Duration{1000 * ms, 100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms} {
		at = ether.nextRegistration(c, at, step)
	}
	if c.Registered() {
		t.Fatalf("still registered at %v, over %v after the last ack", at, regRefresh+regRetryMax)
	}
}

// TestKeepaliveScheduleIsSeeded: the jitter comes from the engine's seeded
// source, so one seed gives one schedule and another seed another.
func TestKeepaliveScheduleIsSeeded(t *testing.T) {
	schedule := func(seed uint64) (times []time.Duration) {
		ether := listenDeaf(t)
		c := dialStepped(t, 3, ether.conn.LocalAddr().String(), seed)
		ether.registration(3)
		var at time.Duration
		for _, step := range []time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms} {
			at = ether.nextRegistration(c, at, step)
			times = append(times, at)
		}
		return times
	}
	a, b, other := schedule(9), schedule(9), schedule(10)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, other) {
		t.Fatalf("seeds 9 and 10 gave the same schedule %v", a)
	}
}

// TestDialSendsTheFirstRegistration: no engine and no driver exists here, so
// only Dial itself can have put the client in the ether's table.
func TestDialSendsTheFirstRegistration(t *testing.T) {
	ether, err := NewEther("127.0.0.1:0", NewLinkTable(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ether.Close()
	c, err := Dial(4, ether.Addr(), still)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, 2*time.Second, "the ether to list the client", func() bool { return hasClient(ether, 4) })
	waitFor(t, 2*time.Second, "the ack", c.Registered)
}

// TestRunningDaemonOwnsTwoGoroutines: the driver that runs it and the
// socket's receive loop. The keepalive, like every other timer of a daemon,
// is an event on the driver's engine.
func TestRunningDaemonOwnsTwoGoroutines(t *testing.T) {
	ether, err := NewEther("127.0.0.1:0", NewLinkTable(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ether.Close()
	settled := leakCheck(t)
	base := runtime.NumGoroutine()

	d, err := NewDaemon(DaemonConfig{ID: 1, EtherAddr: ether.Addr(), Metric: metric.SPP, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Run(ctx)
	}()
	waitFor(t, 5*time.Second, "the daemon to run registered", func() bool { return d.Registered() && d.driver.Now() > 0 })
	if got := runtime.NumGoroutine() - base; got != 2 {
		t.Errorf("a running daemon owns %d goroutines, want 2 (driver, receive)", got)
	}
	cancel()
	<-done
	d.Close()
	settled()
}
