// Package emu provides the real-time, real-socket substrate for running the
// ODMRP daemon (cmd/odmrpd) outside the simulator, mirroring the paper's
// testbed software architecture (§5.2): a user-level daemon exchanging UDP
// broadcasts.
//
// Since an open office floor with Atheros radios is not available, the
// wireless broadcast medium is emulated by an "ether" server: every daemon
// registers with the ether over UDP, and each frame a daemon sends is
// forwarded to every other registered daemon subject to a per-link delivery
// probability. This keeps the daemons' code path identical to a broadcast
// radio network — including loss and asymmetric links — while running over
// loopback sockets in real time.
package emu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// Wire message kinds exchanged with the ether.
const (
	msgRegister byte = 'R'
	msgFrame    byte = 'F'
	msgRegAck   byte = 'A'
)

// Registration keepalive tuning. Daemons re-register with the ether on a
// schedule: unacknowledged registrations retry with capped exponential
// backoff, and acknowledged ones refresh periodically so a restarted ether
// (which lost its client table) re-learns every daemon within one refresh
// interval.
const (
	regRetryMin = 100 * time.Millisecond
	regRetryMax = 2 * time.Second
	regRefresh  = time.Second
)

// LinkTable holds per-link medium profiles (delivery probability, delay,
// jitter, duplication) for the emulated medium, plus an optional partition
// mask. Missing entries fall back to the default profile. Links are
// directional: use Set twice (or SetSymmetric) for a symmetric link. All
// methods are safe for concurrent use, so profiles can be updated while the
// ether is serving — dynamic delivery-probability changes take effect on the
// next frame.
type LinkTable struct {
	mu    sync.RWMutex
	def   LinkProfile
	links map[[2]packet.NodeID]LinkProfile
	mask  map[packet.NodeID]bool // non-nil while a partition is active
}

// NewLinkTable returns a table whose default profile delivers with
// probability defaultDF and no delay, jitter, or duplication. 1.0 gives a
// perfect shared medium; 0 disconnects unknown pairs.
func NewLinkTable(defaultDF float64) *LinkTable {
	return &LinkTable{
		def:   LinkProfile{DF: defaultDF},
		links: make(map[[2]packet.NodeID]LinkProfile),
	}
}

// Set fixes the delivery probability for the directed pair from → to,
// preserving any shaping (delay/jitter/duplication) already configured for
// the pair.
func (t *LinkTable) Set(from, to packet.NodeID, df float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]packet.NodeID{from, to}
	p, ok := t.links[key]
	if !ok {
		p = t.def
	}
	p.DF = df
	t.links[key] = p
}

// SetSymmetric fixes both directions.
func (t *LinkTable) SetSymmetric(a, b packet.NodeID, df float64) {
	t.Set(a, b, df)
	t.Set(b, a, df)
}

// DF returns the delivery probability for from → to.
func (t *LinkTable) DF(from, to packet.NodeID) float64 {
	return t.Profile(from, to).DF
}

// EtherStats counts ether activity.
type EtherStats struct {
	// FramesIn counts frames received from daemons; FramesOut counts frame
	// copies delivered (duplicated frames count twice); FramesDropped counts
	// per-target losses (Bernoulli, impairment hook, and partition drops);
	// FramesDup counts the extra copies injected by link duplication.
	FramesIn, FramesOut, FramesDropped, FramesDup uint64
	// Registrations counts registration datagrams handled (including
	// periodic refreshes).
	Registrations uint64
}

// Ether is the emulated broadcast medium: a UDP server that fans every
// received frame out to all other registered daemons, applying each link's
// profile (loss, one-way delay + jitter, duplication), the partition mask,
// and any installed impairment hook.
type Ether struct {
	links *LinkTable

	conn *net.UDPConn

	mu        sync.Mutex
	rng       *rand.Rand
	clients   map[packet.NodeID]*net.UDPAddr
	stats     EtherStats
	impair    ImpairFunc
	timers    map[uint64]*time.Timer // pending delayed deliveries
	nextTimer uint64
	closing   bool
	draining  bool

	pending sync.WaitGroup // delayed deliveries in flight
	done    chan struct{}
}

// NewEther starts an ether listening on addr (e.g. "127.0.0.1:0"). The
// returned Ether is already serving; call Close to stop it.
func NewEther(addr string, links *LinkTable, seed int64) (*Ether, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emu: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("emu: listen: %w", err)
	}
	e := &Ether{
		links:   links,
		conn:    conn,
		rng:     rand.New(rand.NewSource(seed)),
		clients: make(map[packet.NodeID]*net.UDPAddr),
		timers:  make(map[uint64]*time.Timer),
		done:    make(chan struct{}),
	}
	go e.serve()
	return e, nil
}

// Addr returns the ether's listening address.
func (e *Ether) Addr() string { return e.conn.LocalAddr().String() }

// Stats returns a snapshot of the ether counters.
func (e *Ether) Stats() EtherStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Clients returns the currently registered node IDs.
func (e *Ether) Clients() []packet.NodeID {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]packet.NodeID, 0, len(e.clients))
	for id := range e.clients {
		out = append(out, id)
	}
	return out
}

// Drain quiesces the medium for a graceful shutdown: new frames stop being
// fanned out, but deliveries already in their delay window are allowed to
// land before Drain returns. The socket stays open (the subsequent Close
// finds nothing pending to cancel) — the opposite of Close's crash
// semantics, where in-flight frames are lost like on a real restarting
// medium.
func (e *Ether) Drain() {
	e.mu.Lock()
	e.draining = true
	e.mu.Unlock()
	e.pending.Wait()
}

// Close stops the ether and waits for its serve loop and every pending
// delayed delivery to exit. Deliveries still in their delay window are
// canceled, not flushed — a restarting medium loses in-flight frames, like
// a real one. Call Drain first to flush them instead.
func (e *Ether) Close() error {
	e.mu.Lock()
	e.closing = true
	for id, t := range e.timers {
		if t.Stop() {
			// The timer had not fired: its callback will never run, so
			// release its WaitGroup slot here.
			e.pending.Done()
			delete(e.timers, id)
		}
	}
	e.mu.Unlock()
	err := e.conn.Close()
	<-e.done
	e.pending.Wait()
	return err
}

func (e *Ether) serve() {
	defer close(e.done)
	buf := make([]byte, 64*1024)
	for {
		n, from, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		if n < 3 {
			continue
		}
		kind := buf[0]
		id := packet.NodeID(binary.BigEndian.Uint16(buf[1:3]))
		switch kind {
		case msgRegister:
			e.mu.Lock()
			e.clients[id] = from
			e.stats.Registrations++
			e.mu.Unlock()
			// Acknowledge so the daemon knows it is registered and can stop
			// its retry backoff.
			ack := [3]byte{msgRegAck}
			binary.BigEndian.PutUint16(ack[1:], uint16(id))
			e.conn.WriteToUDP(ack[:], from)
		case msgFrame:
			e.fanOut(id, buf[:n])
		}
	}
}

// fanOut forwards a frame to every other client, applying each link's
// profile. All per-frame decisions (and their RNG draws) happen in one
// critical section over ID-sorted targets, so the drop/delay/dup pattern is
// a deterministic function of the seed and frame sequence — and the stats
// counters are batched into that same single lock acquisition instead of
// up to 2N+1 per frame.
func (e *Ether) fanOut(sender packet.NodeID, frame []byte) {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return
	}
	e.stats.FramesIn++
	targets := e.snapshotTargets(sender)
	dels, dropped := e.decide(sender, targets)
	e.stats.FramesDropped += uint64(dropped)
	e.mu.Unlock()

	var delayed []byte // frame copy shared by all delayed deliveries
	var sent, dups uint64
	for _, d := range dels {
		copies := 1
		if d.dup {
			copies = 2
			dups++
		}
		for i := 0; i < copies; i++ {
			if d.delay <= 0 {
				if _, err := e.conn.WriteToUDP(frame, d.addr); err == nil {
					sent++
				}
				continue
			}
			if delayed == nil {
				// The serve loop reuses its read buffer, so delayed
				// deliveries need a stable copy.
				delayed = append([]byte(nil), frame...)
			}
			e.deliverLater(d.delay, delayed, d.addr)
		}
	}
	if sent > 0 || dups > 0 {
		e.mu.Lock()
		e.stats.FramesOut += sent
		e.stats.FramesDup += dups
		e.mu.Unlock()
	}
}

// deliverLater schedules one frame delivery after the link's latency. The
// timer is tracked so Close can cancel pending deliveries without leaking
// goroutines.
func (e *Ether) deliverLater(delay time.Duration, frame []byte, addr *net.UDPAddr) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closing {
		return
	}
	id := e.nextTimer
	e.nextTimer++
	e.pending.Add(1)
	e.timers[id] = time.AfterFunc(delay, func() {
		defer e.pending.Done()
		e.mu.Lock()
		delete(e.timers, id)
		closing := e.closing
		e.mu.Unlock()
		if closing {
			return
		}
		if _, err := e.conn.WriteToUDP(frame, addr); err == nil {
			e.mu.Lock()
			e.stats.FramesOut++
			e.mu.Unlock()
		}
	})
}

// ErrClosed reports use of a closed connection.
var ErrClosed = errors.New("emu: connection closed")

// NodeConn is a daemon's connection to the ether: the socket and the one
// goroutine that reads it. It keeps no time of its own — registration acks
// are stamped with the clock Dial was given, and the keepalive that sends
// registrations is an event on the owner's engine (keepAlive).
type NodeConn struct {
	id   packet.NodeID
	conn *net.UDPConn
	now  func() time.Duration

	// onPacket is read by the receive goroutine for every decoded frame
	// and may be (re)set at any time via SetOnPacket — the receive loop
	// starts inside Dial, before the caller has had a chance to install a
	// handler, so the slot must be safe against that window.
	onPacket atomic.Pointer[func(p *packet.Packet, from packet.NodeID)]

	// lastAck is now() at the latest registration ack, -1 before the first.
	// acked is raised with it and lowered by the keepalive, which asks
	// "since my last datagram?".
	lastAck atomic.Int64
	acked   atomic.Bool

	closed chan struct{}
	done   chan struct{}
}

// Dial connects node id to the ether at addr and sends its first
// registration before returning, so a frame the caller sends next reaches an
// ether that already lists it. Keeping the registration alive is the
// caller's engine's job (Daemon.Run arms keepAlive). now is the owner's run
// clock — a Driver's Now — and must be safe from any goroutine: the receive
// goroutine stamps acks with it.
func Dial(id packet.NodeID, addr string, now func() time.Duration) (*NodeConn, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("emu: resolve %q: %w", addr, err)
	}
	conn, err := net.DialUDP("udp", nil, udpAddr)
	if err != nil {
		return nil, fmt.Errorf("emu: dial: %w", err)
	}
	nc := &NodeConn{
		id:     id,
		conn:   conn,
		now:    now,
		closed: make(chan struct{}),
		done:   make(chan struct{}),
	}
	nc.lastAck.Store(-1)
	go nc.receive()
	nc.register()
	return nc, nil
}

// SetOnPacket installs the frame handler, invoked from the receive
// goroutine for every decoded packet. The callback must be thread-safe
// (daemons inject into their real-time driver). Frames arriving before the
// first SetOnPacket are dropped.
func (c *NodeConn) SetOnPacket(fn func(p *packet.Packet, from packet.NodeID)) {
	c.onPacket.Store(&fn)
}

// register sends one registration datagram. Errors are ignored: the ether
// may be down, and the keepalive will retry.
func (c *NodeConn) register() {
	reg := [3]byte{msgRegister}
	binary.BigEndian.PutUint16(reg[1:], uint16(c.id))
	c.conn.Write(reg[:])
}

// Registered reports whether the ether has acknowledged a registration
// recently (within one retry ceiling of the refresh interval).
func (c *NodeConn) Registered() bool {
	last := time.Duration(c.lastAck.Load())
	return last >= 0 && c.now()-last < regRefresh+regRetryMax
}

// keepAlive arms the registration keepalive on engine, the owner's: a
// self-rescheduling event that re-registers after regRetryMin, 2×, 4× …
// capped at regRetryMax while the previous registration went unacknowledged,
// and every regRefresh once it was — the refresh is what heals an ether
// restart, whose new client table is empty until each daemon's next
// registration arrives, and a refresh that gets no ack drops back to the
// start of the backoff. Each wait is stretched by up to a quarter, drawn from
// rng (the engine goroutine's alone), so a fleet of daemons does not thunder
// in lockstep at a restarted ether. Dial sent the first registration; this
// schedules the ones after it.
func (c *NodeConn) keepAlive(engine *sim.Engine, rng *sim.RNG) {
	step := cappedBackoff(regRetryMin, regRetryMax)
	var arm func(wait time.Duration)
	arm = func(wait time.Duration) {
		engine.Schedule(wait+time.Duration(rng.Float64()*float64(wait/4)), func() {
			c.register()
			if c.acked.Swap(false) {
				step = cappedBackoff(regRetryMin, regRetryMax)
				arm(regRefresh)
			} else {
				arm(step())
			}
		})
	}
	arm(step())
}

// Send broadcasts a packet through the ether. Safe for use from one
// goroutine at a time (the daemon's driver goroutine).
func (c *NodeConn) Send(p *packet.Packet) bool {
	select {
	case <-c.closed:
		return false
	default:
	}
	wire, err := p.MarshalBinary()
	if err != nil {
		return false
	}
	frame := make([]byte, 3+len(wire))
	frame[0] = msgFrame
	binary.BigEndian.PutUint16(frame[1:], uint16(c.id))
	copy(frame[3:], wire)
	_, err = c.conn.Write(frame)
	return err == nil
}

func (c *NodeConn) receive() {
	defer close(c.done)
	buf := make([]byte, 64*1024)
	for {
		n, err := c.conn.Read(buf) // Close unblocks it
		if err != nil {
			select {
			case <-c.closed:
				return
			default:
			}
			// Transient: a connected UDP socket whose ether is down reads
			// ECONNREFUSED. Back off briefly so a hard error cannot spin the
			// loop.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if n < 3 {
			continue
		}
		switch buf[0] {
		case msgRegAck:
			c.lastAck.Store(int64(c.now()))
			c.acked.Store(true)
		case msgFrame:
			sender := packet.NodeID(binary.BigEndian.Uint16(buf[1:3]))
			var p packet.Packet
			if err := p.UnmarshalBinary(buf[3:n]); err != nil {
				continue
			}
			if fn := c.onPacket.Load(); fn != nil {
				(*fn)(&p, sender)
			}
		}
	}
}

// Close shuts the connection down and waits for the receive goroutine.
func (c *NodeConn) Close() error {
	select {
	case <-c.closed:
		return ErrClosed
	default:
		close(c.closed)
	}
	err := c.conn.Close()
	<-c.done
	return err
}
