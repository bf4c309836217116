package emu

import (
	"sync"

	"meshcast/internal/packet"
)

// Medium owns the ether across its generations: one address, one shared link
// table and one impairment hook, and an Ether that Stop takes down (a medium
// outage: in-flight delayed frames and the client table are lost) and Start
// rebinds on the same address with the next generation's seed. Counters
// survive the generations. A Fleet holds one for its daemons, etherd holds
// one bare; the supervisor bounces either through Stop and Start. All methods
// are safe for concurrent use.
type Medium struct {
	addr   string
	links  *LinkTable
	seed   int64
	impair ImpairFunc

	mu      sync.Mutex
	ether   *Ether // nil while down
	gen     int64
	retired EtherStats
}

// NewMedium starts the first ether generation on addr ("127.0.0.1:0" picks
// a port, which later generations keep). Generation g draws its losses from
// seed+g; impair, which may be nil, is installed on every generation.
func NewMedium(addr string, links *LinkTable, seed int64, impair ImpairFunc) (*Medium, error) {
	m := &Medium{addr: addr, links: links, seed: seed, impair: impair}
	if err := m.Start(); err != nil {
		return nil, err
	}
	m.addr = m.ether.Addr()
	return m, nil
}

// Addr returns the address daemons dial, whether or not the medium is up.
func (m *Medium) Addr() string { return m.addr }

// Links returns the shared link table; profile and partition mutations on it
// apply to the live medium and survive restarts.
func (m *Medium) Links() *LinkTable { return m.links }

// current returns the serving generation, nil while down.
func (m *Medium) current() *Ether {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ether
}

// Stop takes the medium down. Daemons keep running and re-register when
// Start brings it back. No-op while down.
func (m *Medium) Stop() error {
	m.mu.Lock()
	ether := m.ether
	m.ether = nil
	m.mu.Unlock()
	if ether == nil {
		return nil
	}
	err := ether.Close()
	stats := ether.Stats()
	m.mu.Lock()
	m.retired.add(stats)
	m.mu.Unlock()
	return err
}

// Start brings the medium back up; the daemons' registration keepalive
// repopulates the client table within one refresh interval. No-op while up.
func (m *Medium) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ether != nil {
		return nil
	}
	ether, err := NewEther(m.addr, m.links, m.seed+m.gen)
	if err != nil {
		return err
	}
	ether.SetImpairment(m.impair)
	m.ether = ether
	m.gen++
	return nil
}

// Up reports whether the medium is serving.
func (m *Medium) Up() bool { return m.current() != nil }

// add accumulates another ether generation's counters.
func (s *EtherStats) add(o EtherStats) {
	s.FramesIn += o.FramesIn
	s.FramesOut += o.FramesOut
	s.FramesDropped += o.FramesDropped
	s.FramesDup += o.FramesDup
	s.Registrations += o.Registrations
}

// Stats returns the counters accumulated over every generation so far.
func (m *Medium) Stats() EtherStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.retired
	if m.ether != nil {
		out.add(m.ether.Stats())
	}
	return out
}

// Clients returns the node IDs registered with the serving generation (nil
// while down).
func (m *Medium) Clients() []packet.NodeID {
	if ether := m.current(); ether != nil {
		return ether.Clients()
	}
	return nil
}

// Drain quiesces the serving generation for a graceful shutdown (see
// Ether.Drain). No-op while down.
func (m *Medium) Drain() {
	if ether := m.current(); ether != nil {
		ether.Drain()
	}
}
