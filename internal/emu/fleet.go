package emu

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/stats"
	"meshcast/internal/testbed"
)

// Fleet runs a whole testbed scenario as live daemons over one in-process
// ether: every node is a real odmrpd instance exchanging UDP datagrams in
// real time. This is the closest this repository gets to the paper's
// physical experiment — same protocol code, real sockets, real clocks —
// at the cost of running in wall-clock time.
//
// Daemons have a full lifecycle: StopDaemon / RestartDaemon kill and
// revive individual nodes mid-run, and Medium().Stop / Start restart the
// shared medium — the primitives the FleetSupervisor drives to execute a
// chaos schedule. Traffic is booked by the fleet, not the daemons, so a
// kill loses none of it.
//
// A run has one clock: the fleet's Driver. Everything scheduled or periodic
// around the daemons — the start ramp, the supervisor's chaos events,
// watchdog and retries, telemetry sampling — is an event on its engine, and
// everything that needs "now" from another goroutine (downtime accounting,
// impairment expiry, Chaos, the traffic book) reads its Now.
type Fleet struct {
	cfg     FleetConfig
	medium  *Medium
	nodeIDs []packet.NodeID // sorted; chaos plans address nodes by index here

	// impairs is the composable impairment chain, read lock-free on the
	// ether's per-frame hot path (the ether evaluates the hook under its own
	// lock) and copy-on-write updated by the rare AddImpairment calls (the
	// control plane mutates a running fleet).
	impairs atomic.Pointer[impairChain]

	book *book

	// sent, expected and delivered are the book's totals kept lock-free, cheap
	// enough for per-request control-plane polling and per-sample gauges: on
	// every source send sent grows by one and expected by the send's
	// receivers, delivered by one per member delivery.
	sent      atomic.Uint64
	expected  atomic.Uint64
	delivered atomic.Uint64

	driver *Driver
	mu     sync.Mutex // guards runCtx
	runCtx context.Context
	wg     sync.WaitGroup

	slots map[packet.NodeID]*daemonSlot
}

// daemonSlot is one node's seat in the fleet: its immutable daemon config
// plus the current live generation (nil while down) and the lifecycle
// ledger that spans generations.
type daemonSlot struct {
	mu     sync.Mutex
	cfg    DaemonConfig
	d      *Daemon
	cancel context.CancelFunc
	done   chan struct{}

	down      bool          // killed and not yet restarted
	downSince time.Duration // run time of the kill, while down
	downtime  time.Duration // closed down intervals
	kills     int
	restarts  int
}

// retire stops and closes the slot's live generation, if any. Caller holds
// s.mu.
func (s *daemonSlot) retire() {
	if s.d == nil {
		return
	}
	if s.cancel != nil {
		s.cancel()
		<-s.done
	}
	s.d.Close()
	s.d, s.cancel, s.done = nil, nil, nil
}

// accounting is the slot's lifecycle ledger at run time now: an open down
// interval counts up to now. Caller holds s.mu.
func (s *daemonSlot) accounting(now time.Duration) NodeAccounting {
	acc := NodeAccounting{Kills: s.kills, Restarts: s.restarts, Downtime: s.downtime}
	if s.down {
		acc.Downtime += now - s.downSince
	}
	return acc
}

// lossyDF and lowLossDF map the scenario's link classes to the ether's
// delivery probabilities; every link has perfect timing.
const (
	lossyDF   = 0.5
	lowLossDF = 0.95
)

// FleetConfig configures a live fleet.
type FleetConfig struct {
	// Scenario supplies nodes, links and groups (e.g.
	// testbed.PaperScenario() or a generated floor).
	Scenario testbed.Scenario
	// Metric selects the routing metric for every daemon.
	Metric metric.Kind
	// Protocol selects the multicast routing protocol for every daemon by
	// registered name; empty means multicast.Default (ODMRP).
	Protocol string
	// SendInterval is each source's CBR gap (default 50 ms).
	SendInterval time.Duration
	// StartStagger spaces daemon starts by this much in Run (node i starts
	// i×StartStagger after run start), so a fleet of hundreds of daemons
	// does not thunder at the ether in one burst. Zero starts everyone at
	// once. Keep total stagger below the supervisor's 3 s watchdog budget,
	// or the watchdog will race the ramp-up.
	StartStagger time.Duration
	// Seed drives the ether's loss draws and protocol randomness.
	Seed uint64
}

// NewFleet starts the ether and connects one daemon per scenario node.
// Call Run to start the protocol and traffic; Close to tear down.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	links := NewLinkTable(0) // non-adjacent nodes cannot hear each other
	for _, l := range cfg.Scenario.Links {
		df := lowLossDF
		if l.Class == testbed.Lossy {
			df = lossyDF
		}
		links.SetSymmetric(l.A, l.B, df)
	}

	nodeIDs := append([]packet.NodeID(nil), cfg.Scenario.Nodes...)
	sort.Slice(nodeIDs, func(i, j int) bool { return nodeIDs[i] < nodeIDs[j] })

	driver := NewDriver(cfg.Seed)
	f := &Fleet{
		cfg:     cfg,
		nodeIDs: nodeIDs,
		book:    newBook(cfg.Scenario.Groups, driver.Now),
		driver:  driver,
		slots:   make(map[packet.NodeID]*daemonSlot, len(nodeIDs)),
	}
	f.impairs.Store(&impairChain{})
	medium, err := NewMedium("127.0.0.1:0", links, int64(cfg.Seed)+1, f.impairHook)
	if err != nil {
		return nil, err
	}
	f.medium = medium
	joins := make(map[packet.NodeID][]packet.GroupID)
	sources := make(map[packet.NodeID][]packet.GroupID)
	for _, g := range cfg.Scenario.Groups {
		sources[g.Source] = append(sources[g.Source], g.Group)
		for _, m := range g.Members {
			joins[m] = append(joins[m], g.Group)
		}
	}
	for _, id := range nodeIDs {
		dcfg := DaemonConfig{
			ID:           id,
			EtherAddr:    medium.Addr(),
			Metric:       cfg.Metric,
			Protocol:     cfg.Protocol,
			JoinGroups:   joins[id],
			SourceGroups: sources[id],
			SendInterval: cfg.SendInterval,
			Seed:         cfg.Seed*1000 + uint64(id),
			OnSend:       func(g packet.GroupID) { f.recordSend(id, g) },
			OnDeliver:    func(p *packet.Packet) { f.recordDeliver(id, p) },
		}
		d, err := NewDaemon(dcfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet daemon %v: %w", id, err)
		}
		f.slots[id] = &daemonSlot{cfg: dcfg, d: d}
	}
	return f, nil
}

// NodeIDs returns the fleet's node IDs, sorted ascending — the index
// order chaos plans and fault scripts address.
func (f *Fleet) NodeIDs() []packet.NodeID {
	return append([]packet.NodeID(nil), f.nodeIDs...)
}

// Driver returns the run's one clock and scheduler: Now is the run time
// (zero before Run), Engine takes the run's periodic work before Run starts
// it, and Do and Inject reach the state its events own from outside.
func (f *Fleet) Driver() *Driver { return f.driver }

// UseChaos attaches a chaos schedule: the plan's link faults and
// partitions become the ether's impairment hook, and the traffic book gains
// a disruption tracker over the schedule's onsets and windows so Result
// reports repair latency, outage-vs-steady PDR, and availability. Call
// before Run, with a Chaos built on this fleet's Driver().Now.
func (f *Fleet) UseChaos(c *Chaos) {
	f.impairs.Store(&impairChain{base: c.DropProb})
	f.book.mu.Lock()
	f.book.health = stats.NewDisruptionTracker(c.Onsets(), c.Windows())
	f.book.mu.Unlock()
}

// impairChain is the fleet's composed impairment state: a base hook (the
// chaos schedule attached before Run) plus extra hooks added live by the
// control plane. Updates replace the whole value (copy-on-write); the
// ether's per-frame hook only ever Loads it.
type impairChain struct {
	base   ImpairFunc
	extras []timedImpair
}

// timedImpair is one live-injected impairment with its expiry: once a fault
// script's span is over its hook evaluates to zero forever, so it can be
// pruned instead of lengthening the chain for the rest of a soak.
type timedImpair struct {
	fn    ImpairFunc
	until time.Duration // run time
}

// impairHook is the single ImpairFunc the medium installs on every ether
// generation: it combines the chain's hooks as independent loss processes
// (drop = 1 − Π(1 − dropᵢ)).
func (f *Fleet) impairHook(from, to packet.NodeID) float64 {
	ch := f.impairs.Load()
	keep := 1.0
	if ch.base != nil {
		keep *= 1 - ch.base(from, to)
	}
	if len(ch.extras) > 0 {
		now := f.driver.Now()
		for _, ti := range ch.extras {
			if now <= ti.until {
				keep *= 1 - ti.fn(from, to)
			}
		}
	}
	if keep <= 0 {
		return 1
	}
	return 1 - keep
}

// AddImpairment composes an extra impairment hook into the chain while the
// fleet runs — the control plane's /faults/script injection path. until is
// the run time after which the fleet may prune the hook: the script's span
// has passed (expired hooks evaluate to zero anyway).
func (f *Fleet) AddImpairment(fn ImpairFunc, until time.Duration) {
	now := f.driver.Now()
	for {
		old := f.impairs.Load()
		next := &impairChain{base: old.base}
		for _, ti := range old.extras {
			if now > ti.until {
				continue
			}
			next.extras = append(next.extras, ti)
		}
		next.extras = append(next.extras, timedImpair{fn: fn, until: until})
		if f.impairs.CompareAndSwap(old, next) {
			return
		}
	}
}

// Run drives the fleet until ctx is canceled (wall-clock time): the run
// driver starts daemon i at i×StartStagger and executes whatever else was
// armed on its engine (a FleetSupervisor, samplers), every daemon runs on
// its own goroutine, and killed daemons restarted through RestartDaemon join
// the same run. Run returns once ctx is done and every daemon goroutine has
// exited.
func (f *Fleet) Run(ctx context.Context) {
	f.mu.Lock()
	f.runCtx = ctx
	f.mu.Unlock()
	f.driver.Do(func() {
		for i, id := range f.nodeIDs {
			s := f.slots[id]
			f.driver.Engine().Schedule(time.Duration(i)*f.cfg.StartStagger, func() {
				s.mu.Lock()
				defer s.mu.Unlock()
				// Start only untouched initial generations: a slot the
				// supervisor already killed (d == nil) or revived
				// (cancel != nil) mid-ramp is left alone.
				if s.d != nil && s.cancel == nil {
					f.startDaemonLocked(s)
				}
			})
		}
	})
	f.driver.Run(ctx)
	f.wg.Wait()
}

// startDaemonLocked launches the slot's current daemon generation on the
// run context. Caller holds s.mu; Run must have been called.
func (f *Fleet) startDaemonLocked(s *daemonSlot) {
	ctx, cancel := context.WithCancel(f.runCtx)
	s.cancel = cancel
	done := make(chan struct{})
	s.done = done
	d := s.d
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		defer close(done)
		d.Run(ctx)
	}()
}

// StopDaemon kills one daemon (a scripted crash): its run goroutine stops
// and its socket closes. The rest of the fleet keeps running. No-op if the
// daemon is already down.
func (f *Fleet) StopDaemon(id packet.NodeID) error {
	s := f.slots[id]
	if s == nil {
		return fmt.Errorf("emu: unknown fleet node %v", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d == nil {
		return nil
	}
	s.retire()
	s.down, s.downSince = true, f.driver.Now()
	s.kills++
	return nil
}

// RestartDaemon revives a killed daemon as a fresh generation: new socket,
// new protocol state (ODMRP soft state and link estimates are gone, as on
// a real reboot), same node identity and traffic role. Returns an error if
// the daemon is already up, the fleet is not running, or the dial fails —
// the supervisor retries with backoff.
func (f *Fleet) RestartDaemon(id packet.NodeID) error {
	s := f.slots[id]
	if s == nil {
		return fmt.Errorf("emu: unknown fleet node %v", id)
	}
	f.mu.Lock()
	ctx := f.runCtx
	f.mu.Unlock()
	if ctx == nil {
		return fmt.Errorf("emu: fleet not running")
	}
	if ctx.Err() != nil {
		return fmt.Errorf("emu: fleet stopped: %w", ctx.Err())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d != nil {
		return nil
	}
	d, err := NewDaemon(s.cfg)
	if err != nil {
		return fmt.Errorf("emu: restart %v: %w", id, err)
	}
	s.d = d
	s.downtime = s.accounting(f.driver.Now()).Downtime
	s.down = false
	s.restarts++
	f.startDaemonLocked(s)
	return nil
}

// aliveWindow is how recently a fleet daemon must have shown protocol
// activity to count as alive: several probe intervals. The supervisor's
// watchdog, the control plane and the fleet's gauges all judge by it.
const aliveWindow = 2 * time.Second

// DaemonAlive reports whether the node's daemon is up, registered with the
// ether, and showing protocol activity within aliveWindow.
func (f *Fleet) DaemonAlive(id packet.NodeID) bool {
	s := f.slots[id]
	if s == nil {
		return false
	}
	s.mu.Lock()
	d := s.d
	s.mu.Unlock()
	return d != nil && d.Alive(aliveWindow)
}

// Medium returns the fleet's shared medium: stop and start it, read its
// counters and clients, reach its link table.
func (f *Fleet) Medium() *Medium { return f.medium }

// SumRouters adds read over the routers of the daemons now alive. The sum
// falls when a daemon is killed or restarted: a router's counts die with it.
func (f *Fleet) SumRouters(read func(multicast.Protocol) uint64) uint64 {
	var total uint64
	for id := range f.slots {
		if d := f.Daemon(id); d != nil {
			total += d.ReadRouter(read)
		}
	}
	return total
}

// recordSend is src's daemons' send hook: one data packet to group g.
func (f *Fleet) recordSend(src packet.NodeID, g packet.GroupID) {
	f.sent.Add(1)
	f.expected.Add(uint64(f.book.sent(src, g)))
}

// recordDeliver is member's daemons' delivery hook.
func (f *Fleet) recordDeliver(member packet.NodeID, p *packet.Packet) {
	f.delivered.Add(1)
	f.book.delivered(member, p)
}

// DeliveryEstimate returns the fleet's cumulative delivery accounting:
// expected deliveries (one per receiving member per source send) and actual
// member deliveries. Lock-free — the control plane polls it per request,
// and windowed deltas of delivered/expected give a live PDR estimate.
func (f *Fleet) DeliveryEstimate() (expected, delivered uint64) {
	return f.expected.Load(), f.delivered.Load()
}

// NodeAccounting is one node's cross-generation resilience ledger.
type NodeAccounting struct {
	// Kills and Restarts count lifecycle transitions this run.
	Kills, Restarts int
	// Downtime is the total run time spent dead (open intervals count up
	// to now).
	Downtime time.Duration
}

// NodeStats returns a node's lifecycle accounting.
func (f *Fleet) NodeStats(id packet.NodeID) NodeAccounting {
	s := f.slots[id]
	if s == nil {
		return NodeAccounting{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accounting(f.driver.Now())
}

// FleetResult summarizes a fleet run in the simulator's types, like
// testbed.Result. Summary's delay and probe-overhead fields stay zero: a
// packet's send time is stamped on its source daemon's clock, which starts
// at that daemon's own Run, so no receiver can subtract it, and the fleet
// books no probes.
type FleetResult struct {
	Summary   stats.Summary
	PerMember []stats.MemberPDR
	// Health carries per-group self-healing summaries (repair latency,
	// outage-vs-steady PDR, availability) when chaos was attached.
	Health []stats.GroupHealth
}

// Result reads the fleet's traffic book. Lifecycle outcomes are NodeStats'
// (and a supervisor's Report).
func (f *Fleet) Result() FleetResult {
	b := f.book
	b.mu.Lock()
	defer b.mu.Unlock()
	res := FleetResult{Summary: b.collector.Summarize(), PerMember: b.collector.PerMemberPDR()}
	if b.health != nil {
		res.Health = b.health.Health()
	}
	return res
}

// Protocol returns the registered name of the multicast protocol the
// fleet's daemons run (the configured name resolved through the registry).
func (f *Fleet) Protocol() string {
	name, err := multicast.Resolve(f.cfg.Protocol)
	if err != nil {
		return f.cfg.Protocol
	}
	return name
}

// Daemon returns the live daemon for a node (tests and diagnostics; nil
// while the node is down).
func (f *Fleet) Daemon(id packet.NodeID) *Daemon {
	s := f.slots[id]
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d
}

// Close shuts every daemon and the medium down. The traffic book and the
// medium's counters outlive them, so Result and Medium().Stats stay accurate
// after Close.
func (f *Fleet) Close() {
	for _, s := range f.slots {
		s.mu.Lock()
		s.retire()
		s.mu.Unlock()
	}
	f.medium.Stop()
}

// book is the fleet's one traffic book: the simulator's delivery collector
// over the scenario's subscriptions and, with chaos attached, the disruption
// tracker. The daemons' hooks feed it from their many driver goroutines, so
// every call runs under its mutex, stamped with the run time read inside it,
// which keeps each group's timestamps nondecreasing as the tracker requires.
type book struct {
	mu        sync.Mutex
	now       func() time.Duration
	collector *stats.Collector
	health    *stats.DisruptionTracker // nil without chaos
}

// newBook subscribes each group's members to its source, under the
// collector's subscription rule as in the simulator.
func newBook(groups []testbed.GroupSpec, now func() time.Duration) *book {
	b := &book{now: now, collector: stats.NewCollector()}
	for _, g := range groups {
		for _, m := range g.Members {
			b.collector.Subscribe(m, g.Group, g.Source)
		}
	}
	return b
}

// sent books one data packet from src to g and returns its receivers.
func (b *book) sent(src packet.NodeID, g packet.GroupID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := b.collector.Receivers(g, src)
	b.collector.RecordSent(g, src)
	if b.health != nil {
		b.health.RecordSent(g, b.now(), n)
	}
	return n
}

// delivered books p's delivery to member.
func (b *book) delivered(member packet.NodeID, p *packet.Packet) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.collector.RecordDelivered(member, p.Group, p.Src, p.PayloadBytes, 0)
	if b.health != nil {
		b.health.RecordDelivered(p.Group, b.now())
	}
}
