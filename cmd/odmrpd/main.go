// Command odmrpd is a user-level ODMRP daemon, mirroring the paper's
// testbed software (§5.2): the full multicast protocol — probing, JOIN
// QUERY / JOIN REPLY exchange, forwarding-group maintenance, and data
// forwarding — running in real time over UDP sockets, attached to an
// emulated broadcast medium served by cmd/etherd.
//
// A three-node multicast session on one machine:
//
//	go run ./cmd/etherd -addr 127.0.0.1:7777 &
//	go run ./cmd/odmrpd -id 1 -ether 127.0.0.1:7777 -source 1 -seconds 30 &
//	go run ./cmd/odmrpd -id 2 -ether 127.0.0.1:7777 -seconds 30 &
//	go run ./cmd/odmrpd -id 3 -ether 127.0.0.1:7777 -join 1 -seconds 30
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"meshcast/internal/emu"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	_ "meshcast/internal/multicast/protocols" // populate the protocol registry
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

func main() {
	var (
		id         = flag.Uint("id", 1, "node ID (unique per ether)")
		ether      = flag.String("ether", "127.0.0.1:7777", "etherd UDP address")
		metricName = flag.String("metric", "spp", "routing metric: minhop, etx, ett, pp, metx, spp")
		protocol   = flag.String("protocol", "", "multicast protocol: "+strings.Join(multicast.Names(), ", ")+" (default "+multicast.Default+")")
		join       = flag.String("join", "", "comma-separated group IDs to join as receiver")
		source     = flag.String("source", "", "comma-separated group IDs to source CBR traffic into")
		rate       = flag.Int("rate", 20, "CBR packets per second when sourcing")
		payload    = flag.Int("payload", 512, "CBR payload bytes")
		seconds    = flag.Int("seconds", 0, "exit after this many seconds (0 = run until interrupted)")
		seed       = flag.Uint64("seed", 0, "protocol randomness seed (0 = derive from id)")
		watchdog   = flag.Duration("watchdog", 0, "exit nonzero if the daemon is unregistered or inactive for this long (0 = disabled); lets a process supervisor restart wedged daemons")
	)
	flag.Parse()
	if err := run(*id, *ether, *metricName, *protocol, *join, *source, *rate, *payload, *seconds, *seed, *watchdog); err != nil {
		log.Fatal(err)
	}
}

func run(id uint, ether, metricName, protocol, join, source string, rate, payload, seconds int, seed uint64, watchdog time.Duration) error {
	kind, err := metric.ParseKind(metricName)
	if err != nil {
		return err
	}
	proto, err := multicast.Resolve(protocol)
	if err != nil {
		return fmt.Errorf("-protocol: %w", err)
	}
	joinGroups, err := parseGroups(join)
	if err != nil {
		return fmt.Errorf("-join: %w", err)
	}
	sourceGroups, err := parseGroups(source)
	if err != nil {
		return fmt.Errorf("-source: %w", err)
	}
	if seed == 0 {
		seed = uint64(id)*0x9e3779b97f4a7c15 + 1
	}
	if rate <= 0 {
		return fmt.Errorf("-rate must be positive, got %d", rate)
	}

	daemon, err := emu.NewDaemon(emu.DaemonConfig{
		ID:           packet.NodeID(id),
		EtherAddr:    ether,
		Metric:       kind,
		Protocol:     proto,
		JoinGroups:   joinGroups,
		SourceGroups: sourceGroups,
		PayloadBytes: payload,
		SendInterval: time.Second / time.Duration(rate),
		Seed:         seed,
	})
	if err != nil {
		return err
	}
	defer daemon.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if seconds > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(seconds)*time.Second)
		defer cancel()
	}
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	// The watchdog and the status line are tickers on the daemon's own
	// engine: they run on its driver goroutine, between protocol events.
	var watchErr error
	if watchdog > 0 {
		armWatchdog(daemon.Engine(), watchdog, daemon.Alive, func() {
			watchErr = fmt.Errorf("odmrpd id=%d: watchdog: unregistered or inactive for %v", id, watchdog)
			cancel()
		})
	}
	sim.NewTicker(daemon.Engine(), 5*time.Second, 0, nil, func() { fmt.Println(daemon.Summary()) })

	fmt.Printf("odmrpd id=%d metric=%s ether=%s join=%v source=%v\n",
		id, kind, ether, joinGroups, sourceGroups)
	daemon.Run(ctx)

	fmt.Println("final:", daemon.Summary())
	if watchErr != nil {
		return watchErr
	}
	if len(joinGroups) > 0 {
		for src, n := range daemon.DeliveredBySource() {
			fmt.Printf("  received %d packets from source %v\n", n, src)
		}
	}
	return nil
}

// armWatchdog arms the liveness watchdog on engine: the daemon must be
// registered with the ether and show protocol activity within every window,
// or fail is called so the process can exit nonzero and an external
// supervisor (systemd, the chaos harness) restart it. alive is polled four
// times a window; fail fires once the daemon has looked dead for a whole
// window on end, and any poll that finds it alive starts the count afresh.
func armWatchdog(engine *sim.Engine, window time.Duration, alive func(window time.Duration) bool, fail func()) {
	seenDead := time.Duration(-1) // when a poll first found it dead; -1 while alive
	var ticker *sim.Ticker
	ticker = sim.NewTicker(engine, window/4, 0, nil, func() {
		switch now := engine.Now(); {
		case alive(window):
			seenDead = -1
		case seenDead < 0:
			seenDead = now
		case now-seenDead >= window:
			ticker.Stop()
			fail()
		}
	})
}

// parseGroups parses "1,2,3" into group IDs.
func parseGroups(s string) ([]packet.GroupID, error) {
	if s == "" {
		return nil, nil
	}
	var out []packet.GroupID
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 16)
		if err != nil {
			return nil, fmt.Errorf("bad group %q: %w", part, err)
		}
		out = append(out, packet.GroupID(v))
	}
	return out, nil
}
