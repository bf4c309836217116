// Command etherd runs the emulated wireless broadcast medium that odmrpd
// daemons attach to: every frame a daemon sends is fanned out to all other
// registered daemons subject to per-link delivery probabilities, optional
// delay/jitter/duplication shaping, and an optional scripted fault
// schedule.
//
// Usage:
//
//	go run ./cmd/etherd -addr 127.0.0.1:7777
//	go run ./cmd/etherd -addr 127.0.0.1:7777 -links testbed.links
//	go run ./cmd/etherd -paper-testbed -delay 2ms -jitter 5ms -dup 0.01
//	go run ./cmd/etherd -paper-testbed -fault-script chaos.json -time-scale 0.1
//
// The links file holds one directed link per line: "from to df", e.g.
// "2 5 0.5". Pairs without an entry use -default-df.
//
// -fault-script replays the same JSON fault scripts the simulator and the
// live fleet consume (internal/faults): link faults and partitions become
// extra frame drops, scripted node outages take that node's radio off the
// air (etherd cannot kill an external daemon, so its frames stop being
// carried instead), and ether_restarts bounce the medium itself. Script
// node indices address the -nodes list (defaulted by -paper-testbed).
//
// -listen serves the HTTP/JSON control plane (internal/ctlplane): live
// state reads plus link impairment and partition mutations against the
// running medium.
//
// -soak switches etherd into soak mode: instead of serving an external
// medium it runs a whole self-contained supervised fleet (-soak-nodes
// daemons on a generated floor, staggered starts, rolling telemetry under
// -telemetry) and exposes it on -listen, where fault scripts can be
// injected into the *running* fleet:
//
//	go run ./cmd/etherd -soak -soak-nodes 150 -listen 127.0.0.1:8420 -telemetry out/soak
//	curl -X POST -d @chaos.json http://127.0.0.1:8420/faults/script
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"meshcast/internal/ctlplane"
	"meshcast/internal/emu"
	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
	"meshcast/internal/soak"
	"meshcast/internal/testbed"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7777", "UDP address to listen on")
	defaultDF := flag.Float64("default-df", 1.0, "delivery probability for links without an entry")
	linksFile := flag.String("links", "", "per-link delivery probability file (from to df)")
	paperTestbed := flag.Bool("paper-testbed", false, "preload the paper's Figure 4 topology (8 nodes, lossy links at df 0.5, others 0.95; unknown pairs disconnected)")
	seed := flag.Int64("seed", 1, "loss randomness seed")
	delay := flag.Duration("delay", 0, "fixed one-way latency added to every delivered frame")
	jitter := flag.Duration("jitter", 0, "uniform extra latency in [0, jitter) per frame (reorders frames)")
	dup := flag.Float64("dup", 0, "probability a delivered frame arrives twice")
	faultScript := flag.String("fault-script", "", "JSON fault script to replay against the medium (internal/faults format)")
	timeScale := flag.Float64("time-scale", 1, "wall-clock seconds per fault-script virtual second")
	nodesFlag := flag.String("nodes", "", "comma-separated node IDs the fault script's indices address (default: paper testbed nodes with -paper-testbed)")
	listen := flag.String("listen", "", "HTTP control-plane listen address (e.g. 127.0.0.1:8420; empty disables)")
	soakMode := flag.Bool("soak", false, "run a self-contained supervised soak fleet instead of a bare medium")
	soakNodes := flag.Int("soak-nodes", 150, "daemon count in soak mode")
	soakDuration := flag.Duration("soak-duration", 0, "stop the soak after this long (0 = until SIGINT/SIGTERM)")
	metricName := flag.String("metric", "spp", "routing metric in soak mode")
	protocolName := flag.String("protocol", "", "multicast protocol in soak mode: "+strings.Join(multicast.Names(), ", ")+" (default "+multicast.Default+")")
	telemetryDir := flag.String("telemetry", "", "telemetry artifact directory in soak mode (empty disables)")
	rotateEvery := flag.Duration("rotate-every", 5*time.Minute, "series.jsonl rotation period in soak mode")
	sendInterval := flag.Duration("send-interval", 100*time.Millisecond, "per-source CBR gap in soak mode")
	stagger := flag.Duration("stagger", 20*time.Millisecond, "daemon start spacing in soak mode")
	flag.Parse()
	var err error
	if *soakMode {
		err = runSoak(*soakNodes, *soakDuration, *listen, *metricName, *protocolName, *telemetryDir,
			*rotateEvery, *sendInterval, *stagger, uint64(*seed))
	} else {
		err = run(*addr, *defaultDF, *linksFile, *paperTestbed, *seed,
			*delay, *jitter, *dup, *faultScript, *timeScale, *nodesFlag, *listen)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runSoak runs a self-contained supervised fleet until the duration
// elapses or a signal arrives; internal/soak owns the graceful-shutdown
// order (control plane, fleet, ether drain, final telemetry flush).
func runSoak(nodes int, duration time.Duration, listen, metricName, protocolName, telemetryDir string,
	rotateEvery, sendInterval, stagger time.Duration, seed uint64) error {
	kind, err := metric.ParseKind(metricName)
	if err != nil {
		return err
	}
	proto, err := multicast.Resolve(protocolName)
	if err != nil {
		return err
	}
	r, err := soak.New(soak.Config{
		Nodes:        nodes,
		Metric:       kind,
		Protocol:     proto,
		Seed:         seed,
		SendInterval: sendInterval,
		StartStagger: stagger,
		Listen:       listen,
		TelemetryDir: telemetryDir,
		RotateEvery:  rotateEvery,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, duration)
		defer cancel()
	}
	fmt.Printf("etherd soak: %d daemons, protocol %s, metric %v, stagger %v\n", nodes, proto, kind, stagger)
	if a := r.Addr(); a != "" {
		fmt.Printf("etherd soak control plane on http://%s\n", a)
	}
	if telemetryDir != "" {
		fmt.Printf("etherd soak telemetry under %s (rotate every %v)\n", telemetryDir, rotateEvery)
	}
	err = r.Run(ctx)
	fleet := r.Fleet()
	killed, restarted := 0, 0
	for _, id := range fleet.NodeIDs() {
		acc := fleet.NodeStats(id)
		if acc.Kills > 0 {
			killed++
		}
		if acc.Restarts > 0 {
			restarted++
		}
	}
	fmt.Printf("etherd soak done: pdr %.3f, %d nodes killed, %d restarted\n",
		fleet.Result().Summary.PDR, killed, restarted)
	return err
}

func run(addr string, defaultDF float64, linksFile string, paperTestbed bool, seed int64,
	delay, jitter time.Duration, dup float64, faultScript string, timeScale float64,
	nodesFlag, listen string) error {
	if paperTestbed {
		// Non-adjacent pairs in the testbed cannot communicate at all.
		defaultDF = 0
	}
	links := emu.NewLinkTable(defaultDF)
	if paperTestbed {
		for _, l := range testbed.Links {
			df := 0.95
			if l.Class == testbed.Lossy {
				df = 0.5
			}
			links.SetSymmetric(l.A, l.B, df)
		}
	}
	if linksFile != "" {
		if err := loadLinks(links, linksFile); err != nil {
			return err
		}
	}
	if delay > 0 || jitter > 0 || dup > 0 {
		links.ShapeAll(delay, jitter, dup)
		fmt.Printf("etherd shaping: delay=%v jitter=%v dup=%.3f\n", delay, jitter, dup)
	}

	// A bare medium keeps time the way a fleet does: on a run driver. The
	// fault script, its replay and the status line are events on its engine.
	driver := emu.NewDriver(uint64(seed))
	var chaos *emu.Chaos
	var impair emu.ImpairFunc
	if faultScript != "" {
		nodes, err := scriptNodes(nodesFlag, paperTestbed)
		if err != nil {
			return err
		}
		plan, err := faults.LoadPlan(faultScript)
		if err != nil {
			return err
		}
		chaos, err = emu.NewChaos(emu.ChaosConfig{
			Plan: plan, Seed: uint64(seed), TimeScale: timeScale,
		}, nodes, driver.Now)
		if err != nil {
			return err
		}
		// Down nodes go dark (drop everything to and from them); link
		// faults and partitions add their scripted drop probability.
		impair = func(from, to packet.NodeID) float64 {
			if chaos.NodeDown(from) || chaos.NodeDown(to) {
				return 1
			}
			return chaos.DropProb(from, to)
		}
	}

	m, err := emu.NewMedium(addr, links, seed+1, impair)
	if err != nil {
		return err
	}
	defer m.Stop()
	fmt.Printf("etherd listening on %s (default df %.2f)\n", m.Addr(), defaultDF)

	// Optional HTTP control plane over the bare medium: state reads plus
	// link/partition mutations (node lifecycle is 501 — etherd owns no
	// daemons).
	var ctlSrv *http.Server
	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			return fmt.Errorf("control listener: %w", err)
		}
		ctl := ctlplane.NewMediumController(m, driver.Now)
		ctlSrv = &http.Server{Handler: ctlplane.NewServer(ctl).Handler()}
		go ctlSrv.Serve(ln)
		fmt.Printf("etherd control plane on http://%s\n", ln.Addr())
	}

	if chaos != nil {
		schedule := chaos.Events()
		var span time.Duration // the last event's offset: events are time-sorted
		if n := len(schedule); n > 0 {
			span = schedule[n-1].At
		}
		fmt.Printf("etherd fault schedule: %d events over %v (time scale %.3g)\n", len(schedule), span, timeScale)
		emu.NewMediumSupervisor(m, driver, chaos, func(ev emu.FleetEvent) { fmt.Println(eventLine(ev)) })
	}
	sim.NewTicker(driver.Engine(), 10*time.Second, 0, nil, func() {
		if !m.Up() {
			fmt.Println("ether down")
			return
		}
		s := m.Stats()
		fmt.Printf("clients=%d frames in=%d out=%d dropped=%d dup=%d\n",
			len(m.Clients()), s.FramesIn, s.FramesOut, s.FramesDropped, s.FramesDup)
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	driver.Run(ctx)

	// Graceful shutdown order: control plane first (no mutation races the
	// teardown), then drain so in-flight delayed frames land and the final
	// stats line balances.
	if ctlSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		ctlSrv.Shutdown(shutCtx)
		cancel()
	}
	m.Drain()
	s := m.Stats()
	fmt.Printf("etherd shutting down: %d frames in, %d out, %d dropped, %d dup\n",
		s.FramesIn, s.FramesOut, s.FramesDropped, s.FramesDup)
	return nil
}

// eventLine formats one replayed fault-script event: "[1.5s] ether-down",
// "[502ms] node-down node=3" (the node's ID).
func eventLine(ev emu.FleetEvent) string {
	line := fmt.Sprintf("[%v] %s", ev.At.Round(time.Millisecond), ev.Kind)
	if ev.Node != 0 {
		line += fmt.Sprintf(" node=%d", ev.Node)
	}
	return line
}

// scriptNodes resolves the node-ID list fault-script indices address.
func scriptNodes(nodesFlag string, paperTestbed bool) ([]packet.NodeID, error) {
	if nodesFlag == "" {
		if paperTestbed {
			ids := append([]packet.NodeID(nil), testbed.NodeIDs...)
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			return ids, nil
		}
		return nil, fmt.Errorf("-fault-script needs -nodes (or -paper-testbed) to map script node indices to IDs")
	}
	var ids []packet.NodeID
	for _, part := range strings.Split(nodesFlag, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 16)
		if err != nil {
			return nil, fmt.Errorf("-nodes: bad ID %q: %w", part, err)
		}
		ids = append(ids, packet.NodeID(v))
	}
	return ids, nil
}

// loadLinks parses "from to df" lines; "#" starts a comment.
func loadLinks(t *emu.LinkTable, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return fmt.Errorf("%s:%d: want 'from to df', got %q", path, lineNo, line)
		}
		from, err := strconv.ParseUint(fields[0], 10, 16)
		if err != nil {
			return fmt.Errorf("%s:%d: bad from: %w", path, lineNo, err)
		}
		to, err := strconv.ParseUint(fields[1], 10, 16)
		if err != nil {
			return fmt.Errorf("%s:%d: bad to: %w", path, lineNo, err)
		}
		df, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || df < 0 || df > 1 {
			return fmt.Errorf("%s:%d: bad df %q", path, lineNo, fields[2])
		}
		t.Set(packet.NodeID(from), packet.NodeID(to), df)
	}
	return sc.Err()
}
