// Package soak runs long-lived supervised fleets: hundreds of live odmrpd
// daemons on one generated floor, started staggered, watched by the
// FleetSupervisor, exporting rolling telemetry, and mutable over the
// ctlplane HTTP API while they serve traffic.
//
// Both `etherd -soak` and TestSoakSurvivesControlPlaneFaults drive this
// exact runner, so the code path the recovery gate exercises is the one
// operators run.
package soak

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"meshcast/internal/ctlplane"
	"meshcast/internal/emu"
	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/sim"
	"meshcast/internal/telemetry"
	"meshcast/internal/testbed"
)

// Config describes a soak run.
type Config struct {
	// Nodes is the daemon count (min 4; hundreds are fine). The floor
	// carries max(2, Nodes/12) multicast sessions, so traffic scales with
	// the fleet.
	Nodes int
	// Metric selects the routing metric (default metric.SPP).
	Metric metric.Kind
	// Protocol selects the multicast routing protocol by registered name;
	// empty means multicast.Default (ODMRP).
	Protocol string
	// Seed drives floor generation, the medium, and protocol randomness.
	Seed uint64
	// SendInterval is each source's CBR gap (default 100 ms — soak runs
	// favor endurance over throughput).
	SendInterval time.Duration
	// StartStagger spaces daemon starts (default 20 ms) so a large fleet
	// ramps instead of thundering.
	StartStagger time.Duration
	// Listen is the control-plane address ("127.0.0.1:0" for an ephemeral
	// port; empty disables the API).
	Listen string
	// TelemetryDir enables rolling telemetry export when non-empty.
	TelemetryDir string
	// SampleInterval is the telemetry sampling period (default 1 s).
	SampleInterval time.Duration
	// RotateEvery seals the series stream into a numbered segment at this
	// period (default 5 min; <0 disables rotation).
	RotateEvery time.Duration

	// trace, when set, observes the graceful-shutdown steps in order —
	// the shutdown-order test's hook.
	trace func(step string)
}

func (c Config) withDefaults() Config {
	if c.Metric == 0 {
		c.Metric = metric.SPP
	}
	if c.SendInterval <= 0 {
		c.SendInterval = 100 * time.Millisecond
	}
	if c.StartStagger == 0 {
		c.StartStagger = 20 * time.Millisecond
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = time.Second
	}
	if c.RotateEvery == 0 {
		c.RotateEvery = 5 * time.Minute
	}
	return c
}

// Runner owns one soak run's moving parts.
type Runner struct {
	cfg       Config
	fleet     *emu.Fleet
	sup       *emu.FleetSupervisor
	rec       *telemetry.Recorder
	flight    *telemetry.FlightRecorder
	coreWatch *telemetry.CounterWatch
	listener  net.Listener
	httpSrv   *http.Server
	// rotateErr is the first series-rotation failure; the run goroutine
	// writes it, Run reads it once the fleet has stopped.
	rotateErr error
}

// New builds the fleet, supervisor, control listener, and telemetry
// recorder. Call Run to start everything; Run also tears it all down.
func New(cfg Config) (*Runner, error) {
	cfg = cfg.withDefaults()
	scenario, err := testbed.GenerateFloor(testbed.FloorConfig{
		Nodes:  cfg.Nodes,
		Seed:   cfg.Seed,
		Groups: max(2, cfg.Nodes/12),
	})
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	fleet, err := emu.NewFleet(emu.FleetConfig{
		Scenario:     scenario,
		Metric:       cfg.Metric,
		Protocol:     cfg.Protocol,
		SendInterval: cfg.SendInterval,
		StartStagger: cfg.StartStagger,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	r := &Runner{
		cfg:   cfg,
		fleet: fleet,
		sup:   emu.NewFleetSupervisor(fleet, nil),
	}
	if cfg.Listen != "" {
		ctl := ctlplane.NewFleetController(fleet, r.sup)
		ln, err := net.Listen("tcp", cfg.Listen)
		if err != nil {
			fleet.Close()
			return nil, fmt.Errorf("soak: control listener: %w", err)
		}
		r.listener = ln
		r.httpSrv = &http.Server{Handler: ctlplane.NewServer(ctl).Handler()}
	}
	if cfg.TelemetryDir != "" {
		rec, err := telemetry.NewRecorder(cfg.TelemetryDir, cfg.SampleInterval)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("soak: %w", err)
		}
		emu.InstrumentFleet(rec.Registry(), fleet, nil, r.sup)
		r.rec = rec
		// The flight recorder keeps the black box around anomalies: recent
		// stats windows and supervisor events, dumped into the telemetry
		// directory when a trigger fires. Its core-handover watch reads the
		// fleet's routers through the line of the protocol's counter export
		// table the simulator's run driver reads its nodes through; a
		// protocol without that line (ODMRP) leaves the watch nil.
		r.flight = telemetry.NewFlightRecorder(cfg.TelemetryDir, fleet.Driver().Now)
		for _, c := range multicast.Counters(fleet.Protocol()) {
			if c.Name == "mcst.core_handovers" {
				r.coreWatch = telemetry.NewCounterWatch(func() uint64 { return fleet.SumRouters(c.Read) })
			}
		}
	}
	return r, nil
}

// Addr returns the control-plane listen address (empty when disabled).
func (r *Runner) Addr() string {
	if r.listener == nil {
		return ""
	}
	return r.listener.Addr().String()
}

// Fleet exposes the underlying fleet (result collection, tests).
func (r *Runner) Fleet() *emu.Fleet { return r.fleet }

func (r *Runner) traceStep(step string) {
	if r.cfg.trace != nil {
		r.cfg.trace(step)
	}
}

func (r *Runner) close() {
	if r.listener != nil {
		r.listener.Close()
	}
	r.fleet.Close()
}

// Run drives the soak until ctx is canceled, then shuts down gracefully in
// a fixed order: (1) the control listener stops accepting mutations,
// (2) the fleet and supervisor stop, (3) a final telemetry sample is taken
// and the manifest written. Only then are sockets closed, and a frame still
// in the ether's delay queue is lost with them: every daemon has stopped,
// so none could take it. The order matters: no control mutation may race
// the teardown, and the final sample sees the stopped fleet.
func (r *Runner) Run(ctx context.Context) error {
	run := r.fleet.Driver()
	if r.rec != nil {
		r.armTelemetry(run.Engine())
	}

	// The fleet runs on its own context so shutdown order is ours, not
	// the scheduler's.
	fleetCtx, stopFleet := context.WithCancel(context.Background())
	defer stopFleet()
	fleetDone := make(chan struct{})
	go func() {
		defer close(fleetDone)
		r.fleet.Run(fleetCtx)
	}()

	var serveDone chan error
	if r.httpSrv != nil {
		serveDone = make(chan error, 1)
		go func() { serveDone <- r.httpSrv.Serve(r.listener) }()
	}

	<-ctx.Done()
	var firstErr error

	// (1) Stop the control plane: no mutation may race the teardown.
	r.traceStep("control-stop")
	if r.httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r.httpSrv.Shutdown(shutCtx)
		cancel()
		if err := <-serveDone; err != nil && err != http.ErrServerClosed {
			firstErr = fmt.Errorf("soak: control server: %w", err)
		}
	}

	// (2) Stop the fleet: daemons exit, sends cease, and the run engine —
	// supervisor, sampling, rotation — stops with them.
	r.traceStep("fleet-stop")
	stopFleet()
	<-fleetDone
	if firstErr == nil {
		firstErr = r.rotateErr
	}

	// (3) Final telemetry sample + manifest.
	r.traceStep("telemetry-final")
	if r.rec != nil {
		elapsed := run.Now()
		r.rec.Sample(elapsed)
		rep := r.sup.Report()
		avail, killed := 1.0, 0
		if len(rep.Nodes) > 0 {
			sum := 0.0
			for _, n := range rep.Nodes {
				sum += n.Availability
				if n.Kills > 0 {
					killed++
				}
			}
			avail = sum / float64(len(rep.Nodes))
		}
		err := r.rec.Finalize(telemetry.Manifest{
			Seed:            r.cfg.Seed,
			Label:           fmt.Sprintf("soak %d nodes %v", r.cfg.Nodes, r.cfg.Metric),
			Metric:          r.cfg.Metric.String(),
			Protocol:        r.fleet.Protocol(),
			DurationSeconds: elapsed.Seconds(),
			Derived: map[string]float64{
				"pdr":          r.fleet.Result().Summary.PDR,
				"availability": avail,
				"kills":        float64(killed),
			},
		})
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	r.close()
	return firstErr
}

// armTelemetry puts the run's periodic telemetry work on the run engine as
// three tickers: the recorder's samples, the series rotation, and the
// anomaly watch.
func (r *Runner) armTelemetry(engine *sim.Engine) {
	sim.NewTicker(engine, r.rec.Interval(), 0, nil, func() { r.rec.Sample(engine.Now()) })
	if r.cfg.RotateEvery > 0 {
		sim.NewTicker(engine, r.cfg.RotateEvery, 0, nil, func() {
			if _, err := r.rec.Rotate(); err != nil && r.rotateErr == nil {
				r.rotateErr = err
			}
		})
	}

	// Anomaly watch: each tick records the stats window into the flight
	// recorder's ring and fires a dump on a windowed PDR dip, a core
	// handover, or a supervisor watchdog restart. Dumps are best-effort
	// (cooldown-suppressed, never fail the run).
	var dip telemetry.PDRDipDetector
	dip.Window(r.fleet.DeliveryEstimate()) // the run's first window starts here
	seenEvents := 0
	sim.NewTicker(engine, r.cfg.SampleInterval, 0, nil, func() {
		if dExp, dDel, pdr, dipped := dip.Window(r.fleet.DeliveryEstimate()); dExp > 0 {
			r.flight.Record("stats", "window expected=%d delivered=%d pdr=%.3f", dExp, dDel, pdr)
			if dipped {
				r.flight.Trigger(fmt.Sprintf("pdr-dip window pdr=%.3f", pdr))
			}
		}
		if d := r.coreWatch.Delta(); d > 0 {
			r.flight.Record("mcst", "core handovers +%d", d)
			r.flight.Trigger(fmt.Sprintf("core-handover +%d", d))
		}
		events := r.sup.Events()
		for _, ev := range events[seenEvents:] {
			r.flight.Record("supervisor", "%s node=%d at=%.1fs", ev.Kind, ev.Node, ev.At.Seconds())
			if ev.Kind == "watchdog-restart" {
				r.flight.Trigger(fmt.Sprintf("watchdog-restart node=%d", ev.Node))
			}
		}
		seenEvents = len(events)
	})
}
