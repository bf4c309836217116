package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/telemetry"
	"meshcast/internal/testbed"
	"meshcast/internal/topology"
	"meshcast/internal/trace"
)

// topologySeed fixes node placement and the group draw for every run. The
// benchmark seed drives the scenario RNG (fading, backoff, jitter, probe
// phases, motion) but not the placement: simulated seconds per wall second
// differs by ±30 % between placements of the same workload and by a few
// percent between RNG streams on one placement, and the contract bounds the
// spread over seeds.
const topologySeed = 1

// repSeedStride separates the scenario seeds of consecutive reps of one run.
// Rep 0 runs the benchmark seed itself.
const repSeedStride = 0x9e3779b97f4a7c15

// workload is one named set of inputs. Scenario workloads go through
// experiments.RunScenario, the testbed workload through testbed.Run.
type workload struct {
	name string
	why  string
	// holdDepth is the pending-event count the sim.hold_ns kernel keeps,
	// matched to the workload's own queue depth.
	holdDepth int
	// metro marks the 1k-node workloads: they alone get the move kernels.
	metro bool
	// proto is the registered protocol name the run's counters appear under.
	proto string
	// observed attaches the telemetry recorder and span writer as part of
	// the workload itself.
	observed bool
	// scenario builds the run's config; nil selects the testbed path.
	scenario func(seed uint64) (experiments.ScenarioConfig, error)
	// trafficStart and duration are the simulated warm-up and total length of
	// one timed rep; tracedDuration is the total length of the traced run.
	trafficStart   time.Duration
	duration       time.Duration
	tracedDuration time.Duration
}

func paper50(sourcesPer int, proto string) func(uint64) (experiments.ScenarioConfig, error) {
	return func(seed uint64) (experiments.ScenarioConfig, error) {
		cfg, err := experiments.DefaultScenarioWith(metric.SPP, topologySeed, sourcesPer, 10)
		cfg.Seed = seed
		cfg.Protocol = proto
		return cfg, err
	}
}

func metro1k(mobile bool) func(uint64) (experiments.ScenarioConfig, error) {
	return func(seed uint64) (experiments.ScenarioConfig, error) {
		cfg, err := experiments.MetroScenario(1000, topologySeed)
		cfg.Seed = seed
		if mobile {
			cfg.Mobility = &mobility.Config{Model: mobility.ModelWaypoint, MaxSpeedMps: 10}
		}
		return cfg, err
	}
}

// workloads lists the benchmark's inputs in reporting order. A timed rep
// simulates a slice of the traffic window ISSUE 11 names, about half a second
// of host time, because each rep draws its own RNG streams and one run's
// median has to average over a few dozen of them to repeat across seeds; the
// traced run simulates the whole window.
var workloads = []workload{
	{
		name: "paper50-spp", holdDepth: 256, proto: "odmrp",
		why:          "unit of the paper sweep: ODMRP + SPP probing on the 50-node topology; the event queue dominates, so queue work shows here",
		scenario:     paper50(1, ""),
		trafficStart: 20 * time.Second, duration: 45 * time.Second, tracedDuration: 200 * time.Second,
	},
	{
		name: "metro1k-minhop", holdDepth: 4096, metro: true, proto: "odmrp",
		why:          "1000 nodes, no probing: PHY fan-out to hundreds of receivers and a deep queue; linkquality and metric changes must not move it",
		scenario:     metro1k(false),
		trafficStart: time.Second, duration: 7 * time.Second, tracedDuration: 26 * time.Second,
	},
	{
		name: "mobility1k-waypoint", holdDepth: 4096, metro: true, proto: "odmrp",
		why:          "metro1k with moving radios: candidate-list invalidation and rebuilds beside fan-out, so a static gain that taxes moves shows",
		scenario:     metro1k(true),
		trafficStart: time.Second, duration: 6 * time.Second, tracedDuration: 21 * time.Second,
	},
	{
		name: "paper50-mcst-3src", holdDepth: 256, proto: "mcst",
		why:          "the other protocol with three sources per group: saturated MAC, queue drops and collisions; guards protocol-kernel refactors",
		scenario:     paper50(3, "mcst"),
		trafficStart: 20 * time.Second, duration: 35 * time.Second, tracedDuration: 140 * time.Second,
	},
	{
		name: "testbed8-pp", holdDepth: 32, proto: "odmrp",
		why:          "the 8-node testbed: shallow queue, so allocation, GC and MAC slot timers carry the time; a queue-only change should move it least",
		trafficStart: 100 * time.Second, duration: 1100 * time.Second, tracedDuration: 4100 * time.Second,
	},
	{
		name: "paper50-spp-observed", holdDepth: 256, proto: "odmrp", observed: true,
		why:          "paper50-spp with telemetry recorder and span writer on: observability overhead is the workload; paper50-spp bypasses it",
		scenario:     paper50(1, ""),
		trafficStart: 20 * time.Second, duration: 45 * time.Second, tracedDuration: 200 * time.Second,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick returns w with its traffic windows divided by 20 (the warm-up is
// kept, so short and long runs start traffic on the same estimator state).
func (w workload) quick() workload {
	shrink := func(d time.Duration) time.Duration {
		return w.trafficStart + max((d-w.trafficStart)/20, time.Second).Round(time.Second)
	}
	w.duration, w.tracedDuration = shrink(w.duration), shrink(w.tracedDuration)
	return w
}

// traced returns w with the traced run's length as its duration.
func (w workload) traced() workload {
	w.duration = w.tracedDuration
	return w
}

// repSeed is the scenario seed of rep i of a run.
func repSeed(seed uint64, rep int) uint64 {
	return seed + uint64(rep)*repSeedStride
}

// outcome is what one complete run produced, reduced to what the benchmark
// checks and reports.
type outcome struct {
	simSeconds float64
	cpu        time.Duration // host CPU time of the run, see cpuNow
	wall       time.Duration
	events     uint64 // 0 on the testbed path, which does not expose it
	// digest covers every deterministic simulated result; digestNoEvents
	// leaves the event count out, because an attached sampler adds events
	// without changing behaviour.
	digest         string
	digestNoEvents string
	sent           uint64
	delivered      uint64
	pdr            float64
	meanDelayS     float64
}

// check applies the invariants every run must satisfy whatever its seed.
func (o *outcome) check(members int) error {
	switch {
	case o.delivered == 0:
		return fmt.Errorf("nothing delivered (sent %d)", o.sent)
	case !(o.pdr > 0 && o.pdr <= 1):
		return fmt.Errorf("PDR %v outside (0, 1]", o.pdr)
	case o.delivered > o.sent*uint64(members):
		return fmt.Errorf("delivered %d > sent %d × members %d", o.delivered, o.sent, members)
	}
	return nil
}

func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// observers holds the sinks a run writes to besides its result.
type observers struct {
	dir      string
	rec      *telemetry.Recorder
	spanFile *os.File
	spanBuf  *bufio.Writer
	spanOut  countingWriter
	spans    *trace.SpanJSONLWriter
}

// countingWriter counts the bytes and lines (one span each) passing through.
type countingWriter struct {
	w            io.Writer
	bytes, lines int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes += int64(len(p))
	c.lines += int64(bytes.Count(p, []byte{'\n'}))
	return c.w.Write(p)
}

// attach wires a recorder (and, for the observed workload, a span writer over
// a 1 MB buffer) into cfg. interval is the sampler period: the scenario
// duration keeps counters live and the sampler idle.
func attach(cfg *experiments.ScenarioConfig, scratch string, interval time.Duration, withSpans bool) (*observers, error) {
	dir, err := os.MkdirTemp(scratch, "obs-")
	if err != nil {
		return nil, err
	}
	o := &observers{dir: dir}
	if o.rec, err = telemetry.NewRecorder(filepath.Join(dir, "telemetry"), interval); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cfg.Telemetry = o.rec
	if withSpans {
		if o.spanFile, err = os.Create(filepath.Join(dir, "spans.jsonl")); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		o.spanBuf = bufio.NewWriterSize(o.spanFile, 1<<20)
		o.spanOut.w = o.spanBuf
		o.spans = trace.NewSpanJSONLWriter(&o.spanOut)
		cfg.SpanSink = o.spans
	}
	return o, nil
}

// finish flushes the sinks, removes the artifacts and returns the size of the
// telemetry directory.
func (o *observers) finish() (telemetryBytes int64, err error) {
	defer os.RemoveAll(o.dir)
	if o.spans != nil {
		if err := o.spans.Flush(); err != nil {
			return 0, fmt.Errorf("flush spans: %w", err)
		}
		if err := o.spanBuf.Flush(); err != nil {
			return 0, fmt.Errorf("flush spans: %w", err)
		}
		if err := o.spanFile.Close(); err != nil {
			return 0, fmt.Errorf("close spans: %w", err)
		}
	}
	err = filepath.Walk(filepath.Join(o.dir, "telemetry"), func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			telemetryBytes += fi.Size()
		}
		return err
	})
	return telemetryBytes, err
}

// runOnce executes one complete run of w at the given scenario seed through
// the program's entry point. counters, when non-nil, attaches a recorder whose
// sampler stays idle and receives the final registry snapshot plus artifact
// sizes; the observed workload attaches its own sinks either way.
func (w workload) runOnce(seed uint64, scratch string, counters map[string]float64) (*outcome, error) {
	if w.scenario == nil {
		cfg := testbed.DefaultConfig(metric.PP, seed)
		cfg.WarmupSeconds = int(w.trafficStart / time.Second)
		cfg.TrafficSeconds = int((w.duration - w.trafficStart) / time.Second)
		start, startCPU := time.Now(), cpuNow()
		res, err := testbed.Run(cfg)
		cpu, wall := cpuNow()-startCPU, time.Since(start)
		if err != nil {
			return nil, err
		}
		d := digestOf(res.Summary, res.PerMember, res.Delay, res.Series)
		return &outcome{
			simSeconds: w.duration.Seconds(), cpu: cpu, wall: wall,
			digest: d, digestNoEvents: d,
			sent: res.Summary.PacketsSent, delivered: res.Summary.PacketsDelivered,
			pdr: res.Summary.PDR, meanDelayS: res.Summary.MeanDelaySeconds,
		}, nil
	}

	cfg, err := w.scenario(seed)
	if err != nil {
		return nil, err
	}
	cfg.TrafficStart, cfg.Duration = w.trafficStart, w.duration
	if cfg.Mobility != nil {
		cfg.Mobility.Start = cfg.TrafficStart
	}
	var obs *observers
	switch {
	case w.observed:
		obs, err = attach(&cfg, scratch, telemetry.DefaultSampleInterval, true)
	case counters != nil:
		obs, err = attach(&cfg, scratch, cfg.Duration, false)
	}
	if err != nil {
		return nil, err
	}
	start, startCPU := time.Now(), cpuNow()
	res, err := experiments.RunScenario(cfg)
	cpu, wall := cpuNow()-startCPU, time.Since(start)
	if obs != nil {
		snap := obs.rec.Registry().Snapshot()
		telemBytes, ferr := obs.finish()
		if err == nil {
			err = ferr
		}
		if counters != nil {
			for name, v := range snap.Counters {
				counters[name] = float64(v)
			}
			if obs.spans != nil {
				counters["trace.spans"] = float64(obs.spanOut.lines)
				counters["trace.artifact_bytes"] = float64(obs.spanOut.bytes)
				counters["telemetry.artifact_bytes"] = float64(telemBytes)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	parts := []any{res.Summary, res.PerMember, res.Delay, res.ControlBytes, res.ProbeBytes, res.MACCollisions, res.DataForwards}
	return &outcome{
		simSeconds: cfg.Duration.Seconds(), cpu: cpu, wall: wall, events: res.Events,
		digest:         digestOf(append(parts, res.Events)...),
		digestNoEvents: digestOf(parts...),
		sent:           res.Summary.PacketsSent, delivered: res.Summary.PacketsDelivered,
		pdr: res.Summary.PDR, meanDelayS: res.Summary.MeanDelaySeconds,
	}, nil
}

// members is the number of receivers a sent packet can reach, the PDR
// denominator's multiplier.
func (w workload) members() int {
	if w.scenario == nil {
		return 2 // testbed.PaperScenario: two members per group
	}
	return 10
}

// setupOnce performs everything a run does before traffic starts: building
// the config, the stack and the warm-up probing (a run truncated at
// TrafficStart), then priming every candidate list on a fresh medium. Its
// parts are timed as spans under parent.
func (w workload) setupOnce(seed uint64, sp *spanLog, parent int) error {
	if w.scenario == nil {
		id := sp.begin("setup.stack", parent)
		cfg := testbed.DefaultConfig(metric.PP, seed)
		cfg.WarmupSeconds = int(w.trafficStart / time.Second)
		cfg.TrafficSeconds = 0
		_, err := testbed.Run(cfg)
		sp.end(id)
		return err
	}
	id := sp.begin("setup.build", parent)
	cfg, err := w.scenario(seed)
	sp.end(id)
	if err != nil {
		return err
	}
	cfg.TrafficStart, cfg.Duration = w.trafficStart, w.trafficStart
	if cfg.Mobility != nil {
		cfg.Mobility.Start = cfg.TrafficStart
	}
	id = sp.begin("setup.stack", parent)
	_, err = experiments.RunScenario(cfg)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin("setup.prime", parent)
	engine, _, radios := newMedium(cfg.Topology, seed)
	frame := dataFrame()
	for _, r := range radios {
		frame.Src = r.ID
		r.Transmit(frame)
		engine.RunAll()
	}
	sp.end(id)
	return nil
}

// newMedium attaches one radio per topology position to a fresh medium with
// the scenario's propagation models.
func newMedium(topo *topology.Topology, seed uint64) (*sim.Engine, *phy.Medium, []*phy.Radio) {
	engine := sim.NewEngine(seed)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.Rayleigh{}, phy.DefaultParams())
	radios := make([]*phy.Radio, topo.NodeCount())
	for i, pos := range topo.Positions {
		radios[i] = medium.AttachRadio(packet.NodeID(i), pos)
	}
	return engine, medium, radios
}

func dataFrame() *packet.Frame {
	return &packet.Frame{
		Kind:    packet.FrameData,
		Dst:     packet.Broadcast,
		Payload: &packet.Packet{Kind: packet.TypeData, PayloadBytes: 512},
	}
}
