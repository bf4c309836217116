// Command meshsim runs one mesh-network multicast simulation and prints the
// resulting statistics. It exposes the paper's §4.1 scenario knobs on the
// command line.
//
// Usage:
//
//	go run ./cmd/meshsim -metric spp -seed 1 -seconds 100
//	go run ./cmd/meshsim -metric minhop -nodes 30 -side 800 -groups 1
//	go run ./cmd/meshsim -metric pp -probe-rate 5 -v
//	go run ./cmd/meshsim -metric spp -churn 0.25 -seconds 200
//	go run ./cmd/meshsim -metric ett -fault-script faults.json
//	go run ./cmd/meshsim -metric spp -telemetry out/ -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strings"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/faults"
	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/multicast"
	_ "meshcast/internal/multicast/protocols" // populate the protocol registry
	"meshcast/internal/packet"
	"meshcast/internal/prof"
	"meshcast/internal/propagation"
	"meshcast/internal/telemetry"
	"meshcast/internal/trace"
)

// options collects the flag-built run configuration.
type options struct {
	Metric    string
	Protocol  string
	Seed      uint64
	Nodes     int
	Side      float64
	Groups    int
	Sources   int
	Members   int
	Seconds   int
	Warmup    int
	ProbeRate float64
	NoFading  bool
	Verbose   bool
	Trace     string
	Spans     string

	// Churn enables MTBF/MTTR node churn over this fraction of nodes
	// (0 = off); ChurnMTBF and ChurnMTTR shape the renewal process.
	Churn     float64
	ChurnMTBF time.Duration
	ChurnMTTR time.Duration
	// FaultScript loads a JSON fault plan (outages, link faults,
	// partitions, churn) from a file; combinable with Churn.
	FaultScript string

	// Mobility selects a mobility model (waypoint, rpgm, corridor; empty
	// disables motion). Speed is the maximum node speed in m/s and Pause
	// the waypoint dwell time. Motion starts when traffic starts (after
	// warmup) so metrics converge on the static topology first.
	Mobility string
	Speed    float64
	Pause    time.Duration

	// Telemetry, when non-empty, writes the run's series.jsonl and
	// manifest.json to this directory (see cmd/meshstat);
	// TelemetryInterval is the virtual-time sampling interval.
	Telemetry         string
	TelemetryInterval time.Duration
	// CPUProfile / MemProfile write runtime/pprof profiles.
	CPUProfile string
	MemProfile string
}

// defaultOptions mirrors the flag defaults, for tests that call run directly.
func defaultOptions() options {
	return options{
		Metric:    "spp",
		Protocol:  multicast.Default,
		Seed:      1,
		Nodes:     50,
		Side:      1000,
		Groups:    2,
		Sources:   1,
		Members:   10,
		Seconds:   100,
		Warmup:    100,
		ProbeRate: 1,
		ChurnMTBF: 60 * time.Second,
		ChurnMTTR: 15 * time.Second,
		Speed:     5,

		TelemetryInterval: telemetry.DefaultSampleInterval,
	}
}

func main() {
	def := defaultOptions()
	var opt options
	flag.StringVar(&opt.Metric, "metric", def.Metric, "routing metric: minhop, etx, ett, pp, metx, spp")
	flag.StringVar(&opt.Protocol, "protocol", def.Protocol, "multicast protocol: "+strings.Join(multicast.Names(), ", "))
	flag.Uint64Var(&opt.Seed, "seed", def.Seed, "random seed (topology + all protocol randomness)")
	flag.IntVar(&opt.Nodes, "nodes", def.Nodes, "number of mesh nodes")
	flag.Float64Var(&opt.Side, "side", def.Side, "deployment square side in metres")
	flag.IntVar(&opt.Groups, "groups", def.Groups, "number of multicast groups")
	flag.IntVar(&opt.Sources, "sources", def.Sources, "sources per group")
	flag.IntVar(&opt.Members, "members", def.Members, "receiver members per group")
	flag.IntVar(&opt.Seconds, "seconds", def.Seconds, "traffic seconds")
	flag.IntVar(&opt.Warmup, "warmup", def.Warmup, "probe warmup seconds before traffic")
	flag.Float64Var(&opt.ProbeRate, "probe-rate", def.ProbeRate, "probing rate factor (5 = high-overhead column)")
	flag.BoolVar(&opt.NoFading, "no-fading", def.NoFading, "disable Rayleigh fading")
	flag.BoolVar(&opt.Verbose, "v", def.Verbose, "print per-member delivery ratios")
	flag.StringVar(&opt.Trace, "trace", def.Trace, "comma-separated packet types whose journey spans are printed to stderr ("+traceNames+")")
	flag.StringVar(&opt.Spans, "spans", def.Spans, "record packet-journey spans to this JSONL file (see meshstat -journeys, meshdump)")
	flag.Float64Var(&opt.Churn, "churn", def.Churn, "fraction of nodes subject to crash/restart churn (0 disables)")
	flag.DurationVar(&opt.ChurnMTBF, "churn-mtbf", def.ChurnMTBF, "mean time between failures per churned node")
	flag.DurationVar(&opt.ChurnMTTR, "churn-mttr", def.ChurnMTTR, "mean time to repair per churned node")
	flag.StringVar(&opt.FaultScript, "fault-script", def.FaultScript, "JSON fault plan (outages, link faults, partitions, churn)")
	flag.StringVar(&opt.Mobility, "mobility", def.Mobility, "mobility model: waypoint, rpgm, corridor (empty disables motion)")
	flag.Float64Var(&opt.Speed, "speed", def.Speed, "maximum node speed in m/s for -mobility")
	flag.DurationVar(&opt.Pause, "pause", def.Pause, "waypoint pause time for -mobility")
	flag.StringVar(&opt.Telemetry, "telemetry", def.Telemetry, "write telemetry artifacts (series.jsonl, manifest.json) to this directory (see cmd/meshstat)")
	flag.DurationVar(&opt.TelemetryInterval, "telemetry-interval", def.TelemetryInterval, "virtual-time sampling interval for -telemetry")
	flag.StringVar(&opt.CPUProfile, "cpuprofile", def.CPUProfile, "write a CPU profile to this file")
	flag.StringVar(&opt.MemProfile, "memprofile", def.MemProfile, "write a heap profile to this file on exit")
	scenario := flag.String("scenario", "", "run a JSON scenario spec instead of the flag-built one")
	flag.Parse()
	stop, err := prof.Start(opt.CPUProfile, opt.MemProfile)
	if err != nil {
		log.Fatal(err)
	}
	if *scenario != "" {
		err = runSpec(*scenario, opt)
	} else {
		err = run(opt)
	}
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		log.Fatal(err)
	}
}

// newRecorder builds the run's telemetry recorder when -telemetry is set.
func newRecorder(opt options) (*telemetry.Recorder, error) {
	if opt.Telemetry == "" {
		return nil, nil
	}
	if opt.TelemetryInterval <= 0 {
		return nil, fmt.Errorf("-telemetry-interval must be positive, got %v", opt.TelemetryInterval)
	}
	return telemetry.NewRecorder(opt.Telemetry, opt.TelemetryInterval)
}

// runSpec executes a declarative JSON scenario.
func runSpec(path string, opt options) error {
	spec, err := experiments.LoadSpec(path)
	if err != nil {
		return err
	}
	cfg, err := spec.Scenario()
	if err != nil {
		return err
	}
	if cfg.Telemetry, err = newRecorder(opt); err != nil {
		return err
	}
	closeSpans, err := attachSpans(&cfg, opt)
	if err != nil {
		return err
	}
	res, err := experiments.RunScenario(cfg)
	if err != nil {
		closeSpans()
		return err
	}
	if err := closeSpans(); err != nil {
		return err
	}
	printResult(res, opt.Verbose)
	noteTelemetry(cfg.Telemetry)
	return nil
}

// attachSpans wires -spans and -trace to the scenario: every packet-journey
// span goes to a JSONL stream for meshstat -journeys, and the spans of the
// packet types -trace names are printed to stderr on their way there. The
// returned close function flushes and closes the file.
func attachSpans(cfg *experiments.ScenarioConfig, opt options) (func() error, error) {
	pkts, err := parseTrace(opt.Trace)
	if err != nil {
		return nil, err
	}
	closeSpans := func() error { return nil }
	if opt.Spans != "" {
		f, err := os.Create(opt.Spans)
		if err != nil {
			return nil, fmt.Errorf("-spans: %w", err)
		}
		w := trace.NewSpanJSONLWriter(f)
		cfg.SpanSink = w
		closeSpans = func() error {
			flushErr := w.Flush()
			closeErr := f.Close()
			if flushErr != nil {
				return fmt.Errorf("-spans: %w", flushErr)
			}
			if closeErr != nil {
				return fmt.Errorf("-spans: %w", closeErr)
			}
			fmt.Fprintf(os.Stderr, "spans: wrote %s (try: go run ./cmd/meshstat -journeys %s)\n", opt.Spans, opt.Spans)
			return nil
		}
	}
	if pkts != nil {
		cfg.SpanSink = &spanPrinter{w: os.Stderr, pkts: pkts, next: cfg.SpanSink}
	}
	return closeSpans, nil
}

// noteTelemetry points the user at the artifacts on stderr (stdout stays
// byte-identical with and without -telemetry).
func noteTelemetry(rec *telemetry.Recorder) {
	if rec != nil {
		fmt.Fprintf(os.Stderr, "telemetry: wrote %s and %s under %s (try: go run ./cmd/meshstat %s)\n",
			telemetry.SeriesFile, telemetry.ManifestFile, rec.Dir(), rec.Dir())
	}
}

// tracePkts maps each -trace name to the packet type whose spans it
// selects; traceNames lists the names in help order.
var tracePkts = map[string]packet.Type{
	"query": packet.TypeJoinQuery,
	"reply": packet.TypeJoinReply,
	"data":  packet.TypeData,
	"core":  packet.TypeCoreAnnounce,
	"join":  packet.TypeTreeJoin,
}

const traceNames = "query,reply,data,core,join"

// parseTrace maps -trace names to the set of packet types to print; nil when
// the flag is empty.
func parseTrace(s string) (map[packet.Type]bool, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[packet.Type]bool)
	for _, part := range strings.Split(s, ",") {
		pkt, ok := tracePkts[strings.TrimSpace(part)]
		if !ok {
			return nil, fmt.Errorf("unknown trace category %q (valid: %s)", part, traceNames)
		}
		out[pkt] = true
	}
	return out, nil
}

// spanPrinter is the -trace sink: it prints the spans of the selected packet
// types, one line each, and passes every span and record on to next (the
// -spans writer) when there is one. A frame's phy-arrive record prints as the
// spans it stands for when the frame has left the air, up to one airtime
// after its first decode.
type spanPrinter struct {
	w       io.Writer
	pkts    map[packet.Type]bool
	next    trace.SpanSink
	scratch []trace.Span
}

func (p *spanPrinter) EmitSpan(s trace.Span) {
	if p.pkts[s.PktKind] {
		fmt.Fprintln(p.w, s)
	}
	if p.next != nil {
		p.next.EmitSpan(s)
	}
}

func (p *spanPrinter) EmitArrivals(a *trace.Arrivals) {
	if p.pkts[a.PktKind] {
		p.scratch = a.AppendSpans(p.scratch[:0])
		for _, s := range p.scratch {
			fmt.Fprintln(p.w, s)
		}
	}
	if p.next != nil {
		p.next.EmitArrivals(a)
	}
}

// faultPlan assembles the fault plan from -fault-script and -churn.
func faultPlan(opt options) (*faults.Plan, error) {
	var plan faults.Plan
	if opt.FaultScript != "" {
		p, err := faults.LoadPlan(opt.FaultScript)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	if opt.Churn > 0 {
		if plan.Churn != nil {
			return nil, fmt.Errorf("churn configured both by -churn and by the fault script")
		}
		plan.Churn = &faults.ChurnModel{
			Fraction: opt.Churn,
			MTBF:     opt.ChurnMTBF,
			MTTR:     opt.ChurnMTTR,
			// Churn only the measurement window: the warmup exists to give
			// every metric converged estimates to start from.
			Start: time.Duration(opt.Warmup) * time.Second,
		}
	}
	if plan.Empty() {
		return nil, nil
	}
	return &plan, nil
}

// flagNames turns the ScenarioConfig field an input rule rejects into the
// flags that set it.
var flagNames = map[string]string{
	"Topology":        "-nodes/-side",
	"Groups":          "-groups/-sources/-members",
	"Protocol":        "-protocol",
	"TrafficStart":    "-warmup",
	"Duration":        "-seconds",
	"ProbeRateFactor": "-probe-rate",
}

func run(opt options) error {
	// Negated so that NaN fails too; faultPlan reads -churn below zero as none.
	if !(opt.Churn >= 0 && opt.Churn <= 1) {
		return fmt.Errorf("-churn must be a fraction in [0, 1], got %v", opt.Churn)
	}
	// -warmup and -seconds count whole seconds; past a time.Duration's ~292
	// years their sum would wrap into a valid-looking run.
	const maxSeconds = math.MaxInt64 / int64(time.Second)
	if w := int64(opt.Warmup); w < -maxSeconds || w > maxSeconds {
		return fmt.Errorf("-warmup: %d s overflows a time.Duration", opt.Warmup)
	}
	if s := int64(opt.Seconds); s < -maxSeconds-int64(opt.Warmup) || s > maxSeconds-int64(opt.Warmup) {
		return fmt.Errorf("-seconds: %d s after %d s of warmup overflows a time.Duration", opt.Seconds, opt.Warmup)
	}
	kind, err := metric.ParseKind(opt.Metric)
	if err != nil {
		return err
	}
	plan, err := faultPlan(opt)
	if err != nil {
		return err
	}
	cfg, err := experiments.ShapedScenario(kind, opt.Seed, experiments.Shape{
		Nodes: opt.Nodes, SideM: opt.Side, Groups: opt.Groups, SourcesPer: opt.Sources, MembersPer: opt.Members,
	})
	if err != nil {
		return experiments.NameInput(err, flagNames)
	}
	cfg.Protocol = opt.Protocol
	cfg.Duration = time.Duration(opt.Warmup+opt.Seconds) * time.Second
	cfg.ProbeRateFactor = opt.ProbeRate
	cfg.TrafficStart = time.Duration(opt.Warmup) * time.Second
	cfg.Faults = plan
	if opt.Mobility != "" {
		cfg.Mobility = &mobility.Config{
			Model:       opt.Mobility,
			MaxSpeedMps: opt.Speed,
			Pause:       opt.Pause,
			Start:       cfg.TrafficStart,
		}
	}
	if opt.NoFading {
		cfg.Fading = propagation.NoFading{}
	}
	if cfg.Telemetry, err = newRecorder(opt); err != nil {
		return err
	}
	closeSpans, err := attachSpans(&cfg, opt)
	if err != nil {
		return err
	}

	start := time.Now()
	res, err := experiments.RunScenario(cfg)
	if err != nil {
		closeSpans()
		return experiments.NameInput(err, flagNames)
	}
	if err := closeSpans(); err != nil {
		return err
	}

	proto, _ := multicast.Resolve(cfg.Protocol)
	fmt.Printf("protocol=%s metric=%s nodes=%d area=%.0fx%.0fm groups=%d sources/group=%d members/group=%d\n",
		proto, kind, opt.Nodes, opt.Side, opt.Side, opt.Groups, opt.Sources, opt.Members)
	// Wall-clock timing goes to stderr: stdout must be byte-identical across
	// same-seed runs so churn results can be diffed.
	fmt.Fprintf(os.Stderr, "simulated %ds traffic (+%ds warmup) in %s (%d events)\n",
		opt.Seconds, opt.Warmup, time.Since(start).Round(time.Millisecond), res.Events)
	printResult(res, opt.Verbose)
	noteTelemetry(cfg.Telemetry)
	return nil
}

// printResult renders a run's summary.
func printResult(res *experiments.RunResult, verbose bool) {
	s := res.Summary
	fmt.Printf("packets: sent %d, delivered %d (x receivers)\n", s.PacketsSent, s.PacketsDelivered)
	fmt.Printf("mean delivery ratio: %.1f%% (fairness %.2f)\n", 100*s.PDR, s.Fairness)
	fmt.Printf("mean end-to-end delay: %.2f ms (p50 %.2f / p99 %.2f / max %.2f)\n",
		1000*s.MeanDelaySeconds,
		res.Delay.P50.Seconds()*1000, res.Delay.P99.Seconds()*1000, res.Delay.Max.Seconds()*1000)
	fmt.Printf("probe overhead: %.2f%% of data bytes received (%d probe bytes)\n",
		s.ProbeOverheadPct, res.ProbeBytes)
	fmt.Printf("control bytes (queries+replies): %d; data rebroadcasts: %d; PHY collisions: %d\n",
		res.ControlBytes, res.DataForwards, res.MACCollisions)
	if res.Health != nil {
		fmt.Printf("faults: %d outage episodes\n", res.Faulted)
		for _, g := range res.Health {
			fmt.Printf("  %v\n", g)
		}
	}
	if res.Mobility != nil {
		m := res.Mobility
		fmt.Printf("mobility: model=%s max-speed=%.1fm/s moves=%d link breaks=%d (%.2f/s) forms=%d\n",
			m.Model, m.MaxSpeedMps, m.Moves, m.LinkBreaks, m.BreakRatePerSec, m.LinkForms)
		for _, g := range m.Groups {
			fmt.Printf("  %v\n", g)
		}
	}
	if verbose {
		fmt.Println("per-member delivery:")
		for _, m := range res.PerMember {
			fmt.Printf("  %v\n", m)
		}
	}
}
