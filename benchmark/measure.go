package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric of the benchmark: its unit, which direction is
// better and, for end-to-end metrics, the share of the baseline median by
// which it may worsen before a change counts as a regression. absFloor is the
// absolute worsening below which a relative regression is ignored.
type metricDef struct {
	Name     string  `json:"name"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound,omitempty"`
	absFloor float64
}

// endToEnd are the metrics a user of the simulator sees. The bounds follow the
// spread measured between seeds on the two-core reference box, whose speed
// drifts by 10–25 % on its own; see "How steady it is" in README.md.
var endToEnd = []metricDef{
	{Name: "sim_s_per_cpu_s", Unit: "sim_s/cpu_s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, absFloor: 0.020},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, absFloor: 4},
}

// options selects what one workload run measures.
type options struct {
	seed uint64
	// reps and seconds bound the timed phase from below: it runs until both
	// the rep count and the measuring time are reached.
	reps    int
	seconds float64
	quick   bool
	timed   bool // end-to-end metrics
	traced  bool // per-layer ledger and kernels
	outDir  string
}

// samples summarises repeated measurements of one quantity. Five to fifteen
// samples support a median and quartiles but no tail percentile.
type samples struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// quartiles returns the three cut points of sorted values exactly as
// Python's statistics.quantiles(values, n=4) does (the exclusive method), so
// that spreads computed here and by the driver agree.
func quartiles(sorted []float64) (q1, median, q3 float64) {
	n := len(sorted)
	if n == 1 {
		return sorted[0], sorted[0], sorted[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarise(values []float64) samples {
	s := samples{N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	s.Q1, s.Median, s.Q3 = quartiles(sorted)
	return s
}

// spread is the interquartile range as a share of the median.
func (s samples) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// measured is one reported metric value.
type measured struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *samples `json:"samples,omitempty"`
}

// workloadResult is everything one workload run produced.
type workloadResult struct {
	Workload  string              `json:"workload"`
	Why       string              `json:"why"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`
	// Info carries values that are reported but are neither directional
	// metrics nor bounded: simulated outcomes, digests, overhead ratios.
	Info map[string]any `json:"info"`
}

// attempt runs one operation and counts it.
func (r *workloadResult) attempt(name string, fn func() error) bool {
	r.Attempted++
	if err := fn(); err != nil {
		r.Failed++
		r.Failures = append(r.Failures, name+": "+err.Error())
		fmt.Fprintf(os.Stderr, "FAILED %s %s: %v\n", r.Workload, name, err)
		return false
	}
	return true
}

//go:embed expected.json
var expectedJSON []byte

// pinnedDigest returns the rep-0 digest expected.json pins for the workload
// at this seed, or "" when it pins none.
func pinnedDigest(workload string, seed uint64) string {
	var pinned map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &pinned); err != nil {
		return ""
	}
	return pinned[strconv.FormatUint(seed, 10)][workload]
}

// resetPeakRSS returns freed heap pages to the system and restarts the
// kernel's resident-set high-water mark, so that the next peakRSSMB reading
// belongs to the work in between, as it would in a fresh process. It reports
// whether the kernel accepted the reset (Linux ≥ 4.0); if not, the mark keeps
// covering the whole process.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// run measures workload w: the timed phase gives the end-to-end metrics, the
// traced phase the per-layer ones. The two never mix.
func (w workload) run(opt options) *workloadResult {
	res := &workloadResult{Workload: w.name, Why: w.why, Info: map[string]any{"seed": opt.seed}}
	if opt.quick {
		w = w.quick()
	}
	sp := newSpanLog(w.name)
	if opt.timed {
		w.runTimed(opt, sp, res)
	}
	if opt.traced {
		w.runTraced(opt, sp, res)
	}
	res.attempt("write spans", func() (err error) {
		res.Info["spans_file"], err = sp.write(opt.outDir)
		return err
	})
	return res
}

// setupSampleTime is the least CPU time one set-up sample spans. A single
// set-up takes 0.6 ms on the testbed, too short to time on its own, so a
// sample is a batch of them.
const setupSampleTime = 20 * time.Millisecond

// timeSetups performs n set-ups back to back and returns the CPU seconds one
// took.
func (w workload) timeSetups(n int, seed uint64, sp *spanLog, res *workloadResult) (float64, bool) {
	runtime.GC()
	id := sp.begin("setup", 0)
	defer sp.end(id)
	start := cpuNow()
	for i := 0; i < n; i++ {
		if !res.attempt("setup", func() error { return w.setupOnce(seed, sp, id) }) {
			return 0, false
		}
	}
	return (cpuNow() - start).Seconds() / float64(n), true
}

func (w workload) runTimed(opt options, sp *spanLog, res *workloadResult) {
	// One untimed set-up sizes the batch that makes a set-up sample.
	one, ok := w.timeSetups(1, opt.seed, sp, res)
	if !ok {
		return
	}
	batch := 1
	if !opt.quick {
		batch = max(1, min(int(setupSampleTime.Seconds()/one)+1, 64))
	}

	// One untimed run of rep 0 warms the process and is the reference its
	// timed repeat must reproduce bit for bit.
	var reference *outcome
	if !res.attempt("warmup", func() (err error) {
		reference, err = w.runOnce(opt.seed, opt.outDir, nil)
		if err != nil {
			return err
		}
		return reference.check(w.members())
	}) {
		return
	}

	// Set-up samples alternate with the timed reps, so that both medians are
	// taken over the whole measuring time and a slow spell of the machine
	// that lasts a few seconds moves neither.
	var setups, rates, wallRates, peaks []float64
	var repLog []string
	var first *outcome
	minReps := opt.reps
	if opt.quick {
		minReps = 1
	}
	phaseStart := time.Now()
	for rep := 0; rep < minReps || (!opt.quick && time.Since(phaseStart).Seconds() < opt.seconds); rep++ {
		setup, ok := w.timeSetups(batch, opt.seed, sp, res)
		if !ok {
			return
		}
		setups = append(setups, setup)

		perRepPeak := resetPeakRSS()
		id := sp.begin("run.rep."+strconv.Itoa(rep), 0)
		var o *outcome
		var rss float64
		ok = res.attempt("rep "+strconv.Itoa(rep), func() (err error) {
			if o, err = w.runOnce(repSeed(opt.seed, rep), opt.outDir, nil); err != nil {
				return err
			}
			if rss, err = peakRSSMB(); err != nil {
				return err
			}
			if rep == 0 && o.digest != reference.digest {
				return fmt.Errorf("digest %s differs from the warm-up run's %s at the same seed", o.digest, reference.digest)
			}
			return o.check(w.members())
		})
		sp.end(id)
		if !ok {
			continue
		}
		if first == nil {
			first = o
		}
		if !perRepPeak {
			peaks = peaks[:0] // the mark is the process's: only the last reading counts
		}
		peaks = append(peaks, rss)
		rates = append(rates, o.simSeconds/o.cpu.Seconds())
		wallRates = append(wallRates, o.simSeconds/o.wall.Seconds())
		repLog = append(repLog, fmt.Sprintf("cpu %.3f wall %.3f events %d", o.cpu.Seconds(), o.wall.Seconds(), o.events))
	}
	if first == nil {
		return
	}

	rate, setup, rss := summarise(rates), summarise(setups), summarise(peaks)
	res.EndToEnd = map[string]measured{
		"sim_s_per_cpu_s": {Value: rate.Median, Unit: endToEnd[0].Unit, Samples: &rate},
		"setup_s":         {Value: setup.Median, Unit: endToEnd[1].Unit, Samples: &setup},
		"peak_rss_mb":     {Value: rss.Median, Unit: endToEnd[2].Unit, Samples: &rss},
	}
	res.Info["result_digest"] = first.digest
	res.Info["pdr"] = first.pdr
	res.Info["mean_delay_s"] = first.meanDelayS
	res.Info["packets_sent"] = first.sent
	res.Info["packets_delivered"] = first.delivered
	res.Info["rep_sim_seconds"] = first.simSeconds
	res.Info["reps"] = repLog
	res.Info["sim_s_per_wall_s"] = summarise(wallRates).Median
	if !opt.quick {
		pinned := pinnedDigest(w.name, opt.seed)
		switch {
		case pinned == "":
			res.Info["digest_matches_pinned"] = "no digest pinned for this seed"
		case pinned == first.digest:
			res.Info["digest_matches_pinned"] = true
		default:
			res.Info["digest_matches_pinned"] = false
			fmt.Fprintf(os.Stderr, "\n*** %s seed %d: result digest %s differs from the pinned %s — simulated results changed ***\n\n",
				w.name, opt.seed, first.digest, pinned)
		}
	}
}

// runtimeSample reads the runtime's own accounting around a traced run.
type runtimeSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64
	gcCycles            uint64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	out := runtimeSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		out.totalCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[2].Value.Uint64()
	}
	return out
}

// counterNames are the exact counts the ledger reports under the name the
// program's telemetry registry gives them; protocol counters follow in
// protoCounters. sim.events comes from the run result.
var counterNames = []string{
	"phy.frames_sent", "phy.frames_delivered", "phy.collisions", "phy.below_threshold", "phy.radio_moves",
	"mac.enqueued", "mac.queue_drops", "mac.backoffs", "mac.broadcasts_sent", "mac.unicasts_sent",
	"linkquality.probes_sent", "linkquality.probes_received",
	"mobility.moves", "mobility.link_breaks",
	"trace.spans", "trace.artifact_bytes", "telemetry.artifact_bytes",
}

var protoCounters = []string{"control_bytes", "data_forwarded", "data_delivered", "dup_suppressed"}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (w workload) runTraced(opt options, sp *spanLog, res *workloadResult) {
	long := w.traced()
	// The same run without instrumentation: base of the overhead ratio and
	// proof that attaching telemetry does not change behaviour.
	var plain *outcome
	if !res.attempt("traced reference", func() (err error) {
		plain, err = long.runOnce(opt.seed, opt.outDir, nil)
		if err != nil {
			return err
		}
		return plain.check(w.members())
	}) {
		return
	}

	counters := map[string]float64{}
	var traced *outcome
	var profile bytes.Buffer
	runtime.GC()
	before := readRuntime()
	id := sp.begin("run.traced", 0)
	ok := res.attempt("traced run", func() (err error) {
		if err := pprof.StartCPUProfile(&profile); err != nil {
			return err
		}
		traced, err = long.runOnce(opt.seed, opt.outDir, counters)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		if traced.digestNoEvents != plain.digestNoEvents {
			return fmt.Errorf("digest %s differs from the uninstrumented run's %s: telemetry changed behaviour", traced.digestNoEvents, plain.digestNoEvents)
		}
		return nil
	})
	sp.end(id)
	after := readRuntime()
	if !ok {
		return
	}
	var st selfTime
	if !res.attempt("decode profile", func() error {
		stacks, err := decodeProfile(profile.Bytes())
		if err != nil {
			return err
		}
		if st = chargeSamples(stacks); st.totalNs == 0 && !opt.quick {
			return fmt.Errorf("CPU profile holds no samples")
		}
		return nil
	}) {
		return
	}

	m := map[string]float64{}
	for _, l := range layers {
		m[l+".self_s"] = float64(st.byLayer[l]) / 1e9
		m[l+".self_share"] = st.share(st.byLayer[l])
	}
	m["sim.queue_self_share"] = st.share(st.simQueueNs)
	m["sim.alloc_self_share"] = st.share(st.simAllocNs)
	m["ledger.unattributed_share"] = st.share(st.byLayer[layerOther] + st.unresolvedNs)

	for _, name := range counterNames {
		m[name] = counters[name]
	}
	for _, proto := range []string{"odmrp", "mcst"} {
		for _, c := range protoCounters {
			m[proto+"."+c] = counters[proto+"."+c]
		}
		fwd, dlv, dup := m[proto+".data_forwarded"], m[proto+".data_delivered"], m[proto+".dup_suppressed"]
		m[proto+".dup_ratio"] = ratio(dup, dlv+fwd+dup)
	}
	events, frames := float64(traced.events), m["phy.frames_sent"]
	m["sim.events"] = events
	m["sim.events_per_s"] = ratio(events, traced.cpu.Seconds())
	m["sim.self_ns_per_event"] = ratio(float64(st.byLayer["sim"]), events)
	m["sim.events_per_frame"] = ratio(events, frames)
	m["phy.self_ns_per_frame"] = ratio(float64(st.byLayer["phy"]), frames)
	m["phy.delivered_per_frame"] = ratio(m["phy.frames_delivered"], frames)
	m["mac.self_ns_per_frame"] = ratio(float64(st.byLayer["mac"]), frames)
	m["mac.queue_drop_ratio"] = ratio(m["mac.queue_drops"], m["mac.queue_drops"]+m["mac.enqueued"])
	m["runtime.allocs_per_event"] = ratio(float64(after.mallocs-before.mallocs), events)
	m["runtime.alloc_bytes_per_event"] = ratio(float64(after.allocBytes-before.allocBytes), events)
	m["runtime.gc_cpu_share"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	m["runtime.gc_cycles"] = float64(after.gcCycles - before.gcCycles)

	id = sp.begin("kernels", 0)
	res.attempt("kernels", func() error { return w.runKernels(opt.seed, budgetFor(opt.quick), sp, id, m) })
	sp.end(id)

	res.PerLayer = make(map[string]measured, len(m))
	for _, def := range perLayer {
		res.PerLayer[def.Name] = measured{Value: m[def.Name], Unit: def.Unit}
	}
	res.Info["trace_overhead_ratio"] = ratio(traced.cpu.Seconds(), plain.cpu.Seconds())
	res.Info["traced_sim_seconds"] = traced.simSeconds
	res.Info["profile_samples_s"] = float64(st.totalNs) / 1e9
	if w.scenario == nil {
		res.Info["note"] = "testbed.Run exposes neither an event count nor a telemetry registry: exact counts and per-event ratios read 0; self time, runtime and kernel rows are measured"
	}
}

// perLayer lists every per-layer metric in reporting order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, l := range layers {
		add("s", "lower", l+".self_s")
		add("share", "lower", l+".self_share")
	}
	add("share", "lower", "sim.queue_self_share", "sim.alloc_self_share", "ledger.unattributed_share")
	add("count", "lower", "sim.events")
	add("count", "lower", counterNames...)
	for _, proto := range []string{"odmrp", "mcst"} {
		for _, c := range protoCounters {
			add("count", "lower", proto+"."+c)
		}
		add("ratio", "lower", proto+".dup_ratio")
	}
	add("1/s", "higher", "sim.events_per_s")
	add("ns", "lower", "sim.self_ns_per_event", "phy.self_ns_per_frame", "mac.self_ns_per_frame")
	add("ratio", "lower", "sim.events_per_frame", "mac.queue_drop_ratio")
	add("ratio", "higher", "phy.delivered_per_frame")
	add("count", "lower", "runtime.allocs_per_event", "runtime.gc_cycles")
	add("B", "lower", "runtime.alloc_bytes_per_event")
	add("share", "lower", "runtime.gc_cpu_share")
	add("ns", "lower",
		"sim.hold_ns", "sim.closure_schedule_ns", "sim.stop_ns",
		"phy.transmit_ns", "phy.list_build_ns", "phy.move_ns", "phy.move_transmit_ns",
		"mac.broadcast_ns", "mac.unicast_ns",
		"linkquality.observe_probe_ns", "linkquality.estimate_ns", "metric.path_cost_ns",
		"stats.record_delivered_ns", "telemetry.counter_add_ns", "trace.span_off_ns", "trace.span_jsonl_ns")
	add("count", "lower", "phy.receivers_per_transmit", "mac.events_per_broadcast")
	add("s", "lower", "topology.gen_s")
	return defs
}
