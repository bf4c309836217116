// Command meshstat analyzes the telemetry artifacts a run writes under
// -telemetry: the manifest's per-layer instrument summaries, the top-N
// counters, virtual-time sparklines from the series stream, and A/B diffs
// between two runs.
//
// Usage:
//
//	go run ./cmd/meshstat out/                 # per-layer summary + sparklines
//	go run ./cmd/meshstat -top 10 out/         # widen the top-counter table
//	go run ./cmd/meshstat -diff outA/ outB/    # per-counter deltas, A vs B
//	go run ./cmd/meshstat -watch 127.0.0.1:8420   # poll a live control plane
//	go run ./cmd/meshstat -journeys out/spans.jsonl  # packet-journey report
//
// -watch polls a running control plane's GET /stats (etherd -listen /
// -soak) once a second and renders one line per window between polls:
// node liveness, medium state, and the window's packet delivery ratio with
// a trailing sparkline — the live view of a fleet dipping under injected
// faults and recovering. A window in which the alive count fell, or whose
// PDR dipped against the armed baseline, is followed by an ANOMALY line. A
// failed poll prints a line and the next tick polls again; counters that
// fell (a restarted backend) start a fresh window rather than a negative
// or duplicated one.
//
// -journeys reconstructs per-packet forwarding trees from a span stream
// (meshsim -spans) and reports the slowest and lossiest journeys with
// per-hop latency breakdowns, plus a per-packet-kind comparison.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"meshcast/internal/ctlplane"
	"meshcast/internal/telemetry"
	"meshcast/internal/viz"
)

func main() {
	topN := flag.Int("top", 5, "how many counters the top-counters table lists")
	diff := flag.Bool("diff", false, "diff two runs: meshstat -diff A B")
	watch := flag.String("watch", "", "control-plane base URL to stream live (host:port or http://...)")
	journeys := flag.Bool("journeys", false, "packet-journey report from a span stream: meshstat -journeys SPANS")
	journeyN := flag.Int("n", 5, "how many slowest/lossiest journeys -journeys details")
	flag.Parse()
	err := checkCounts(*topN, *journeyN)
	switch {
	case err != nil:
	case *watch != "":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = runWatch(ctx, os.Stdout, *watch)
		stop()
	case *journeys:
		if flag.NArg() != 1 {
			err = fmt.Errorf("meshstat -journeys needs a spans.jsonl file or its directory")
			break
		}
		err = runJourneys(os.Stdout, flag.Arg(0), *journeyN)
	case *diff:
		if flag.NArg() != 2 {
			err = fmt.Errorf("meshstat -diff needs exactly two runs, got %d", flag.NArg())
			break
		}
		err = runDiff(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() == 1:
		err = runSummary(os.Stdout, flag.Arg(0), *topN)
	default:
		err = fmt.Errorf("usage: meshstat [-top N] DIR | meshstat -diff A B | meshstat -watch URL | meshstat -journeys SPANS")
	}
	if err != nil {
		log.Fatal(err)
	}
}

// checkCounts rejects a negative -top or -n; zero leaves the table out.
func checkCounts(topN, journeyN int) error {
	if topN < 0 {
		return fmt.Errorf("-top must not be negative, got %d", topN)
	}
	if journeyN < 0 {
		return fmt.Errorf("-n must not be negative, got %d", journeyN)
	}
	return nil
}

// normalizeBase turns a bare host:port into a full http base URL.
func normalizeBase(base string) string {
	if !strings.Contains(base, "://") {
		return "http://" + base
	}
	return base
}

// watchPeriod is how often -watch polls GET /stats.
const watchPeriod = time.Second

// sparkWindow is how many recent windows the -watch sparkline spans.
const sparkWindow = 30

// watchSample is one -watch window: the poll's cumulative stats and the
// counter increments since the previous poll. HasPDR is false on the first
// poll, after a counter reset and in windows with no expected deliveries.
type watchSample struct {
	T     time.Time
	Err   error
	Stats ctlplane.Stats

	DeltaExpected, DeltaDelivered uint64
	PDR                           float64
	HasPDR                        bool
}

// watchLine renders one -watch sample: liveness, medium state, windowed
// PDR with a trailing sparkline of recent windows.
func watchLine(s watchSample, history []float64) string {
	if s.Err != nil {
		return fmt.Sprintf("%s  poll failed: %v", s.T.Format("15:04:05"), s.Err)
	}
	ether := "up"
	if !s.Stats.EtherUp {
		ether = "DOWN"
	}
	pdr := "pdr   -  "
	if s.HasPDR {
		pdr = fmt.Sprintf("pdr %.3f", s.PDR)
	}
	line := fmt.Sprintf("%s  nodes %3d/%-3d  ether %-4s  %s  Δ %d/%d",
		s.T.Format("15:04:05"), s.Stats.NodesAlive, s.Stats.NodesTotal, ether,
		pdr, s.DeltaDelivered, s.DeltaExpected)
	if len(history) > 1 {
		line += "  " + viz.Sparkline(history)
	}
	return line
}

// watcher is what -watch carries from one poll to the next.
type watcher struct {
	prev    *ctlplane.Stats // the last successful poll
	dip     telemetry.PDRDipDetector
	history []float64
}

// step turns one poll, made at t, into the lines it prints: the window
// line, then an ANOMALY line if the alive count fell since the last
// successful poll and one if the window's PDR dipped. A failed poll is one
// line and changes nothing, so the next window spans the gap.
func (w *watcher) step(t time.Time, st ctlplane.Stats, err error) []string {
	if err != nil {
		return []string{watchLine(watchSample{T: t, Err: err}, nil)}
	}
	s := watchSample{T: t, Stats: st}
	var dip bool
	s.DeltaExpected, s.DeltaDelivered, s.PDR, dip = w.dip.Window(st.Expected, st.Delivered)
	if s.HasPDR = s.DeltaExpected > 0; s.HasPDR {
		w.history = append(w.history, s.PDR)
		if len(w.history) > sparkWindow {
			w.history = w.history[len(w.history)-sparkWindow:]
		}
	}
	lines := []string{watchLine(s, w.history)}
	stamp := t.Format("15:04:05")
	if w.prev != nil && st.NodesAlive < w.prev.NodesAlive {
		lines = append(lines, fmt.Sprintf("%s  ANOMALY  node-death alive %d -> %d", stamp, w.prev.NodesAlive, st.NodesAlive))
	}
	if dip {
		lines = append(lines, fmt.Sprintf("%s  ANOMALY  pdr-dip window pdr=%.3f", stamp, s.PDR))
	}
	w.prev = &st
	return lines
}

// runWatch polls the control plane's GET /stats every watchPeriod until
// ctx ends, printing what each poll shows.
func runWatch(ctx context.Context, w io.Writer, base string) error {
	c := ctlplane.NewClient(normalizeBase(base))
	// One probe up front so a wrong URL fails fast instead of printing
	// poll failures forever.
	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("meshstat -watch: %w", err)
	}
	proto := h.Protocol
	if proto == "" {
		proto = "unknown"
	}
	fmt.Fprintf(w, "watching %s/stats (health %s, protocol %s)\n", c.Base, h.Status, proto)
	tick := time.NewTicker(watchPeriod)
	defer tick.Stop()
	var wt watcher
	for {
		st, err := c.Stats(ctx)
		if ctx.Err() != nil {
			return nil
		}
		for _, line := range wt.step(time.Now(), st, err) {
			fmt.Fprintln(w, line)
		}
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
	}
}

// runSummary loads one run's artifacts and renders the full report.
func runSummary(w io.Writer, path string, topN int) error {
	m, err := telemetry.LoadManifest(path)
	if err != nil {
		return err
	}
	series, err := telemetry.LoadAllSeries(path)
	if err != nil {
		return err
	}
	render(w, m, series, topN)
	return nil
}

// runDiff loads two manifests and renders the per-counter comparison.
func runDiff(w io.Writer, pathA, pathB string) error {
	a, err := telemetry.LoadManifest(pathA)
	if err != nil {
		return err
	}
	b, err := telemetry.LoadManifest(pathB)
	if err != nil {
		return err
	}
	renderDiff(w, pathA, a, pathB, b)
	return nil
}

// layer returns the dotted name's layer prefix ("mac.retries" -> "mac").
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// layersOf groups instrument names by layer prefix, both sorted.
func layersOf(names []string) (layers []string, byLayer map[string][]string) {
	byLayer = make(map[string][]string)
	for _, n := range names {
		l := layer(n)
		byLayer[l] = append(byLayer[l], n)
	}
	for l, ns := range byLayer {
		sort.Strings(ns)
		byLayer[l] = ns
		layers = append(layers, l)
	}
	sort.Strings(layers)
	return layers, byLayer
}

// counterDeltas converts a counter's cumulative samples into per-interval
// increments, the shape worth sparklining ("how busy was each window").
func counterDeltas(series []telemetry.SeriesSample, name string) []float64 {
	out := make([]float64, 0, len(series))
	var prev uint64
	for _, s := range series {
		v := s.Counters[name]
		out = append(out, float64(v-prev))
		prev = v
	}
	return out
}

// gaugeValues extracts a gauge's sampled values as-is.
func gaugeValues(series []telemetry.SeriesSample, name string) []float64 {
	out := make([]float64, 0, len(series))
	for _, s := range series {
		out = append(out, s.Gauges[name])
	}
	return out
}

// render writes the full single-run report: identity, derived values,
// per-layer instrument tables with sparklines, and the top-N counters.
func render(w io.Writer, m *telemetry.Manifest, series []telemetry.SeriesSample, topN int) {
	fmt.Fprintf(w, "run: %s\n", m.Label)
	proto := ""
	if m.Protocol != "" {
		proto = fmt.Sprintf(", protocol %s", m.Protocol)
	}
	fmt.Fprintf(w, "  metric %s%s, seed %d, %.0fs simulated, %d samples @ %gs\n",
		m.Metric, proto, m.Seed, m.DurationSeconds, m.Samples, m.IntervalSeconds)
	if m.ConfigHash != "" {
		fmt.Fprintf(w, "  config %s\n", m.ConfigHash)
	}
	if m.Build.GoVersion != "" {
		b := m.Build.GoVersion
		if m.Build.Revision != "" {
			rev := m.Build.Revision
			if len(rev) > 12 {
				rev = rev[:12]
			}
			b += " " + rev
			if m.Build.Dirty {
				b += "-dirty"
			}
		}
		fmt.Fprintf(w, "  build %s\n", b)
	}

	if len(m.Derived) > 0 {
		fmt.Fprintf(w, "\nderived:\n")
		for _, k := range sortedKeys(m.Derived) {
			fmt.Fprintf(w, "  %-24s %.4g\n", k, m.Derived[k])
		}
	}

	names := make([]string, 0, len(m.Counters)+len(m.Gauges)+len(m.Histograms))
	for n := range m.Counters {
		names = append(names, n)
	}
	for n := range m.Gauges {
		names = append(names, n)
	}
	for n := range m.Histograms {
		names = append(names, n)
	}
	layers, byLayer := layersOf(names)
	for _, l := range layers {
		fmt.Fprintf(w, "\n[%s]\n", l)
		for _, n := range byLayer[l] {
			short := strings.TrimPrefix(n, l+".")
			switch {
			case hasCounter(m, n):
				spark := ""
				if len(series) > 1 {
					spark = "  " + viz.Sparkline(counterDeltas(series, n))
				}
				fmt.Fprintf(w, "  %-28s %12d%s\n", short, m.Counters[n], spark)
			case hasGauge(m, n):
				spark := ""
				if len(series) > 1 {
					spark = "  " + viz.Sparkline(gaugeValues(series, n))
				}
				fmt.Fprintf(w, "  %-28s %12g%s\n", short, m.Gauges[n], spark)
			default:
				h := m.Histograms[n]
				fmt.Fprintf(w, "  %-28s %12d  mean %.4g%s\n", short, h.Count, h.Mean(),
					histSpark(h))
			}
		}
	}

	if topN > 0 && len(m.Counters) > 0 {
		fmt.Fprintf(w, "\ntop %d counters:\n", topN)
		type kv struct {
			name  string
			value uint64
		}
		top := make([]kv, 0, len(m.Counters))
		for n, v := range m.Counters {
			top = append(top, kv{n, v})
		}
		sort.Slice(top, func(i, j int) bool {
			if top[i].value != top[j].value {
				return top[i].value > top[j].value
			}
			return top[i].name < top[j].name
		})
		if len(top) > topN {
			top = top[:topN]
		}
		for _, e := range top {
			fmt.Fprintf(w, "  %-32s %12d\n", e.name, e.value)
		}
	}
}

// histSpark renders a histogram's bucket distribution as a sparkline.
func histSpark(h telemetry.HistogramSnapshot) string {
	if h.Count == 0 {
		return ""
	}
	vals := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		vals[i] = float64(c)
	}
	return "  " + viz.Sparkline(vals)
}

func hasCounter(m *telemetry.Manifest, name string) bool {
	_, ok := m.Counters[name]
	return ok
}

func hasGauge(m *telemetry.Manifest, name string) bool {
	_, ok := m.Gauges[name]
	return ok
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// renderDiff writes the per-counter A/B comparison: value in each run,
// absolute delta, and relative change. Counters present in only one run
// show with the other side at 0.
func renderDiff(w io.Writer, labelA string, a *telemetry.Manifest, labelB string, b *telemetry.Manifest) {
	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n\n", labelA, a.Label, labelB, b.Label)
	union := make(map[string]bool, len(a.Counters)+len(b.Counters))
	for n := range a.Counters {
		union[n] = true
	}
	for n := range b.Counters {
		union[n] = true
	}
	fmt.Fprintf(w, "%-32s %14s %14s %14s %9s\n", "counter", "A", "B", "delta", "pct")
	for _, n := range sortedKeys(union) {
		va, vb := a.Counters[n], b.Counters[n]
		delta := int64(vb) - int64(va)
		pct := "-"
		if va != 0 {
			pct = fmt.Sprintf("%+.1f%%", 100*float64(delta)/float64(va))
		}
		fmt.Fprintf(w, "%-32s %14d %14d %+14d %9s\n", n, va, vb, delta, pct)
	}

	keys := make(map[string]bool, len(a.Derived)+len(b.Derived))
	for k := range a.Derived {
		keys[k] = true
	}
	for k := range b.Derived {
		keys[k] = true
	}
	if len(keys) > 0 {
		fmt.Fprintf(w, "\n%-32s %14s %14s\n", "derived", "A", "B")
		for _, k := range sortedKeys(keys) {
			fmt.Fprintf(w, "%-32s %14.4g %14.4g\n", k, a.Derived[k], b.Derived[k])
		}
	}
}
