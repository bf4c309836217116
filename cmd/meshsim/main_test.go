package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"meshcast/internal/experiments"
	"meshcast/internal/packet"
	"meshcast/internal/telemetry"
	"meshcast/internal/trace"
)

func TestParseTrace(t *testing.T) {
	got, err := parseTrace("query,data")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[packet.TypeJoinQuery] || !got[packet.TypeData] {
		t.Fatalf("parseTrace = %v", got)
	}
	if got, err := parseTrace(""); err != nil || got != nil {
		t.Fatalf("empty input = %v, %v", got, err)
	}
	// An unknown name — a packet type that is never traced included — fails
	// listing the valid ones.
	for _, bad := range []string{"query,bogus", "probe", "mac"} {
		_, err := parseTrace(bad)
		if err == nil || !strings.Contains(err.Error(), "valid: query,reply,data,core,join") {
			t.Fatalf("parseTrace(%q) error = %v, want one listing the valid names", bad, err)
		}
	}
	got, err = parseTrace(traceNames)
	if err != nil || len(got) != 5 {
		t.Fatalf("all categories = %v, %v", got, err)
	}
	// Whitespace tolerated.
	if got, err := parseTrace(" core , join "); err != nil || len(got) != 2 {
		t.Fatalf("whitespace input = %v, %v", got, err)
	}
}

// captureRun runs the simulation with os.Stdout and os.Stderr redirected to
// files and returns what it wrote to each.
func captureRun(t *testing.T, opt options) (stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outFile, err := os.Create(dir + "/stdout")
	if err != nil {
		t.Fatal(err)
	}
	errFile, err := os.Create(dir + "/stderr")
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outFile, errFile
	runErr := run(opt)
	os.Stdout, os.Stderr = oldOut, oldErr
	outFile.Close()
	errFile.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	out, err := os.ReadFile(outFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	errOut, err := os.ReadFile(errFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), string(errOut)
}

// TestTraceFlagPrintsSelectedSpans drives -trace end to end on a
// three-source MCST run: stdout is the untraced run's, stderr carries one
// span line per step of the selected packet types and nothing of the others,
// a graft raising a forwarder flag among them, and the stream still reaches
// the -spans file whole.
func TestTraceFlagPrintsSelectedSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	opt := tinyOptions()
	opt.Nodes, opt.Side = 12, 500
	opt.Protocol, opt.Sources = "mcst", 3
	plain, _ := captureRun(t, opt)

	opt.Trace = "core,join"
	opt.Spans = t.TempDir() + "/spans.jsonl"
	traced, stderr := captureRun(t, opt)
	if traced != plain {
		t.Fatalf("-trace changed stdout:\n%s\nwithout:\n%s", traced, plain)
	}
	lines, kinds := 0, map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(stderr), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasSuffix(f[0], "s") || !strings.HasPrefix(f[1], "n") {
			continue // the timing and -spans notes
		}
		if f[3] != "CORE_ANNOUNCE" && f[3] != "TREE_JOIN" {
			t.Fatalf("-trace core,join printed %q", line)
		}
		lines++
		kinds[f[2]]++
	}
	if kinds["originate"] == 0 || kinds["flag-set"] == 0 || kinds["core-stepdown"] == 0 {
		t.Fatalf("span kinds printed = %v, want originate, flag-set and core-stepdown among them", kinds)
	}
	spans, err := trace.LoadSpans(opt.Spans)
	if err != nil {
		t.Fatal(err)
	}
	selected, data := 0, 0
	for _, s := range spans {
		switch s.PktKind {
		case packet.TypeCoreAnnounce, packet.TypeTreeJoin:
			selected++
		case packet.TypeData:
			data++
		}
	}
	if selected != lines || data == 0 {
		t.Fatalf("-spans file holds %d core/join spans and %d data spans; stderr printed %d lines", selected, data, lines)
	}
}

// tinyOptions is a seconds-scale run for tests.
func tinyOptions() options {
	opt := defaultOptions()
	opt.Nodes = 6
	opt.Side = 350
	opt.Groups = 1
	opt.Members = 2
	opt.Seconds = 2
	opt.Warmup = 2
	return opt
}

func TestRunRejectsBadInput(t *testing.T) {
	opt := tinyOptions()
	opt.Metric = "bogus"
	if err := run(opt); err == nil {
		t.Fatal("bad metric accepted")
	}
	opt = tinyOptions()
	opt.Protocol = "bogus"
	if err := run(opt); err == nil {
		t.Fatal("bad protocol accepted")
	}
	opt = tinyOptions()
	opt.Trace = "nope"
	if err := run(opt); err == nil || !strings.Contains(err.Error(), "valid: query,reply,data,core,join") {
		t.Fatalf("-trace nope: error = %v, want one listing the valid names", err)
	}
	opt = tinyOptions()
	opt.FaultScript = "/does/not/exist.json"
	if err := run(opt); err == nil {
		t.Fatal("missing fault script accepted")
	}
	opt = tinyOptions()
	opt.Churn = 2
	if err := run(opt); err == nil {
		t.Fatal("churn fraction > 1 accepted")
	}
}

// TestRunRejectsImpossibleShapes covers the group shapes and durations the
// topology cannot hold: they used to panic in DefaultGroups (slice bounds) or
// silently simulate nothing. The area, probe-rate and churn rows used to run
// something other than what was asked: radios in a 0×0 m square, the paper's
// probe rate, no churn. A probe rate that scales the interval to nothing
// used to re-arm the prober at one instant forever, -nodes -3 panicked in
// the topology generator, and a NaN or infinite -speed ran to completion.
func TestRunRejectsImpossibleShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*options)
		want string
	}{
		{"more members than nodes", func(o *options) { o.Members = 60 }, "do not fit in 6 nodes"},
		{"one node", func(o *options) { o.Nodes = 1 }, "do not fit in 1 nodes"},
		{"sources plus members one over", func(o *options) { o.Sources, o.Members = 3, 4 }, "do not fit in 6 nodes"},
		{"no groups", func(o *options) { o.Groups = 0 }, "at least one group"},
		{"no sources", func(o *options) { o.Sources = 0 }, "at least one group"},
		{"no members", func(o *options) { o.Members = 0 }, "at least one group"},
		{"negative members", func(o *options) { o.Members = -1 }, "at least one group"},
		{"negative seconds", func(o *options) { o.Seconds = -5 }, "-seconds: experiments: Duration: must be at least TrafficStart"},
		{"negative warmup", func(o *options) { o.Warmup = -1 }, "must not be negative"},
		{"zero side", func(o *options) { o.Side = 0 }, "-nodes/-side: Topology: cannot be drawn: topology: area"},
		{"negative side", func(o *options) { o.Side = -5 }, "-nodes/-side: Topology: cannot be drawn: topology: area"},
		{"zero probe rate", func(o *options) { o.ProbeRate = 0 }, "-probe-rate: experiments: ProbeRateFactor: must be positive"},
		{"negative probe rate", func(o *options) { o.ProbeRate = -3 }, "-probe-rate: experiments: ProbeRateFactor: must be positive"},
		{"infinite probe rate", func(o *options) { o.ProbeRate = math.Inf(1) }, "-probe-rate: experiments: ProbeRateFactor: must be finite"},
		{"probe interval under a preamble", func(o *options) { o.ProbeRate = 1e9 }, "-probe-rate: experiments: ProbeRateFactor: 1e+09 scales"},
		{"negative nodes", func(o *options) { o.Nodes = -3 }, "-nodes/-side: Topology: cannot be drawn: topology: a topology needs at least one node"},
		{"NaN waypoint speed", func(o *options) { o.Mobility, o.Speed = "waypoint", math.NaN() }, "MaxSpeedMps must be positive and finite"},
		{"infinite waypoint speed", func(o *options) { o.Mobility, o.Speed = "waypoint", math.Inf(1) }, "MaxSpeedMps must be positive and finite"},
		{"negative churn", func(o *options) { o.Churn = -0.2 }, "-churn must be a fraction"},
		{"churn above one", func(o *options) { o.Churn = 1.5 }, "-churn must be a fraction"},
		{"zero telemetry interval", func(o *options) { o.Telemetry, o.TelemetryInterval = t.TempDir(), 0 }, "-telemetry-interval must be positive"},
		{"negative telemetry interval", func(o *options) { o.Telemetry, o.TelemetryInterval = t.TempDir(), -3*time.Second }, "-telemetry-interval must be positive"},
		{"negative waypoint pause", func(o *options) { o.Mobility, o.Pause = "waypoint", -2*time.Second }, "Pause must not be negative"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := tinyOptions()
			tc.set(&opt)
			err := run(opt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error containing %q", err, tc.want)
			}
		})
	}
	// The largest shape that fits still runs.
	opt := tinyOptions()
	opt.Sources, opt.Members = 2, 4
	if err := run(opt); err != nil {
		t.Fatalf("2 sources + 4 members on 6 nodes: %v", err)
	}
}

// within runs f and returns its error, failing the test when f has not
// returned after 10 s.
func within(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("still running after 10 s")
		return nil
	}
}

// TestBadInputNamesFlagOrKey drives each rejected (field, value) row through
// both front ends ScenarioConfig.Validate serves: the flags and a -scenario
// spec. Every row used to run on the spec path: a negative
// sendIntervalMillis never finished, a -5 or 70 000-byte payload reported a
// delay, a negative warmup started traffic before time zero, a negative
// probe rate ran the paper's, a negative shadowing sigma drew mirrored
// fades, a 0 or -500 m side placed the nodes in no area at all, and a
// repeated source started two flows on one node. Each error must name the
// flag or the key.
func TestBadInputNamesFlagOrKey(t *testing.T) {
	base := func() experiments.Spec {
		return experiments.Spec{
			Seed: 1, Metric: "spp", TrafficSeconds: 5,
			Nodes:  []experiments.NodeSpec{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}},
			Groups: []experiments.GroupSpecJSON{{Group: 1, Sources: []int{0}, Members: []int{2}}},
		}
	}
	runSpecOf := func(t *testing.T, s experiments.Spec) error {
		path := t.TempDir() + "/spec.json"
		if err := s.Save(path); err != nil {
			return err
		}
		return within(t, func() error { return runSpec(path, defaultOptions()) })
	}
	if err := runSpecOf(t, base()); err != nil {
		t.Fatalf("the base spec: %v", err)
	}
	random := func(count int, side float64) func(*experiments.Spec) {
		return func(s *experiments.Spec) {
			s.Nodes, s.RandomNodes = nil, &experiments.RandomNodesSpec{Count: count, SideM: side}
		}
	}
	for _, tc := range []struct {
		name string
		// flag sets the field through the flags, spec through the spec;
		// nil when none does.
		flag     func(*options)
		spec     func(*experiments.Spec)
		flagName string
		key      string
	}{
		{"negative send interval", nil, func(s *experiments.Spec) { s.SendIntervalMillis = -10 }, "", "sendIntervalMillis"},
		{"negative payload", nil, func(s *experiments.Spec) { s.PayloadBytes = -5 }, "", "payloadBytes"},
		{"payload over the MSDU", nil, func(s *experiments.Spec) { s.PayloadBytes = 70000 }, "", "payloadBytes"},
		{"negative warmup", func(o *options) { o.Warmup = -3 }, func(s *experiments.Spec) { s.WarmupSeconds = -3 }, "-warmup", "warmupSeconds"},
		{"negative probe rate", func(o *options) { o.ProbeRate = -2 }, func(s *experiments.Spec) { s.ProbeRateFactor = -2 }, "-probe-rate", "probeRateFactor"},
		{"negative shadowing", nil, func(s *experiments.Spec) { s.Fading, s.ShadowSigmaDB = "shadowed-rayleigh", -6 }, "", "shadowSigmaDB"},
		{"zero side", func(o *options) { o.Side = 0 }, random(3, 0), "-side", "randomNodes"},
		{"negative side", func(o *options) { o.Side = -500 }, random(3, -500), "-side", "randomNodes"},
		{"repeated source", nil, func(s *experiments.Spec) { s.Groups[0].Sources = []int{0, 0} }, "", "groups"},
		{"nodes past the ID space", func(o *options) { o.Nodes = 1e11 }, random(1e11, 1000), "-nodes", "randomNodes"},
		// The spec's times are 32-bit and cannot overflow.
		{"warmup past a Duration", func(o *options) { o.Warmup = 1 << 40 }, nil, "-warmup", ""},
		{"seconds past a Duration", func(o *options) { o.Seconds = 18446744074 }, nil, "-seconds", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.flag != nil {
				opt := tinyOptions()
				tc.flag(&opt)
				if err := within(t, func() error { return run(opt) }); err == nil || !strings.Contains(err.Error(), tc.flagName) {
					t.Errorf("flags: run = %v, want an error naming %s", err, tc.flagName)
				}
			}
			if tc.spec != nil {
				s := base()
				tc.spec(&s)
				if err := runSpecOf(t, s); err == nil || !strings.Contains(err.Error(), tc.key) {
					t.Errorf("spec: runSpec = %v, want an error naming %s", err, tc.key)
				}
			}
		})
	}
}

func TestFaultPlanMergesFlagsAndScript(t *testing.T) {
	opt := defaultOptions()
	if plan, err := faultPlan(opt); err != nil || plan != nil {
		t.Fatalf("no-fault options produced %v, %v", plan, err)
	}

	opt.Churn = 0.1
	plan, err := faultPlan(opt)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || plan.Churn == nil || plan.Churn.Fraction != 0.1 {
		t.Fatalf("churn plan = %+v", plan)
	}
	if plan.Churn.MTBF != opt.ChurnMTBF || plan.Churn.MTTR != opt.ChurnMTTR {
		t.Fatalf("churn timing = %+v", plan.Churn)
	}

	// A script with its own churn section conflicts with -churn.
	path := t.TempDir() + "/faults.json"
	if err := os.WriteFile(path, []byte(`{"churn": {"fraction": 0.2, "mtbf_s": 60, "mttr_s": 10}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	opt.FaultScript = path
	if _, err := faultPlan(opt); err == nil {
		t.Fatal("conflicting churn configuration accepted")
	}
	opt.Churn = 0
	plan, err = faultPlan(opt)
	if err != nil || plan == nil || plan.Churn == nil || plan.Churn.Fraction != 0.2 {
		t.Fatalf("script-only plan = %+v, %v", plan, err)
	}
}

func TestRunTinySimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	opt := tinyOptions()
	opt.Verbose = true
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	// With fading disabled.
	opt = tinyOptions()
	opt.Metric = "minhop"
	opt.NoFading = true
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
}

// TestRunWithSpans drives -spans end to end: the file the run leaves loads
// through the one reader and every data packet's forwarding tree explains
// its deliveries, with relays one hop deeper than the source.
func TestRunWithSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	path := t.TempDir() + "/spans.jsonl"
	opt := tinyOptions()
	opt.Spans = path
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	spans, err := trace.LoadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	data, delivered, relayed := 0, 0, 0
	for _, j := range trace.Reconstruct(spans) {
		if j.PktKind != packet.TypeData {
			continue
		}
		data++
		delivered += len(j.Deliveries)
		if !j.Complete() {
			t.Fatalf("data journey %x (seq %d) has a delivery its hops do not reach", j.TraceID, j.Seq)
		}
		if j.Forwards > 0 && j.MaxHopCount > 0 {
			relayed++
		}
	}
	if data == 0 || delivered == 0 {
		t.Fatalf("%d data journeys with %d deliveries in %d spans", data, delivered, len(spans))
	}
	if relayed == 0 {
		t.Fatal("no relayed data journey reports a hop count above 0")
	}
}

func TestRunWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	dir := t.TempDir()
	opt := tinyOptions()
	opt.Telemetry = dir
	opt.TelemetryInterval = time.Second
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters["phy.frames_sent"] == 0 {
		t.Fatal("no frames counted")
	}
	if m.Metric != "spp" || m.Samples == 0 {
		t.Fatalf("manifest = metric %q, %d samples", m.Metric, m.Samples)
	}
	series, err := telemetry.LoadSeries(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != m.Samples {
		t.Fatalf("series has %d samples, manifest says %d", len(series), m.Samples)
	}
}

func TestRunWithChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small simulation")
	}
	opt := tinyOptions()
	opt.Seconds = 20
	opt.Churn = 0.5
	opt.ChurnMTBF = 10_000_000_000 // 10s
	opt.ChurnMTTR = 3_000_000_000  // 3s
	if err := run(opt); err != nil {
		t.Fatal(err)
	}
}

// TestSpanFilePinned pins what the -spans file of two fixed-seed runs decodes
// to: the number of spans and the SHA-256 of the list sorted by every field,
// so the pin holds however the file groups or orders the lines.
func TestSpanFilePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two 120 s simulations")
	}
	for _, tc := range []struct {
		name   string
		set    func(*options)
		spans  int
		digest string
	}{
		{"spp-seed1", func(o *options) { o.Seconds, o.Seed = 20, 1 },
			176551, "72b438e7182cb04e8e6de4cff3254e4d656802c588842f0d242fea1832a20bf6"},
		{"mcst-3src-seed2", func(o *options) { o.Protocol, o.Sources, o.Seconds, o.Seed = "mcst", 3, 20, 2 },
			239758, "10c1c387d6503990dc816e61e5d01f1b752bd281b5e4d48e913e7684a48ded83"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opt := defaultOptions()
			tc.set(&opt)
			opt.Spans = t.TempDir() + "/spans.jsonl"
			captureRun(t, opt)
			spans, err := trace.LoadSpans(opt.Spans)
			if err != nil {
				t.Fatal(err)
			}
			if got := spanDigest(spans); len(spans) != tc.spans || got != tc.digest {
				t.Fatalf("%d spans, digest %s; want %d, %s", len(spans), got, tc.spans, tc.digest)
			}
		})
	}
}

// spanDigest hashes spans in the order of all their fields, time first.
func spanDigest(spans []trace.Span) string {
	key := func(s trace.Span) [9]uint64 {
		return [9]uint64{uint64(s.At), uint64(s.Node), uint64(s.Kind), s.TraceID, uint64(s.Peer),
			uint64(s.PktKind), uint64(s.Group), uint64(s.Seq), uint64(s.Hop)}
	}
	sorted := append([]trace.Span(nil), spans...)
	sort.Slice(sorted, func(i, k int) bool {
		a, b := key(sorted[i]), key(sorted[k])
		for f := range a {
			if a[f] != b[f] {
				return a[f] < b[f]
			}
		}
		return false
	})
	h := sha256.New()
	for _, s := range sorted {
		fmt.Fprintln(h, key(s))
	}
	return hex.EncodeToString(h.Sum(nil))
}
