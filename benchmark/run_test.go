package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// issueMetricNames are the metric names ISSUE 11 lists, written out here so
// that the test does not depend on the tables it checks.
const issueMetricNames = `
sim_s_per_cpu_s setup_s peak_rss_mb
sim.self_s sim.self_share phy.self_s phy.self_share propagation.self_s propagation.self_share
mac.self_s mac.self_share linkquality.self_s linkquality.self_share metric.self_s metric.self_share
odmrp.self_s odmrp.self_share mcst.self_s mcst.self_share multicast.self_s multicast.self_share
node.self_s node.self_share stats.self_s stats.self_share telemetry.self_s telemetry.self_share
trace.self_s trace.self_share mobility.self_s mobility.self_share testbed.self_s testbed.self_share
experiments.self_s experiments.self_share topology.self_s topology.self_share
runtime.bg.self_s runtime.bg.self_share other.self_s other.self_share
sim.queue_self_share sim.alloc_self_share ledger.unattributed_share
sim.events phy.frames_sent phy.frames_delivered phy.collisions phy.below_threshold phy.radio_moves
mac.enqueued mac.queue_drops mac.backoffs mac.broadcasts_sent mac.unicasts_sent
linkquality.probes_sent linkquality.probes_received
odmrp.control_bytes odmrp.data_forwarded odmrp.data_delivered odmrp.dup_suppressed
mcst.control_bytes mcst.data_forwarded mcst.data_delivered mcst.dup_suppressed
mobility.moves mobility.link_breaks trace.spans trace.artifact_bytes telemetry.artifact_bytes
sim.events_per_s sim.self_ns_per_event sim.events_per_frame phy.self_ns_per_frame phy.delivered_per_frame
mac.self_ns_per_frame mac.queue_drop_ratio odmrp.dup_ratio mcst.dup_ratio
runtime.allocs_per_event runtime.alloc_bytes_per_event runtime.gc_cpu_share runtime.gc_cycles
sim.hold_ns sim.closure_schedule_ns sim.stop_ns phy.transmit_ns phy.receivers_per_transmit phy.list_build_ns
phy.move_ns phy.move_transmit_ns mac.broadcast_ns mac.events_per_broadcast mac.unicast_ns
linkquality.observe_probe_ns linkquality.estimate_ns metric.path_cost_ns stats.record_delivered_ns
telemetry.counter_add_ns trace.span_off_ns trace.span_jsonl_ns topology.gen_s
`

func quickOptions(t *testing.T, seed uint64) options {
	return options{seed: seed, reps: 1, quick: true, timed: true, traced: true, outDir: t.TempDir()}
}

func TestQuickRunReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		res := w.run(quickOptions(t, 1))
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, res.Attempted, res.Failed, res.Failures)
			continue
		}
		for _, name := range strings.Fields(issueMetricNames) {
			m, ok := res.EndToEnd[name]
			if !ok {
				m, ok = res.PerLayer[name]
			}
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", w.name, name)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
				t.Errorf("%s: metric %s = %v, want finite and non-negative", w.name, name, m.Value)
			case m.Unit == "":
				t.Errorf("%s: metric %s has no unit", w.name, name)
			}
		}
		for _, def := range endToEnd {
			if res.EndToEnd[def.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, def.Name, res.EndToEnd[def.Name].Value)
			}
		}
		if w.scenario != nil && res.PerLayer["sim.events"].Value == 0 {
			t.Errorf("%s: no events counted", w.name)
		}
		if w.observed && (res.PerLayer["trace.spans"].Value == 0 || res.PerLayer["trace.artifact_bytes"].Value == 0 || res.PerLayer["telemetry.artifact_bytes"].Value == 0) {
			t.Errorf("%s: observability artifacts not measured: %v", w.name, res.PerLayer["trace.spans"])
		}
		if w.proto == "mcst" && res.PerLayer["mcst.data_delivered"].Value == 0 {
			t.Errorf("%s: protocol counters not read", w.name)
		}
		if w.metro && res.PerLayer["phy.move_ns"].Value == 0 {
			t.Errorf("%s: move kernel not run", w.name)
		}
		if _, err := os.Stat(res.Info["spans_file"].(string)); err != nil {
			t.Errorf("%s: driver spans not written: %v", w.name, err)
		}
	}
}

func TestExactCountsRepeat(t *testing.T) {
	for _, name := range []string{"paper50-mcst-3src", "mobility1k-waypoint"} {
		w, _ := findWorkload(name)
		opt := quickOptions(t, 1)
		opt.timed = false
		a, b := w.run(opt), w.run(opt)
		if a.Failed+b.Failed != 0 {
			t.Fatalf("%s: failures %v %v", name, a.Failures, b.Failures)
		}
		exact := append([]string{"sim.events"}, counterNames...)
		for _, c := range protoCounters {
			exact = append(exact, w.proto+"."+c)
		}
		for _, name := range exact {
			if av, bv := a.PerLayer[name].Value, b.PerLayer[name].Value; av != bv {
				t.Errorf("%s: %s = %v then %v in two runs of one seed", w.name, name, av, bv)
			}
		}
		if a.PerLayer["sim.events"].Value == 0 {
			t.Errorf("%s: no events counted", w.name)
		}
	}
}

func TestDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		w = w.quick()
		var digests [3]string
		for i, seed := range []uint64{1, 1, 2} {
			o, err := w.runOnce(seed, t.TempDir(), nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			if err := o.check(w.members()); err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
			digests[i] = o.digest
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: two runs of seed 1 differ: %s %s", w.name, digests[0], digests[1])
		}
		if digests[0] == digests[2] {
			t.Errorf("%s: seeds 1 and 2 give the same digest %s", w.name, digests[0])
		}
	}
}

func TestOutcomeCheck(t *testing.T) {
	for name, o := range map[string]outcome{
		"nothing delivered":  {sent: 10},
		"PDR above one":      {sent: 10, delivered: 5, pdr: 1.2},
		"more than possible": {sent: 1, delivered: 11, pdr: 0.9},
	} {
		if o.check(10) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ok := outcome{sent: 10, delivered: 60, pdr: 0.6}
	if err := ok.check(10); err != nil {
		t.Errorf("valid outcome rejected: %v", err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	s := summarise([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if s.Q1 != 1.75 || s.Median != 3.5 || s.Q3 != 5.25 || s.Min != 1 || s.Max != 9 || s.N != 10 {
		t.Errorf("summarise = %+v", s)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if s := summarise([]float64{5, 4, 3, 2, 1}); s.Q1 != 1.5 || s.Median != 3 || s.Q3 != 4.5 {
		t.Errorf("summarise = %+v", s)
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file at the repository root
// equal to the definitions in this package and inside the contract's limits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, fromCode any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	generated, _ := json.Marshal(benchmarkJSON())
	json.Unmarshal(generated, &fromCode)
	if !reflect.DeepEqual(onDisk, fromCode) {
		t.Error("BENCHMARK.json differs from the code; regenerate it with -emit-benchmark-json")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(def.Name) || !unit.MatchString(def.Unit) || seen[def.Name] {
			t.Errorf("metric %q unit %q: bad or repeated name", def.Name, def.Unit)
		}
		seen[def.Name] = true
	}
	if len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d per-layer metrics, %d workloads", len(perLayer), len(workloads))
	}
	for _, def := range endToEnd {
		if def.Bound <= 0 || def.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", def.Name, def.Bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(w.why))
		}
		seen[w.name] = true
	}
}
