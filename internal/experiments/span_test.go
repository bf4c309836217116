package experiments

import (
	"testing"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/telemetry"
	"meshcast/internal/trace"
)

// TestSpanSinkDoesNotChangeResults pins the zero-cost contract from the
// consumer side: attaching a span sink must not perturb the simulation —
// trace IDs are observability metadata, excluded from wire size and RNG.
func TestSpanSinkDoesNotChangeResults(t *testing.T) {
	bare, err := RunScenario(smallScenario(t, metric.SPP, 11, 20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallScenario(t, metric.SPP, 11, 20*time.Second)
	cfg.SpanSink = &trace.SpanBuffer{}
	traced, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if bare.Summary != traced.Summary {
		t.Fatalf("span sink changed the summary:\n%+v\n%+v", bare.Summary, traced.Summary)
	}
	if bare.Events != traced.Events {
		t.Fatalf("span sink changed the event count: %d vs %d", bare.Events, traced.Events)
	}
}

// TestSpanSinkScenarioNotCached: runs with a span sink have side effects
// beyond their RunResult and must never come from the result cache.
func TestSpanSinkScenarioNotCached(t *testing.T) {
	cfg := smallScenario(t, metric.SPP, 11, 20*time.Second)
	if _, ok := ScenarioKey(cfg); !ok {
		t.Fatal("bare scenario not cachable")
	}
	cfg.SpanSink = &trace.SpanBuffer{}
	if _, ok := ScenarioKey(cfg); ok {
		t.Fatal("span-sink scenario reported cachable")
	}
}

// TestScenarioJourneysReconstruct runs a fixed-seed scenario with span
// tracing on and verifies the captured spans rebuild complete forwarding
// trees: every data delivery is explained by a chain of reconstructed
// MAC-tx -> phy-arrive edges back to the source.
func TestScenarioJourneysReconstruct(t *testing.T) {
	cfg := smallScenario(t, metric.SPP, 7, 30*time.Second)
	buf := &trace.SpanBuffer{}
	cfg.SpanSink = buf
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.PacketsDelivered == 0 {
		t.Fatal("scenario delivered nothing; spans prove nothing")
	}

	journeys := trace.Reconstruct(buf.Spans())
	if len(journeys) == 0 {
		t.Fatal("no journeys reconstructed")
	}
	var data, complete, delivered int
	for _, j := range journeys {
		if j.PktKind != packet.TypeData {
			continue
		}
		data++
		delivered += len(j.Deliveries)
		if j.Complete() {
			complete++
		}
	}
	if data == 0 {
		t.Fatal("no data journeys reconstructed")
	}
	// Every data journey's forwarding tree must explain its deliveries.
	if complete != data {
		t.Fatalf("%d of %d data journeys have complete forwarding trees", complete, data)
	}
	// The journeys' deliveries are the scenario's deliveries: each traced
	// delivery span corresponds to one counted member reception.
	if uint64(delivered) != res.Summary.PacketsDelivered {
		t.Fatalf("journeys explain %d deliveries, scenario counted %d",
			delivered, res.Summary.PacketsDelivered)
	}
}

// TestProtocolEventsReadOffSpans checks the four protocol events that used to
// be trace strings against the crash/restart run of each protocol: a raised
// forwarder flag and a core stepping down are span kinds of their own; a
// JOIN REPLY retransmission is a second mac-tx of the same trace ID at the
// same node, as many as odmrp.reply_retransmits counts (less the few whose
// node crashed with them queued); a core failover is an announce originated
// by a source that is not the group's lowest-ID one.
func TestProtocolEventsReadOffSpans(t *testing.T) {
	for _, protocol := range []string{"odmrp", "mcst"} {
		t.Run(protocol, func(t *testing.T) {
			cfg := crashRetryScenario(t, protocol)
			rec, err := telemetry.NewRecorder(t.TempDir(), cfg.Duration)
			if err != nil {
				t.Fatal(err)
			}
			buf := &trace.SpanBuffer{}
			cfg.SpanSink, cfg.Telemetry = buf, rec
			if _, err := RunScenario(cfg); err != nil {
				t.Fatal(err)
			}
			counters := rec.Registry().Snapshot().Counters

			type txKey struct {
				id   uint64
				node packet.NodeID
			}
			kinds := map[trace.SpanKind]int{}
			replyTx := map[txKey]int{}
			announcers := map[packet.NodeID]bool{}
			for _, s := range buf.Spans() {
				kinds[s.Kind]++
				switch {
				case s.Kind == trace.SpanMACTx && s.PktKind == packet.TypeJoinReply:
					replyTx[txKey{s.TraceID, s.Node}]++
				case s.Kind == trace.SpanOriginate && s.PktKind == packet.TypeCoreAnnounce && s.Group == 1:
					announcers[s.Node] = true
				case s.Kind == trace.SpanFlagSet && s.PktKind != packet.TypeJoinReply && s.PktKind != packet.TypeTreeJoin:
					t.Fatalf("flag-set on a %v", s.PktKind)
				case s.Kind == trace.SpanCoreStepdown && s.PktKind != packet.TypeCoreAnnounce:
					t.Fatalf("core-stepdown on a %v", s.PktKind)
				}
			}
			if kinds[trace.SpanFlagSet] == 0 {
				t.Error("no flag-set span")
			}
			if protocol == "odmrp" {
				retx := 0
				for _, n := range replyTx {
					retx += n - 1
				}
				want := int(counters["odmrp.reply_retransmits"])
				if retx == 0 || retx > want || retx < want*9/10 {
					t.Errorf("%d repeated reply mac-tx spans, odmrp.reply_retransmits = %d", retx, want)
				}
				if kinds[trace.SpanCoreStepdown] != 0 {
					t.Error("ODMRP emitted a core-stepdown")
				}
				return
			}
			// Three sources: two step down at once; while the core is down one
			// of them announces, and steps down again when it is back.
			if kinds[trace.SpanCoreStepdown] < 3 {
				t.Errorf("%d core-stepdown spans, want at least 3", kinds[trace.SpanCoreStepdown])
			}
			if len(announcers) != 3 || counters["mcst.core_handovers"] == 0 {
				t.Errorf("group 1 announces originated by %v, core_handovers = %d", announcers, counters["mcst.core_handovers"])
			}
		})
	}
}
