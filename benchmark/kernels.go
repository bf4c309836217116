package main

import (
	"io"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/linkquality"
	"meshcast/internal/mac"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/stats"
	"meshcast/internal/telemetry"
	"meshcast/internal/testbed"
	"meshcast/internal/topology"
	"meshcast/internal/trace"
)

// Kernels time single layers through their public functions, on the
// workload's own inputs (its topology, its queue depth). They run after the
// timed reps and the traced run and never feed an end-to-end number.

// sink keeps kernel results alive so the compiler cannot drop the calls.
var sink struct {
	f float64
	n uint64
	b bool
}

// kernelBudget sizes a kernel: it grows the operation count until one timed
// call lasts minTime, or runs exactly maxOps when minTime is zero (-quick).
type kernelBudget struct {
	minTime time.Duration
	maxOps  int
}

func budgetFor(quick bool) kernelBudget {
	if quick {
		return kernelBudget{maxOps: 1000}
	}
	return kernelBudget{minTime: 250 * time.Millisecond, maxOps: 1 << 26}
}

// perOp calls fn with growing n — fn sets up, performs n operations and
// returns the time those took — and returns nanoseconds per operation of the
// last call.
func (k kernelBudget) perOp(fn func(n int) time.Duration) float64 {
	n := 1000
	if n > k.maxOps {
		n = k.maxOps
	}
	for {
		d := fn(n)
		if k.minTime == 0 || d >= k.minTime || n >= k.maxOps {
			return float64(d.Nanoseconds()) / float64(n)
		}
		grow := 100.0
		if d > 0 {
			grow = 1.2 * float64(k.minTime) / float64(d)
		}
		if grow > 100 {
			grow = 100
		}
		if grow < 1.5 {
			grow = 1.5
		}
		if n = int(float64(n) * grow); n > k.maxOps {
			n = k.maxOps
		}
	}
}

// kernelMedium returns the radios a PHY kernel transmits between: the
// workload's placement, or the eight testbed routers behind a link oracle.
func (w workload) kernelMedium(seed uint64) (*sim.Engine, *phy.Medium, []*phy.Radio, error) {
	if w.scenario != nil {
		cfg, err := w.scenario(seed)
		if err != nil {
			return nil, nil, nil, err
		}
		e, m, r := newMedium(cfg.Topology, seed)
		return e, m, r, nil
	}
	engine := sim.NewEngine(seed)
	params := phy.DefaultParams()
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, params)
	linked := make(map[[2]packet.NodeID]bool, 2*len(testbed.Links))
	for _, l := range testbed.Links {
		linked[[2]packet.NodeID{l.A, l.B}] = true
		linked[[2]packet.NodeID{l.B, l.A}] = true
	}
	medium.SetLinkFunc(func(tx, rx packet.NodeID, _ time.Duration, _ *sim.RNG) float64 {
		if linked[[2]packet.NodeID{tx, rx}] {
			return params.RxThresholdW * 100
		}
		return 0
	})
	radios := make([]*phy.Radio, len(testbed.NodeIDs))
	for i, id := range testbed.NodeIDs {
		radios[i] = medium.AttachRadio(id, testbed.Positions[id])
	}
	return engine, medium, radios, nil
}

// movePos displaces a position by a deterministic sub-cell step that
// alternates direction, keeping the fleet near its original placement.
func movePos(p geom.Point, i int) geom.Point {
	dx := float64(7+i%13) * 1.5
	dy := float64(5+i%11) * 1.5
	if i%2 == 0 {
		dx, dy = -dx, -dy
	}
	return geom.Point{X: p.X + dx, Y: p.Y + dy}
}

// holdState drives the hold-model kernel: every fired event schedules its
// successor until the budget is used up, so the queue stays at its depth.
type holdState struct {
	engine *sim.Engine
	left   int
	delays []time.Duration
	next   int
}

func holdThunk(x any) {
	h := x.(*holdState)
	if h.left == 0 {
		return
	}
	h.left--
	h.engine.ScheduleArgPooled(h.delays[h.next&(len(h.delays)-1)], holdThunk, h)
	h.next++
}

// runKernels times every kernel on w's inputs, recording a span per kernel,
// and stores the results under their metric names.
func (w workload) runKernels(seed uint64, k kernelBudget, sp *spanLog, parent int, out map[string]float64) error {
	kernel := func(name string, fn func()) {
		id := sp.begin("kernel."+name, parent)
		fn()
		sp.end(id)
	}
	var firstErr error

	kernel("sim.hold", func() {
		out["sim.hold_ns"] = k.perOp(func(n int) time.Duration {
			engine := sim.NewEngine(seed)
			rng := sim.NewRNG(seed)
			h := &holdState{engine: engine, left: n, delays: make([]time.Duration, 4096)}
			for i := range h.delays {
				h.delays[i] = time.Duration(rng.Float64() * float64(2*time.Millisecond))
			}
			for i := 0; i < w.holdDepth; i++ {
				engine.ScheduleArgPooled(h.delays[i&4095], holdThunk, h)
			}
			start := cpuNow()
			engine.RunAll()
			// n rescheduled events plus the initial fill were popped.
			return (cpuNow() - start) * time.Duration(n) / time.Duration(n+w.holdDepth)
		})
	})
	kernel("sim.closure_schedule", func() {
		out["sim.closure_schedule_ns"] = k.perOp(func(n int) time.Duration {
			engine := sim.NewEngine(seed)
			start := cpuNow()
			for i := 0; i < n; i++ {
				i := i
				engine.Schedule(time.Microsecond, func() { sink.n += uint64(i) })
				engine.RunAll()
			}
			return cpuNow() - start
		})
	})
	kernel("sim.stop", func() {
		// A timer armed and cancelled, as the MAC does, above a queue kept at
		// the workload's depth.
		out["sim.stop_ns"] = k.perOp(func(n int) time.Duration {
			engine := sim.NewEngine(seed)
			for i := 0; i < w.holdDepth; i++ {
				engine.Schedule(time.Duration(i)*time.Microsecond, func() {})
			}
			start := cpuNow()
			for i := 0; i < n; i++ {
				sink.b = engine.Schedule(time.Duration(i&4095)*time.Microsecond, func() {}).Stop()
			}
			return cpuNow() - start
		})
	})

	kernel("phy.transmit", func() {
		var receivers float64
		out["phy.transmit_ns"] = k.perOp(func(n int) time.Duration {
			engine, _, radios, err := w.kernelMedium(seed)
			if err != nil {
				firstErr = err
				return 0
			}
			rotate := min(len(radios), 64)
			frame := dataFrame()
			for i := 0; i < rotate; i++ { // warm the rotated candidate lists
				frame.Src = radios[i].ID
				radios[i].Transmit(frame)
				engine.RunAll()
			}
			before := engine.Processed
			start := cpuNow()
			for i := 0; i < n; i++ {
				src := radios[i%rotate]
				frame.Src = src.ID
				src.Transmit(frame)
				engine.RunAll()
			}
			d := cpuNow() - start
			// Each transmit costs one end-of-frame event plus a begin and an
			// end arrival per receiver.
			receivers = (float64(engine.Processed-before)/float64(n) - 1) / 2
			return d
		})
		out["phy.receivers_per_transmit"] = receivers
	})
	kernel("phy.list_build", func() {
		// Cold: the first transmit of every radio of a fresh medium. Media are
		// built ahead in groups so that one timed section spans many of them.
		type world struct {
			engine *sim.Engine
			radios []*phy.Radio
		}
		out["phy.list_build_ns"] = k.perOp(func(n int) time.Duration {
			var total time.Duration
			frame := dataFrame()
			for done := 0; done < n; {
				var group []world
				for ops := 0; ops < 4096 && done+ops < n; {
					engine, _, radios, err := w.kernelMedium(seed)
					if err != nil {
						firstErr = err
						return 0
					}
					radios = radios[:min(len(radios), n-done-ops)]
					group = append(group, world{engine, radios})
					ops += len(radios)
				}
				start := cpuNow()
				for _, g := range group {
					for _, r := range g.radios {
						frame.Src = r.ID
						r.Transmit(frame)
						g.engine.RunAll()
					}
					done += len(g.radios)
				}
				total += cpuNow() - start
			}
			return total
		})
	})
	out["phy.move_ns"], out["phy.move_transmit_ns"] = 0, 0
	if w.metro {
		for _, withTransmit := range []bool{false, true} {
			name := "phy.move"
			if withTransmit {
				name = "phy.move_transmit"
			}
			kernel(name, func() {
				out[name+"_ns"] = k.perOp(func(n int) time.Duration {
					engine, medium, radios, err := w.kernelMedium(seed)
					if err != nil {
						firstErr = err
						return 0
					}
					frame := dataFrame()
					for i := 0; i < 64; i++ {
						frame.Src = radios[i].ID
						radios[i].Transmit(frame)
						engine.RunAll()
					}
					start := cpuNow()
					for i := 0; i < n; i++ {
						mover := radios[i%len(radios)]
						medium.MoveRadio(mover, movePos(mover.Pos, i))
						if withTransmit {
							src := radios[i%64]
							frame.Src = src.ID
							src.Transmit(frame)
							engine.RunAll()
						}
					}
					return cpuNow() - start
				})
			})
		}
	}

	macPair := func() (*sim.Engine, *mac.MAC) {
		engine := sim.NewEngine(seed)
		medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())
		a := mac.New(engine, medium.AttachRadio(0, geom.Point{}), mac.DefaultParams())
		b := mac.New(engine, medium.AttachRadio(1, geom.Point{X: 100}), mac.DefaultParams())
		b.Deliver = func(*packet.Packet, packet.NodeID) { sink.n++ }
		return engine, a
	}
	pkt := &packet.Packet{Kind: packet.TypeData, PayloadBytes: 512}
	kernel("mac.broadcast", func() {
		var events float64
		out["mac.broadcast_ns"] = k.perOp(func(n int) time.Duration {
			engine, m := macPair()
			start := cpuNow()
			for i := 0; i < n; i++ {
				sink.b = m.SendBroadcast(pkt)
				engine.RunAll()
			}
			d := cpuNow() - start
			events = float64(engine.Processed) / float64(n)
			return d
		})
		out["mac.events_per_broadcast"] = events
	})
	kernel("mac.unicast", func() {
		out["mac.unicast_ns"] = k.perOp(func(n int) time.Duration {
			engine, m := macPair()
			start := cpuNow()
			for i := 0; i < n; i++ {
				sink.b = m.SendUnicast(pkt, 1)
				engine.RunAll()
			}
			return cpuNow() - start
		})
	})

	table := linkquality.NewTable(512, 10, 0)
	kernel("linkquality.observe_probe", func() {
		out["linkquality.observe_probe_ns"] = k.perOp(func(n int) time.Duration {
			start := cpuNow()
			for i := 0; i < n; i++ {
				table.ObserveProbe(uint16(i&15), uint32(i>>4), time.Duration(i)*time.Millisecond)
			}
			return cpuNow() - start
		})
	})
	kernel("linkquality.estimate", func() {
		out["linkquality.estimate_ns"] = k.perOp(func(n int) time.Duration {
			start := cpuNow()
			for i := 0; i < n; i++ {
				sink.f += table.Estimate(uint16(i&15), 0).DeliveryProb
			}
			return cpuNow() - start
		})
	})
	kernel("metric.path_cost", func() {
		path := make([]metric.LinkEstimate, 6)
		for i := range path {
			path[i] = metric.LinkEstimate{
				DeliveryProb:     0.6 + 0.05*float64(i),
				PairDelaySeconds: 0.002 + 0.0005*float64(i),
				BandwidthBps:     1.5e6,
				PacketBytes:      512,
			}
		}
		var metrics []metric.PathMetric
		for _, kind := range metric.All() {
			metrics = append(metrics, metric.MustNew(kind))
		}
		out["metric.path_cost_ns"] = k.perOp(func(n int) time.Duration {
			start := cpuNow()
			for i := 0; i < n; i++ {
				sink.f += metric.PathCostFromEstimates(metrics[i%len(metrics)], path)
			}
			return cpuNow() - start
		})
	})
	kernel("stats.record_delivered", func() {
		c := stats.NewCollector()
		out["stats.record_delivered_ns"] = k.perOp(func(n int) time.Duration {
			start := cpuNow()
			for i := 0; i < n; i++ {
				c.RecordDelivered(packet.NodeID(i%10), packet.GroupID(1+i%2), 0, 512, time.Millisecond)
			}
			return cpuNow() - start
		})
	})
	kernel("telemetry.counter_add", func() {
		c := telemetry.NewRegistry().Counter("bench.ops")
		out["telemetry.counter_add_ns"] = k.perOp(func(n int) time.Duration {
			start := cpuNow()
			for i := 0; i < n; i++ {
				c.Add(1)
			}
			return cpuNow() - start
		})
		sink.n += c.Value()
	})
	traced := &packet.Packet{Kind: packet.TypeData, TraceID: 1, Group: 1, Seq: 7, HopCount: 2}
	kernel("trace.span_off", func() {
		var off *trace.Tracer
		out["trace.span_off_ns"] = k.perOp(func(n int) time.Duration {
			start := cpuNow()
			for i := 0; i < n; i++ {
				off.Span(trace.SpanForward, 1, 2, traced)
			}
			return cpuNow() - start
		})
	})
	kernel("trace.span_jsonl", func() {
		on := trace.New(nil, func() time.Duration { return time.Second })
		jsonl := trace.NewSpanJSONLWriter(io.Discard)
		on.SetSpanSink(jsonl)
		out["trace.span_jsonl_ns"] = k.perOp(func(n int) time.Duration {
			start := cpuNow()
			for i := 0; i < n; i++ {
				on.Span(trace.SpanForward, 1, 2, traced)
			}
			return cpuNow() - start
		})
		if err := jsonl.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	})

	out["topology.gen_s"] = 0 // the testbed's eight positions are a table
	if w.scenario != nil {
		kernel("topology.gen", func() {
			var topo *topology.Topology
			gens := 0
			start := cpuNow()
			for gens == 0 || (cpuNow()-start < k.minTime && gens < k.maxOps) {
				cfg, err := w.scenario(seed)
				if err != nil {
					firstErr = err
					return
				}
				topo = cfg.Topology
				gens++
			}
			out["topology.gen_s"] = (cpuNow() - start).Seconds() / float64(gens)
			sink.n += uint64(topo.NodeCount())
		})
	}
	return firstErr
}
