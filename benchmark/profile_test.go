package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// The helpers below write just enough of profile.proto to hand-build a
// profile; the decoder under test never sees them.

func putVarint(b *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}

func putField(b *bytes.Buffer, num int, v uint64) {
	putVarint(b, uint64(num)<<3)
	putVarint(b, v)
}

func putBytes(b *bytes.Buffer, num int, data []byte) {
	putVarint(b, uint64(num)<<3|2)
	putVarint(b, uint64(len(data)))
	b.Write(data)
}

// profileBuilder interns strings and functions and gives every distinct
// stack location its own id.
type profileBuilder struct {
	out     bytes.Buffer
	strs    map[string]uint64
	strList []string
	funcs   map[string]uint64
	nextLoc uint64
}

func newProfileBuilder() *profileBuilder {
	return &profileBuilder{strs: map[string]uint64{"": 0}, strList: []string{""}, funcs: map[string]uint64{}}
}

func (p *profileBuilder) fn(name string) uint64 {
	if id, ok := p.funcs[name]; ok {
		return id
	}
	p.strs[name] = uint64(len(p.strList))
	p.strList = append(p.strList, name)
	id := uint64(len(p.funcs) + 1)
	p.funcs[name] = id
	var f bytes.Buffer
	putField(&f, 1, id)
	putField(&f, 2, p.strs[name])
	putBytes(&p.out, 5, f.Bytes())
	return id
}

// loc adds a location whose lines are the given functions, innermost
// (inlined) first.
func (p *profileBuilder) loc(fns ...string) uint64 {
	p.nextLoc++
	var l bytes.Buffer
	putField(&l, 1, p.nextLoc)
	for _, name := range fns {
		var line bytes.Buffer
		putField(&line, 1, p.fn(name))
		putField(&line, 2, 42)
		putBytes(&l, 4, line.Bytes())
	}
	putBytes(&p.out, 4, l.Bytes())
	return p.nextLoc
}

// sample adds a sample with values [count, ns]; packed selects the packed
// encoding of the repeated fields.
func (p *profileBuilder) sample(ns int64, packed bool, locs ...uint64) {
	var s bytes.Buffer
	if packed {
		var ids, vals bytes.Buffer
		for _, l := range locs {
			putVarint(&ids, l)
		}
		putVarint(&vals, 1)
		putVarint(&vals, uint64(ns))
		putBytes(&s, 1, ids.Bytes())
		putBytes(&s, 2, vals.Bytes())
	} else {
		for _, l := range locs {
			putField(&s, 1, l)
		}
		putField(&s, 2, 1)
		putField(&s, 2, uint64(ns))
	}
	putBytes(&p.out, 2, s.Bytes())
}

func (p *profileBuilder) stack(ns int64, packed bool, leafToRoot ...string) {
	locs := make([]uint64, len(leafToRoot))
	for i, fn := range leafToRoot {
		locs[i] = p.loc(fn)
	}
	p.sample(ns, packed, locs...)
}

func (p *profileBuilder) bytes(compress bool) []byte {
	var msg bytes.Buffer
	msg.Write(p.out.Bytes())
	for _, s := range p.strList {
		putBytes(&msg, 6, []byte(s))
	}
	putField(&msg, 12, 10_000_000) // period, ignored by the decoder
	if !compress {
		return msg.Bytes()
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(msg.Bytes())
	zw.Close()
	return z.Bytes()
}

func TestDecodeAndChargeHandBuiltProfile(t *testing.T) {
	const (
		run     = "meshcast/internal/sim.(*Engine).Run"
		scen    = "meshcast/internal/experiments.RunScenario"
		mainFn  = "main.main"
		enqueue = "meshcast/internal/mac.(*MAC).enqueue"
	)
	for _, compress := range []bool{false, true} {
		p := newProfileBuilder()
		// container/heap leaf under sim: sim, queue.
		p.stack(100, true, "container/heap.down", "container/heap.Pop", run, scen, mainFn)
		// the queue's own methods are sim frames called from container/heap.
		p.stack(50, false, "meshcast/internal/sim.eventQueue.Less", "container/heap.up", "container/heap.Push",
			"meshcast/internal/sim.(*Engine).At", enqueue, run, scen, mainFn)
		// allocator leaf under mac: mac, and not sim's allocation share.
		p.stack(30, true, "runtime.mallocgc", "runtime.growslice", enqueue, "meshcast/internal/sim.(*Event).call", run, scen, mainFn)
		// allocator leaf under sim outside the queue: sim, alloc.
		p.stack(20, false, "runtime.mallocgc", "runtime.newobject", "meshcast/internal/sim.(*Engine).At",
			"meshcast/internal/mac.(*MAC).scheduleSlot", run, scen, mainFn)
		// sim frame that is neither queue nor allocation: the remainder.
		p.stack(10, true, "meshcast/internal/sim.(*Event).call", run, scen, mainFn)
		// GC worker: no program frame, all runtime.
		p.stack(40, true, "runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack")
		// helper package frame is charged to the layer that called it.
		p.stack(7, false, "meshcast/internal/packet.(*Packet).Clone", "meshcast/internal/odmrp.(*Router).forward", run, scen, mainFn)
		// inlined leaf: one location, two lines, innermost first.
		inl := p.loc("math.Log", "meshcast/internal/propagation.Rayleigh.Sample")
		p.sample(5, true, inl, p.loc("meshcast/internal/phy.(*Medium).transmit"), p.loc(run))
		// the benchmark's own work: other.
		p.stack(3, true, "compress/gzip.(*Reader).Read", "main.decodeProfile", mainFn)
		// a location id no Location message defines: unresolved.
		p.sample(2, false, 9999)

		samples, err := decodeProfile(p.bytes(compress))
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if len(samples) != 10 {
			t.Fatalf("compress=%v: %d samples, want 10", compress, len(samples))
		}
		if got := samples[7].frames; len(got) != 4 || got[0] != "math.Log" || got[1] != "meshcast/internal/propagation.Rayleigh.Sample" {
			t.Errorf("inlined frames = %v", got)
		}
		st := chargeSamples(samples)
		want := map[string]int64{
			"sim": 180, "mac": 30, layerRuntimeBg: 40, "odmrp": 7, "propagation": 5, layerOther: 3,
		}
		for layer, ns := range want {
			if st.byLayer[layer] != ns {
				t.Errorf("compress=%v: layer %s = %d ns, want %d", compress, layer, st.byLayer[layer], ns)
			}
		}
		if len(st.byLayer) != len(want) {
			t.Errorf("layers charged = %v, want exactly %v", st.byLayer, want)
		}
		if st.totalNs != 267 || st.simQueueNs != 150 || st.simAllocNs != 20 || st.unresolvedNs != 2 {
			t.Errorf("total %d queue %d alloc %d unresolved %d, want 267 150 20 2",
				st.totalNs, st.simQueueNs, st.simAllocNs, st.unresolvedNs)
		}
		if got := st.share(st.simQueueNs); math.Abs(got-150.0/267) > 1e-12 {
			t.Errorf("queue share = %v", got)
		}
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	p := newProfileBuilder()
	p.stack(1, true, "main.main")
	data := p.bytes(false)
	if _, err := decodeProfile(data[:len(data)-3]); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"meshcast/internal/sim.(*Engine).Run":             "sim",
		"meshcast/internal/experiments.RunScenario.func1": "experiments",
		"meshcast/internal/packet.(*Packet).Clone":        "",
		"meshcast/internal/simulator.Run":                 "",
		"container/heap.Pop":                              "",
		"main.main":                                       "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
