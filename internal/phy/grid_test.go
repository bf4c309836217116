package phy

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
)

func TestInterferenceRadiusMatchesFloor(t *testing.T) {
	p := DefaultParams()
	pl := propagation.NewTwoRay()
	floor := p.CSThresholdW / 200
	radius := interferenceRadius(pl, p.TxPowerW, floor)
	if radius <= 0 {
		t.Fatal("no interference radius for the default two-ray model")
	}
	// The default WaveLAN constants put the floor crossing around 2 km —
	// well beyond the 550 m carrier-sense range, as it must be (fading can
	// never lift a sub-floor arrival above the CS threshold).
	if radius < 550 || radius > 10000 {
		t.Fatalf("interference radius = %.0f m, expected between 550 m and 10 km", radius)
	}
	if got := pl.ReceivedPower(p.TxPowerW, radius); got >= floor {
		t.Fatalf("power at radius = %g, want < floor %g", got, floor)
	}
	if got := pl.ReceivedPower(p.TxPowerW, radius*0.999); got < floor {
		t.Fatalf("power just inside radius = %g, want >= floor %g", got, floor)
	}
}

func TestInterferenceRadiusDisabledCases(t *testing.T) {
	pl := propagation.NewTwoRay()
	if r := interferenceRadius(pl, DefaultParams().TxPowerW, 0); r != 0 {
		t.Fatalf("radius with zero floor = %v, want 0 (index disabled)", r)
	}
	// A floor so low it is never crossed within the search bound.
	if r := interferenceRadius(pl, DefaultParams().TxPowerW, 1e-40); r != 0 {
		t.Fatalf("radius with unreachable floor = %v, want 0 (index disabled)", r)
	}
}

// built reports whether radio i's candidate list is cached and would be served
// as it stands: built once, and nothing has made it stale since.
func (m *Medium) built(i int) bool { return !m.stale(m.radios[i], &m.links[i]) }

// sameLinks requires two candidate lists to be identical entry for entry:
// same receivers in the same (attach) order, same mean power, same delay,
// same delivery-order rank.
func sameLinks(t *testing.T, got, want []link, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, brute force has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].rx != want[i].rx {
			t.Fatalf("%s: candidate %d is radio %d, brute force has %d (order or membership drift)",
				label, i, got[i].rx, want[i].rx)
		}
		if got[i].meanPower != want[i].meanPower || got[i].propDelay != want[i].propDelay {
			t.Fatalf("%s: candidate %d precomputed values diverge", label, i)
		}
		if got[i].rank != want[i].rank {
			t.Fatalf("%s: candidate %d has rank %d, brute force has %d", label, i, got[i].rank, want[i].rank)
		}
	}
}

// TestCellIndexMatchesBruteForce is the determinism property test: for
// random topologies spanning sub-cell to many-cell extents, the indexed
// candidate builder must reproduce the brute-force scan bit for bit.
func TestCellIndexMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(1234)
	for trial := 0; trial < 25; trial++ {
		side := 400 + rng.Float64()*12000 // ~0.2 to ~6 cells per axis
		n := 10 + rng.Intn(120)
		engine := sim.NewEngine(uint64(trial))
		medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
		if medium.grid == nil {
			t.Fatal("cell index not built for the default models")
		}
		for i := 0; i < n; i++ {
			medium.AttachRadio(packet.NodeID(i), geom.Point{
				X: rng.Float64()*side - side/2, // negative coords exercise floor
				Y: rng.Float64() * side,
			})
		}
		for _, src := range medium.radios {
			got := medium.buildLinksIndexed(src, nil)
			want := medium.buildLinksBrute(src, nil)
			sameLinks(t, got, want, "indexed")
		}
	}
}

func TestBuildLinksFallsBackWithoutIndex(t *testing.T) {
	for _, tc := range []struct {
		label string
		setup func(*Medium)
	}{
		{"no index", withoutIndex},
		{"indexed", asBuilt},
	} {
		engine := sim.NewEngine(7)
		medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
		tc.setup(medium)
		for i := 0; i < 30; i++ {
			medium.AttachRadio(packet.NodeID(i), geom.Point{X: float64(i) * 137, Y: float64(i%5) * 211})
		}
		for _, src := range medium.radios {
			sameLinks(t, medium.linksFrom(src).links, medium.buildLinksBrute(src, nil), tc.label)
		}
	}
}

// TestAttachRadioIncrementalInvalidation pins the incremental-invalidation
// behavior: attaching a radio discards only the candidate lists of
// transmitters within its cell neighborhood; far transmitters keep their
// built lists (previously every attach threw the whole cache away).
func TestAttachRadioIncrementalInvalidation(t *testing.T) {
	engine := sim.NewEngine(3)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	cell := medium.grid.size
	// Two transmitters far apart: more than two cells, so neither is ever
	// in the other's 3×3 neighborhood.
	near := medium.AttachRadio(0, geom.Point{X: 0, Y: 0})
	far := medium.AttachRadio(1, geom.Point{X: 3 * cell, Y: 0})
	// Build both candidate lists.
	medium.linksFrom(near)
	medium.linksFrom(far)
	if !medium.built(near.index) || !medium.built(far.index) {
		t.Fatal("candidate lists not built")
	}

	// Attaching next to `near` must invalidate near's list, grow the cache,
	// and leave far's list untouched.
	medium.AttachRadio(2, geom.Point{X: 100, Y: 0})
	if len(medium.links) != 3 {
		t.Fatalf("cache has %d slots after attach, want 3", len(medium.links))
	}
	if medium.built(near.index) {
		t.Fatal("near transmitter's list not invalidated by a neighboring attach")
	}
	if !medium.built(far.index) {
		t.Fatal("far transmitter's list discarded by an attach outside its neighborhood")
	}

	// And the rebuilt list must now include the newcomer.
	rebuilt := medium.linksFrom(near).links
	found := false
	for _, l := range rebuilt {
		if l.rx == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("rebuilt list does not include the newly attached radio")
	}
	sameLinks(t, rebuilt, medium.buildLinksBrute(near, nil), "rebuilt after attach")
}

// TestAttachRadioDeliveryAcrossCells is the end-to-end version: a busy
// multi-cell medium keeps delivering correctly as radios attach mid-run.
func TestAttachRadioDeliveryAcrossCells(t *testing.T) {
	engine := sim.NewEngine(11)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	cell := medium.grid.size
	tx := medium.AttachRadio(0, geom.Point{})
	counts := make(map[packet.NodeID]int)
	attach := func(id packet.NodeID, p geom.Point) {
		r := medium.AttachRadio(id, p)
		r.ReceiveFrame = func(*packet.Frame) { counts[r.ID]++ }
	}
	attach(1, geom.Point{X: 200})
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	// A later attach in range of tx but in a *different* cell than tx must
	// still be picked up (the 3×3 probe spans cell borders).
	attach(2, geom.Point{X: cell + 10, Y: 0})
	txNearBorder := medium.AttachRadio(3, geom.Point{X: cell - 40, Y: 0})
	engine.Schedule(0, func() { txNearBorder.Transmit(dataFrame(3, 64)) })
	engine.RunAll()
	if counts[2] != 1 {
		t.Fatalf("cross-cell delivery = %d, want 1", counts[2])
	}
	engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
	engine.RunAll()
	if counts[1] != 2 {
		t.Fatalf("existing receiver saw %d frames, want 2", counts[1])
	}
}

// TestCellIndexedRunByteIdenticalToBrute replays the dense storm of
// TestLinkCacheByteIdenticalToUncached with and without the cell index (cache
// on in both): the indexed fan-out must not change a single RNG draw. The
// scenario spans 450 m — a single cell here — so the wide topology below
// additionally exercises the multi-cell case.
func TestCellIndexedRunByteIdenticalToBrute(t *testing.T) {
	indexed := denseStormTrace(t, asBuilt, 150)
	brute := denseStormTrace(t, withoutIndex, 150)
	if indexed != brute {
		t.Fatalf("indexed and brute-force builders diverged:\nindexed:\n%s\nbrute:\n%s", indexed, brute)
	}
	if !strings.Contains(indexed, "<-") {
		t.Fatal("storm delivered nothing; the comparison is vacuous")
	}
}

func TestCellIndexedRunByteIdenticalToBruteMultiCell(t *testing.T) {
	// 900 m pitch spreads the 4×3 lattice across ~2700 m — multiple cells,
	// with some pairs beyond the interference radius entirely, so the probe
	// actually skips cells and the skip set is non-trivial.
	indexed := denseStormTrace(t, asBuilt, 900)
	brute := denseStormTrace(t, withoutIndex, 900)
	if indexed != brute {
		t.Fatalf("multi-cell indexed and brute runs diverged:\nindexed:\n%s\nbrute:\n%s", indexed, brute)
	}
}

// denseStormTrace runs a 12-radio broadcast storm on a 4×3 lattice of the
// given pitch with Rayleigh fading and a probabilistic impairment — every RNG
// consumer on the transmit path — and returns a full trace of deliveries plus
// final counters. setup sees the medium before the first attach (see the
// reference media in phy_test.go).
func denseStormTrace(t *testing.T, setup func(*Medium), pitch float64) string {
	t.Helper()
	engine := sim.NewEngine(99)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.Rayleigh{}, DefaultParams())
	setup(medium)
	medium.SetImpairment(func(tx, rx packet.NodeID, _ time.Duration) Impairment {
		if (tx+rx)%3 == 0 {
			return Impairment{DropProb: 0.3}
		}
		return Impairment{Attenuation: 0.9}
	})
	var radios []*Radio
	var log strings.Builder
	for i := 0; i < 12; i++ {
		r := medium.AttachRadio(packet.NodeID(i), geom.Point{X: float64(i%4) * pitch, Y: float64(i/4) * pitch})
		r.ReceiveFrame = func(f *packet.Frame) {
			fmt.Fprintf(&log, "%d<-%d@%v\n", r.ID, f.Src, engine.Now())
		}
		radios = append(radios, r)
	}
	// 256 B frames are on air ~1.2 ms; a 1.1 ms pitch keeps most frames
	// clean while the tail of each still overlaps the next transmitter's
	// start, so collision, capture, and half-duplex branches all run.
	for i := 0; i < 300; i++ {
		r := radios[i%len(radios)]
		engine.At(time.Duration(i)*1100*time.Microsecond, func() { r.Transmit(dataFrame(r.ID, 256)) })
	}
	engine.RunAll()
	for _, r := range radios {
		fmt.Fprintf(&log, "radio %d: %+v\n", r.ID, r.Stats)
	}
	fmt.Fprintf(&log, "events=%d now=%v\n", engine.Processed, engine.Now())
	return log.String()
}

// TestCandidateSlotsAreDelayOrder pins the order transmit lays a frame's
// arrivals out in: links[i].rank is the rank of links[i] under (propDelay, i),
// so the ranks are a permutation and name each candidate's arrival slot. The
// radios sit on a coarse lattice so that many delays tie (ties must keep list
// order — that is the order the sequence numbers are reserved in); the
// brute-force medium spans enough distance that the radix sort needs a third
// byte, and the two small lattices need only one pass, the co-located one
// over delays that are all zero.
func TestCandidateSlotsAreDelayOrder(t *testing.T) {
	for _, tc := range []struct {
		label string
		prep  func(*Medium)
		pitch float64
	}{
		{"indexed", asBuilt, 150},
		{"brute force, long delays", withoutIndex, 9000},
		{"indexed, one-byte delays", asBuilt, 4},
		{"indexed, co-located", asBuilt, 0},
	} {
		engine := sim.NewEngine(11)
		medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
		tc.prep(medium)
		rng := sim.NewRNG(5)
		for i := 0; i < 300; i++ {
			medium.AttachRadio(packet.NodeID(i), geom.Point{X: float64(rng.Intn(12)) * tc.pitch, Y: float64(rng.Intn(12)) * tc.pitch})
		}
		if medium.grid == nil {
			// An oracle makes every radio a candidate, however far.
			medium.SetLinkFunc(func(_, _ packet.NodeID, _ time.Duration, _ *sim.RNG) float64 { return 1 })
		}
		ties, longest := 0, time.Duration(0)
		for _, src := range medium.radios {
			c := medium.linksFrom(src)
			want := make([]int, len(c.links))
			for i := range want {
				want[i] = i
			}
			sort.SliceStable(want, func(a, b int) bool { return c.links[want[a]].propDelay < c.links[want[b]].propDelay })
			for rank, i := range want {
				if int(c.links[i].rank) != rank {
					t.Fatalf("%s: radio %d: link %d has rank %d, want %d", tc.label, src.index, i, c.links[i].rank, rank)
				}
				if rank > 0 && c.links[i].propDelay == c.links[want[rank-1]].propDelay {
					ties++
				}
				longest = max(longest, time.Duration(c.links[i].propDelay))
			}
		}
		if ties == 0 {
			t.Fatalf("%s: no two candidates share a delay; tie order is untested", tc.label)
		}
		if tc.pitch > 1000 && longest < 1<<16 {
			t.Fatalf("%s: longest delay %v fits two bytes; the long-delay passes are untested", tc.label, longest)
		}
		if tc.pitch < 10 && longest >= 1<<8 {
			t.Fatalf("%s: longest delay %v needs two bytes; the one-pass sort is untested", tc.label, longest)
		}
	}
}
