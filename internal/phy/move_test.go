package phy

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
)

// TestMoveRadioIncrementalMatchesFullInvalidation is the MoveRadio property
// test: after every move, every transmitter's cached candidate list — built
// lazily under incremental invalidation — must equal the brute-force rebuild
// a full invalidation would produce, entry for entry.
func TestMoveRadioIncrementalMatchesFullInvalidation(t *testing.T) {
	rng := sim.NewRNG(77)
	for trial := 0; trial < 10; trial++ {
		side := 600 + rng.Float64()*9000
		n := 15 + rng.Intn(60)
		engine := sim.NewEngine(uint64(trial))
		medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
		for i := 0; i < n; i++ {
			medium.AttachRadio(packet.NodeID(i), geom.Point{
				X: rng.Float64()*side - side/2,
				Y: rng.Float64() * side,
			})
		}
		// Build every list so stale survivors would be caught.
		for _, src := range medium.radios {
			medium.linksFrom(src)
		}
		for move := 0; move < 30; move++ {
			r := medium.radios[rng.Intn(n)]
			medium.MoveRadio(r, geom.Point{
				X: rng.Float64()*side - side/2,
				Y: rng.Float64() * side,
			})
			for _, src := range medium.radios {
				sameLinks(t, medium.linksFrom(src).links, medium.buildLinksBrute(src, nil), "after move")
			}
		}
	}
}

// TestMoveRadioLeavesFarListsWarm pins the incremental part: a move between
// two spots far from an established transmitter must not discard that
// transmitter's list, while lists around either endpoint are dropped.
func TestMoveRadioLeavesFarListsWarm(t *testing.T) {
	engine := sim.NewEngine(5)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	cell := medium.grid.size
	nearOld := medium.AttachRadio(0, geom.Point{X: 0})
	nearNew := medium.AttachRadio(1, geom.Point{X: 6 * cell})
	far := medium.AttachRadio(2, geom.Point{X: 12 * cell})
	mover := medium.AttachRadio(3, geom.Point{X: 100})
	for _, r := range medium.radios {
		medium.linksFrom(r)
	}
	medium.MoveRadio(mover, geom.Point{X: 6*cell + 100})
	if medium.built(nearOld.index) {
		t.Fatal("list near the old position survived the move")
	}
	if medium.built(nearNew.index) {
		t.Fatal("list near the new position survived the move")
	}
	if medium.built(mover.index) {
		t.Fatal("the moved radio's own list survived the move")
	}
	if !medium.built(far.index) {
		t.Fatal("a list far from both endpoints was discarded (invalidation not incremental)")
	}
}

// staleSet returns, by attach index, which lists the medium would rebuild
// before serving them.
func staleSet(m *Medium) []bool {
	out := make([]bool, len(m.radios))
	for i := range m.radios {
		out[i] = !m.built(i)
	}
	return out
}

// inBlock reports whether cell b lies in the 3×3 block around cell a.
func inBlock(a, b cellKey) bool {
	return a.x-b.x >= -1 && a.x-b.x <= 1 && a.y-b.y >= -1 && a.y-b.y <= 1
}

// TestMoveRadioStaleSetExact is the property the cell stamps stand on: with
// every list current, one move makes stale the mover's own list and the list
// of every transmitter whose 3×3 block holds the mover's old or new cell — and
// no other. Missing one is a wrong list; an extra one is a rebuild that a move
// on the far side of the city paid for. SetLinkFunc goes on and off between
// moves: under the oracle a move outdates everything, and the cell rule must
// hold again as soon as it is lifted.
func TestMoveRadioStaleSetExact(t *testing.T) {
	rng := sim.NewRNG(2024)
	engine := sim.NewEngine(1)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	side := 7 * medium.grid.size
	randomPos := func() geom.Point {
		return geom.Point{X: rng.Float64()*side - side/2, Y: rng.Float64()*side - side/2}
	}
	const n = 60
	for i := 0; i < n; i++ {
		medium.AttachRadio(packet.NodeID(i), randomPos())
	}
	oracle := func(_, _ packet.NodeID, _ time.Duration, _ *sim.RNG) float64 { return 1 }
	nearMoves, spared := 0, 0
	for move := 0; move < 400; move++ {
		if phase := move % 50; phase == 20 || phase == 25 {
			if phase == 20 {
				medium.SetLinkFunc(oracle)
			} else {
				medium.SetLinkFunc(nil)
			}
			for i, stale := range staleSet(medium) {
				if !stale {
					t.Fatalf("move %d: list %d survived a switch of power model", move, i)
				}
			}
		}
		for _, src := range medium.radios {
			medium.linksFrom(src)
		}
		for i, stale := range staleSet(medium) {
			if stale {
				t.Fatalf("move %d: list %d stale right after it was served", move, i)
			}
		}
		mover := medium.radios[rng.Intn(n)]
		to := randomPos()
		if move%3 == 0 { // a short step, mostly inside the cell
			to = geom.Point{X: mover.Pos.X + rng.Float64()*40 - 20, Y: mover.Pos.Y + rng.Float64()*40 - 20}
		}
		from, dst := medium.grid.keyFor(mover.Pos), medium.grid.keyFor(to)
		medium.MoveRadio(mover, to)
		for i, stale := range staleSet(medium) {
			cell := medium.grid.keyFor(medium.radios[i].Pos)
			want := medium.linkFunc != nil || i == mover.index || inBlock(cell, from) || inBlock(cell, dst)
			if stale != want {
				t.Fatalf("move %d (radio %d, cell %v -> %v): list %d in cell %v stale = %v, want %v",
					move, mover.index, from, dst, i, cell, stale, want)
			}
			if !want {
				spared++
			}
		}
		if from != dst {
			nearMoves++
		}
		for _, src := range medium.radios {
			sameLinks(t, medium.linksFrom(src).links, medium.buildLinksBrute(src, nil), "after move")
		}
	}
	if nearMoves == 0 || spared == 0 {
		t.Fatalf("%d cell-crossing moves, %d lists spared: the storm does not exercise both sides", nearMoves, spared)
	}
}

// TestLastRadioOutOfACellOutdatesItsNeighbors: the mover is the only radio in
// its cell and leaves the transmitter's block altogether, so the cell it
// empties is the only place that can say the transmitter lost a candidate. An
// index that forgets the stamp with the cell serves the old list.
func TestLastRadioOutOfACellOutdatesItsNeighbors(t *testing.T) {
	engine := sim.NewEngine(5)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	cell := medium.grid.size
	tx := medium.AttachRadio(0, geom.Point{X: cell - 100, Y: 10})
	mover := medium.AttachRadio(1, geom.Point{X: cell + 100, Y: 10})
	if medium.grid.keyFor(tx.Pos) == medium.grid.keyFor(mover.Pos) {
		t.Fatal("transmitter and mover share a cell")
	}
	if got := len(medium.linksFrom(tx).links); got != 1 {
		t.Fatalf("transmitter has %d candidates before the move, want 1", got)
	}
	medium.MoveRadio(mover, geom.Point{X: 5*cell + 100, Y: 10})
	if inBlock(medium.grid.keyFor(tx.Pos), medium.grid.keyFor(mover.Pos)) {
		t.Fatal("the mover is still in the transmitter's block")
	}
	if medium.built(tx.index) {
		t.Fatal("the transmitter's list survived its only candidate leaving")
	}
	if got := len(medium.linksFrom(tx).links); got != 0 {
		t.Fatalf("transmitter has %d candidates after the move, want 0", got)
	}
}

// TestAttachIntoAnUnoccupiedCell: the first radio ever in a cell creates it,
// and the lists around must hear of it all the same.
func TestAttachIntoAnUnoccupiedCell(t *testing.T) {
	engine := sim.NewEngine(5)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	cell := medium.grid.size
	near := medium.AttachRadio(0, geom.Point{X: cell - 100, Y: 10})
	far := medium.AttachRadio(1, geom.Point{X: 9 * cell, Y: 10})
	medium.linksFrom(near)
	medium.linksFrom(far)
	cells := len(medium.grid.cells)
	medium.AttachRadio(2, geom.Point{X: cell + 100, Y: 10})
	if len(medium.grid.cells) != cells+1 {
		t.Fatal("the new radio did not open a cell of its own")
	}
	if medium.built(near.index) {
		t.Fatal("a list next to the new cell survived the attach")
	}
	if !medium.built(far.index) {
		t.Fatal("a list far from the new cell was made stale by the attach")
	}
	sameLinks(t, medium.linksFrom(near).links, medium.buildLinksBrute(near, nil), "after attach")
}

// TestMoveRadioCellInvariants: after arbitrary moves every per-cell member
// list must still be ascending by attach index (move binary-searches on it)
// and hold each radio exactly once, in the cell of its current position. Cells
// the last member left must still be there — their stamp is what tells the
// lists around them that a candidate is gone.
func TestMoveRadioCellInvariants(t *testing.T) {
	rng := sim.NewRNG(42)
	engine := sim.NewEngine(9)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	for i := 0; i < 50; i++ {
		medium.AttachRadio(packet.NodeID(i), geom.Point{X: rng.Float64() * 8000, Y: rng.Float64() * 8000})
	}
	for move := 0; move < 400; move++ {
		r := medium.radios[rng.Intn(50)]
		medium.MoveRadio(r, geom.Point{X: rng.Float64()*8000 - 2000, Y: rng.Float64()*8000 - 2000})
	}
	seen := make(map[int32]cellKey)
	empty := 0
	for key, cell := range medium.grid.cells {
		if len(cell.members) == 0 {
			empty++
			if cell.stamp == 0 {
				t.Fatalf("emptied cell %v lost its stamp", key)
			}
		}
		for i, idx := range cell.members {
			if i > 0 && cell.members[i-1] >= idx {
				t.Fatalf("cell %v not sorted by attach index", key)
			}
			if prev, dup := seen[idx]; dup {
				t.Fatalf("radio %d bucketed in both %v and %v", idx, prev, key)
			}
			seen[idx] = key
			r := medium.radios[idx]
			if got := medium.grid.keyFor(r.Pos); got != key {
				t.Fatalf("radio %d at %v bucketed in %v, want %v", r.ID, r.Pos, key, got)
			}
		}
	}
	if len(seen) != len(medium.radios) {
		t.Fatalf("%d radios bucketed, want %d", len(seen), len(medium.radios))
	}
	if empty == 0 {
		t.Fatal("no cell was emptied; the kept-when-empty case is untested")
	}
}

// TestMoveRadioDeliveryFollowsPosition is the end-to-end check: a receiver
// that walks out of range stops hearing the transmitter, and hears it again
// after walking back.
func TestMoveRadioDeliveryFollowsPosition(t *testing.T) {
	engine := sim.NewEngine(13)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	tx := medium.AttachRadio(0, geom.Point{})
	rx := medium.AttachRadio(1, geom.Point{X: 150})
	delivered := 0
	rx.ReceiveFrame = func(*packet.Frame) { delivered++ }
	send := func() { engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) }); engine.RunAll() }
	send()
	if delivered != 1 {
		t.Fatalf("in range: delivered = %d, want 1", delivered)
	}
	medium.MoveRadio(rx, geom.Point{X: 5000})
	send()
	if delivered != 1 {
		t.Fatalf("out of range: delivered = %d, want still 1", delivered)
	}
	medium.MoveRadio(rx, geom.Point{X: 120})
	send()
	if delivered != 2 {
		t.Fatalf("back in range: delivered = %d, want 2", delivered)
	}
}

// TestMoveRadioStormByteIdentical replays a dense storm with deterministic
// mid-run moves three ways — incremental invalidation, full invalidation
// after every move, and no index with the lists rebuilt for every frame — and
// requires the same delivery trace from all three.
func TestMoveRadioStormByteIdentical(t *testing.T) {
	run := func(mode string) string {
		engine := sim.NewEngine(99)
		medium := NewMedium(engine, propagation.NewTwoRay(), propagation.Rayleigh{}, DefaultParams())
		if mode == "uncached" {
			rebuiltEveryFrame(medium)
		}
		var radios []*Radio
		var log strings.Builder
		for i := 0; i < 12; i++ {
			r := medium.AttachRadio(packet.NodeID(i), geom.Point{X: float64(i%4) * 700, Y: float64(i/4) * 700})
			r.ReceiveFrame = func(f *packet.Frame) {
				fmt.Fprintf(&log, "%d<-%d@%v\n", r.ID, f.Src, engine.Now())
			}
			radios = append(radios, r)
		}
		for i := 0; i < 300; i++ {
			r := radios[i%len(radios)]
			engine.At(time.Duration(i)*1100*time.Microsecond, func() { r.Transmit(dataFrame(r.ID, 256)) })
			if i%7 == 0 {
				// Deterministic walk: positions derived from the step index
				// only, identical across all three modes.
				m := radios[(i/7)%len(radios)]
				pos := geom.Point{X: float64((i*37)%2800) - 400, Y: float64((i * 53) % 2800)}
				engine.At(time.Duration(i)*1100*time.Microsecond+50*time.Microsecond, func() {
					medium.MoveRadio(m, pos)
					if mode == "full" {
						medium.invalidateLinks()
					}
				})
			}
		}
		engine.RunAll()
		for _, r := range radios {
			fmt.Fprintf(&log, "radio %d: %+v\n", r.ID, r.Stats)
		}
		fmt.Fprintf(&log, "events=%d now=%v\n", engine.Processed, engine.Now())
		return log.String()
	}
	incremental := run("incremental")
	if full := run("full"); incremental != full {
		t.Fatalf("incremental and full invalidation diverged:\nincremental:\n%s\nfull:\n%s", incremental, full)
	}
	if uncached := run("uncached"); incremental != uncached {
		t.Fatalf("incremental and uncached diverged:\nincremental:\n%s\nuncached:\n%s", incremental, uncached)
	}
	if !strings.Contains(incremental, "<-") {
		t.Fatal("storm delivered nothing; the comparison is vacuous")
	}
}

// TestMoveRadioUnderLinkFunc: with an oracle active the affected set cannot
// be bounded, so a move must fall back to full invalidation (propagation
// delays baked into the lists are distance-derived even under an oracle).
func TestMoveRadioUnderLinkFunc(t *testing.T) {
	engine := sim.NewEngine(21)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	a := medium.AttachRadio(0, geom.Point{})
	b := medium.AttachRadio(1, geom.Point{X: 100})
	medium.SetLinkFunc(func(tx, rx packet.NodeID, _ time.Duration, _ *sim.RNG) float64 {
		return medium.params.TxPowerW // everything decodes
	})
	medium.linksFrom(a)
	medium.linksFrom(b)
	medium.MoveRadio(b, geom.Point{X: 90000})
	if medium.built(a.index) || medium.built(b.index) {
		t.Fatal("move under a LinkFunc oracle must invalidate the whole cache")
	}
	ls := medium.linksFrom(a).links
	if len(ls) != 1 || time.Duration(ls[0].propDelay) != propagation.Delay(a.Pos.Distance(b.Pos)) {
		t.Fatal("rebuilt oracle list does not reflect the new distance")
	}
}

// TestTransmitAllocs pins the allocation budget of the fan-out hot path:
// zero allocations per transmit (pooled flight records, owned cursor events),
// also when the caller's frame is a fresh local — the record copies it, so
// it stays on the caller's stack, as the MAC's broadcast frame does — zero
// for a move that stays inside its cell (two stamps), and zero for a move
// followed by a transmit — the stale list is rebuilt, and ranked, in its old
// backing array.
func TestTransmitAllocs(t *testing.T) {
	engine := sim.NewEngine(31)
	medium := NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	if medium.grid == nil {
		t.Fatal("no cell index; the move half would measure the brute-force path")
	}
	for i := 0; i < 6; i++ {
		medium.AttachRadio(packet.NodeID(i), geom.Point{X: float64(i) * 120})
	}
	tx := medium.radios[0]
	frame := dataFrame(0, 256)
	allocs := testing.AllocsPerRun(50, func() {
		tx.Transmit(frame)
		engine.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("fan-out allocates %.1f per transmit, want 0", allocs)
	}
	payload := frame.Payload
	allocs = testing.AllocsPerRun(50, func() {
		f := packet.Frame{Kind: packet.FrameData, Src: tx.ID, Dst: packet.Broadcast, Payload: payload}
		tx.Transmit(&f)
		engine.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("transmitting a caller-owned frame allocates %.1f, want 0 (the frame escapes)", allocs)
	}

	// The mover shuttles between two spots of one cell, so the index itself
	// has nothing to grow; each move outdates every list here.
	mover := medium.radios[3]
	spots := [2]geom.Point{mover.Pos, {X: mover.Pos.X + 30, Y: 40}}
	if medium.grid.keyFor(spots[0]) != medium.grid.keyFor(spots[1]) {
		t.Fatal("the two spots are in different cells")
	}
	spot := 0
	allocs = testing.AllocsPerRun(50, func() {
		spot ^= 1
		medium.MoveRadio(mover, spots[spot])
	})
	if allocs != 0 {
		t.Fatalf("a move inside a cell allocates %.1f, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		spot ^= 1
		medium.MoveRadio(mover, spots[spot])
		if medium.built(tx.index) {
			t.Fatal("move left the transmitter's list cached; nothing is rebuilt")
		}
		tx.Transmit(frame)
		engine.RunAll()
	})
	if allocs != 0 {
		t.Fatalf("move + transmit allocates %.1f per cycle, want 0 (lists must be rebuilt in place)", allocs)
	}
}

// flatTail is a path-loss model whose mean power never falls below the
// medium's modeling floor: decodable within 250 m, and beyond that a constant
// too weak to decode or sense but still above ignoreBelowW.
type flatTail struct{ near, tail float64 }

func (f flatTail) ReceivedPower(_, d float64) float64 {
	if d <= 250 {
		return f.near
	}
	return f.tail
}

// TestFanOutWithoutInterferenceRadius drives the selection NewMedium makes on
// its own: under a path-loss model with no interference radius it builds no
// cell index, so lists come from the brute-force scan and every attach and
// move falls back to full invalidation. Late attaches and moves must still
// reach the fan-out.
func TestFanOutWithoutInterferenceRadius(t *testing.T) {
	p := DefaultParams()
	engine := sim.NewEngine(17)
	medium := NewMedium(engine, flatTail{near: p.RxThresholdW * 10, tail: p.CSThresholdW / 100}, propagation.NoFading{}, p)
	if medium.grid != nil {
		t.Fatal("cell index built although the floor is never crossed")
	}
	heard := make(map[packet.NodeID]int)
	attach := func(id packet.NodeID, pos geom.Point) *Radio {
		r := medium.AttachRadio(id, pos)
		r.ReceiveFrame = func(*packet.Frame) { heard[id]++ }
		return r
	}
	tx := attach(0, geom.Point{})
	rx := attach(1, geom.Point{X: 150})
	step := func(label string, want1, want2 int) {
		t.Helper()
		engine.Schedule(0, func() { tx.Transmit(dataFrame(0, 64)) })
		engine.RunAll()
		if heard[1] != want1 || heard[2] != want2 {
			t.Fatalf("%s: radios 1/2 heard %d/%d frames, want %d/%d", label, heard[1], heard[2], want1, want2)
		}
		for _, r := range medium.Radios() {
			if !medium.LinksConsistent(r) {
				t.Fatalf("%s: radio %d's candidate list is stale", label, r.ID)
			}
		}
	}
	step("first frame", 1, 0)
	attach(2, geom.Point{X: 100})
	step("after a late attach", 2, 1)
	medium.MoveRadio(rx, geom.Point{X: 5000})
	step("receiver moved out of range", 2, 2)
	if rx.Stats.BelowThreshold != 1 {
		t.Fatalf("BelowThreshold = %d at the far position, want 1 (the tail is still modeled)", rx.Stats.BelowThreshold)
	}
	medium.MoveRadio(rx, geom.Point{X: 120})
	step("receiver moved back", 3, 3)
}
