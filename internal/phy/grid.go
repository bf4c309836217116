package phy

import (
	"math"
	"math/bits"
	"slices"

	"meshcast/internal/geom"
	"meshcast/internal/propagation"
)

// The spatial cell index.
//
// buildLinks (cache.go) originally scanned every attached radio to assemble
// one transmitter's candidate-receiver list, making list construction O(N)
// per transmitter — O(N²) across a whole topology. Both that and throwing the
// whole cache away on every attach or move are invisible at the paper's 50
// nodes and dominant at metro scale (ROADMAP: 10k–100k nodes).
//
// The index buckets radios into square cells whose side is the medium's
// *interference radius*: the largest distance at which the path-loss model
// still yields mean power ≥ ignoreBelowW. Any radio farther away than that
// is exactly the pair the candidate list drops up front (too weak even for
// carrier sense), so every candidate of a transmitter lives in the 3×3 cell
// block around it, and buildLinks probes 9 cells instead of N radios.
//
// Determinism contract addendum (see cache.go): the cell probe must reproduce
// the brute-force scan bit for bit — the same members in attach order, the
// same mean power and delay. The probe sets one bit per member of the nine
// cells in a bitset over attach indexes and walks the set bits upwards, which
// is attach order whatever order the cells were visited in: O(N/64 + k) for k
// block members, no merge and no sort. Each member then passes the *same*
// mean-power test as in the brute scan, behind a prefilter on the squared
// distance that only drops pairs more than a metre beyond the interference
// radius — pairs the exact test drops too, since that radius is where the mean
// crosses the floor; inside the margin the exact test alone decides, so the
// prefilter cannot change a list. TestCellIndexMatchesBruteForce compares the
// two builders link by link on random topologies, and the storm tests replay
// whole runs against a medium built without the index.
//
// The index assumes mean received power is nonincreasing in distance beyond
// the interference radius — true for Friis and two-ray, the models this
// repository ships. A custom PathLoss for which no such radius can be found
// (the floor is never crossed within 10^7 m, or ignoreBelowW is zero)
// disables the index and buildLinks falls back to the brute-force scan.
//
// The index is also what tells a list it is stale. Every cell carries the
// stamp — a reading of the medium's change clock — of the last attach into
// it, move out of it, into it or within it. A list built at clock t is stale
// iff a cell of its transmitter's block is stamped later than t. That is
// exactly the set a move can change: a radio r moving from cell A to cell B
// alters the list of transmitter x only if r was or is within the
// interference radius of x, hence only if A or B is in x's block — and r's own
// list (every distance in it shifted) has B, freshly stamped, in its block. A
// transmitter that has itself moved since t is caught the same way by the
// stamp on the cell it moved into, so comparing against the block around its
// *current* position is enough. Recording a change is O(1) however many
// radios the block holds; finding out costs the transmitter nine lookups the
// next time it sends, and nothing while the clock stands still.

// cellKey addresses one grid cell; cells are cellSize × cellSize squares
// anchored at the origin (negative coordinates are fine).
type cellKey struct{ x, y int32 }

// cell is one bucket: its members' attach indexes, ascending, and the change
// clock of the last time its membership or a member's position changed.
type cell struct {
	members []int32
	stamp   uint64
}

// cellIndex is the spatial bucket structure. Radios never detach, but
// MoveRadio rebuckets them. A cell the last member has left stays in the map:
// its stamp is the only record that the lists around it lost a candidate, and
// the map is bounded by the cells ever occupied.
type cellIndex struct {
	size float64 // cell side in metres, ≥ the interference radius
	// beyond2 is the prefilter's bound: a pair whose squared distance exceeds
	// it is more than a metre outside the interference radius.
	beyond2 float64
	cells   map[cellKey]*cell
	// member is the probe's bitset over attach indexes, all zero between
	// probes.
	member []uint64
}

func newCellIndex(size float64) *cellIndex {
	return &cellIndex{size: size, beyond2: (size + 1) * (size + 1), cells: make(map[cellKey]*cell)}
}

func (ci *cellIndex) keyFor(p geom.Point) cellKey {
	return cellKey{
		x: int32(math.Floor(p.X / ci.size)),
		y: int32(math.Floor(p.Y / ci.size)),
	}
}

// at returns the cell for k, creating it on first use.
func (ci *cellIndex) at(k cellKey) *cell {
	c := ci.cells[k]
	if c == nil {
		c = &cell{}
		ci.cells[k] = c
	}
	return c
}

// block returns the cells of the 3×3 block around p; nil where no radio has
// ever been.
func (ci *cellIndex) block(p geom.Point) (b [9]*cell) {
	k := ci.keyFor(p)
	i := 0
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			b[i] = ci.cells[cellKey{x: k.x + dx, y: k.y + dy}]
			i++
		}
	}
	return b
}

// changedSince reports whether any cell of the block around p was stamped
// after clock t.
func (ci *cellIndex) changedSince(p geom.Point, t uint64) bool {
	for _, c := range ci.block(p) {
		if c != nil && c.stamp > t {
			return true
		}
	}
	return false
}

// add buckets r into its cell and stamps it. Radios are attached with
// increasing indexes, so appending keeps the cell ascending.
func (ci *cellIndex) add(r *Radio, stamp uint64) {
	c := ci.at(ci.keyFor(r.Pos))
	c.members = append(c.members, int32(r.index))
	c.stamp = stamp
}

// move stamps the cell of r's current position and the cell of `to`, and
// rebuckets r if they differ. Must be called before r.Pos is updated (the old
// cell is derived from it).
func (ci *cellIndex) move(r *Radio, to geom.Point, stamp uint64) {
	from, dst := ci.keyFor(r.Pos), ci.keyFor(to)
	old := ci.cells[from]
	old.stamp = stamp
	if from == dst {
		return
	}
	i, _ := slices.BinarySearch(old.members, int32(r.index))
	old.members = slices.Delete(old.members, i, i+1)
	c := ci.at(dst)
	j, _ := slices.BinarySearch(c.members, int32(r.index))
	c.members = slices.Insert(c.members, j, int32(r.index))
	c.stamp = stamp
}

// interferenceRadius returns the smallest distance beyond which the
// path-loss model keeps mean received power below floor — the range outside
// which buildLinks' skip set drops a pair unconditionally. It assumes power
// is nonincreasing in distance (true for Friis and two-ray) and reports 0
// when no such radius exists within 10^7 m (or floor is not positive),
// which disables the cell index.
func interferenceRadius(pl propagation.PathLoss, txPowerW, floor float64) float64 {
	if floor <= 0 {
		return 0
	}
	hi := 1.0
	for pl.ReceivedPower(txPowerW, hi) >= floor {
		hi *= 2
		if hi > 1e7 {
			return 0
		}
	}
	lo := 0.0
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if pl.ReceivedPower(txPowerW, mid) >= floor {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// buildLinksIndexed builds src's ranked candidate list, assembled from the
// 3×3 cell probe, in dst's backing array. It must produce exactly
// buildLinksBrute's output (see the determinism contract above); callers
// guarantee the physics models are active and the index exists.
func (m *Medium) buildLinksIndexed(src *Radio, dst []link) []link {
	dst = dst[:0]
	ci := m.grid
	for len(ci.member)*64 < len(m.radios) {
		ci.member = append(ci.member, 0)
	}
	for _, c := range ci.block(src.Pos) {
		if c == nil {
			continue
		}
		for _, i := range c.members {
			ci.member[i>>6] |= 1 << (i & 63)
		}
	}
	ci.member[src.index>>6] &^= 1 << (src.index & 63)
	for w, word := range ci.member {
		ci.member[w] = 0
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			rx := m.radios[i]
			dx, dy := src.Pos.X-rx.Pos.X, src.Pos.Y-rx.Pos.Y
			if dx*dx+dy*dy > ci.beyond2 {
				continue
			}
			d := src.Pos.Distance(rx.Pos)
			mean := m.pathLoss.ReceivedPower(m.params.TxPowerW, d)
			if mean < m.ignoreBelowW {
				continue
			}
			delay, _ := linkDelay(d) // d is within the interference radius
			dst = append(dst, link{rx: uint16(i), meanPower: mean, propDelay: delay})
		}
	}
	m.rankByDelay(dst)
	return dst
}
