package phy

import (
	"math"
	"sort"

	"meshcast/internal/geom"
	"meshcast/internal/propagation"
)

// The spatial cell index.
//
// buildLinks (cache.go) originally scanned every attached radio to assemble
// one transmitter's candidate-receiver list, making list construction O(N)
// per transmitter — O(N²) across a whole topology — and full-cache
// invalidation on AttachRadio O(N·k) to recover from. Both are invisible at
// the paper's 50 nodes and dominant at metro scale (ROADMAP: 10k–100k
// nodes).
//
// The index buckets radios into square cells whose side is the medium's
// *interference radius*: the largest distance at which the path-loss model
// still yields mean power ≥ ignoreBelowW. Any radio farther away than that
// is exactly the pair the candidate list drops up front (too weak even for
// carrier sense), so every candidate of a transmitter lives in the 3×3 cell
// block around it, and buildLinks probes ~9 cells instead of N radios.
//
// Determinism contract addendum (see cache.go): the merged cell probe must
// reproduce the brute-force scan bit for bit. Per-cell member lists are kept
// sorted by attach index (appends preserve it, moves reinsert in order), so
// the 3×3 probe is a 9-way merge by attach index — no per-probe sort — and
// the resulting list has the same members in the same attach order as the
// brute scan before applying the *same* mean-power filter: same RNG draw
// sequence per frame, byte-identical output. The property test
// TestCellIndexMatchesBruteForce compares the two builders link by link on
// random topologies, and the storm tests replay whole runs against a medium
// built without the index.
//
// The index assumes mean received power is nonincreasing in distance beyond
// the interference radius — true for Friis and two-ray, the models this
// repository ships. A custom PathLoss for which no such radius can be found
// (the floor is never crossed within 10^7 m, or ignoreBelowW is zero)
// disables the index and buildLinks falls back to the brute-force scan.
//
// The index also bounds AttachRadio invalidation: a new radio can only
// appear in the candidate lists of transmitters inside its own 3×3
// neighborhood, so only those lists are discarded instead of every list —
// attach-as-you-go setups (live testbeds, incremental fleets) stay linear
// instead of quadratic.

// cellKey addresses one grid cell; cells are cellSize × cellSize squares
// anchored at the origin (negative coordinates are fine).
type cellKey struct{ x, y int32 }

// cellIndex is the spatial bucket structure. Radios never detach, but
// MoveRadio rebuckets them; within every cell the member list stays sorted
// by attach index (buildLinksIndexed merges cells on that invariant).
type cellIndex struct {
	size  float64 // cell side in metres, ≥ the interference radius
	cells map[cellKey][]*Radio
}

func newCellIndex(size float64) *cellIndex {
	return &cellIndex{size: size, cells: make(map[cellKey][]*Radio)}
}

func (ci *cellIndex) keyFor(p geom.Point) cellKey {
	return cellKey{
		x: int32(math.Floor(p.X / ci.size)),
		y: int32(math.Floor(p.Y / ci.size)),
	}
}

// add buckets r into its cell. Radios are attached with increasing indexes,
// so appending preserves the sorted-by-attach-index invariant.
func (ci *cellIndex) add(r *Radio) {
	k := ci.keyFor(r.Pos)
	ci.cells[k] = append(ci.cells[k], r)
}

// move rebuckets r from the cell of its current position to the cell of
// `to`, preserving attach-index order in both cells: removal shifts the old
// cell down, insertion binary-searches the new cell for r's slot. Must be
// called before r.Pos is updated (the old cell is derived from it).
func (ci *cellIndex) move(r *Radio, to geom.Point) {
	from, dst := ci.keyFor(r.Pos), ci.keyFor(to)
	if from == dst {
		return
	}
	cell := ci.cells[from]
	i := sort.Search(len(cell), func(i int) bool { return cell[i].index >= r.index })
	copy(cell[i:], cell[i+1:])
	cell[len(cell)-1] = nil
	if len(cell) == 1 {
		delete(ci.cells, from) // keep the map from accumulating empty cells
	} else {
		ci.cells[from] = cell[:len(cell)-1]
	}
	nc := ci.cells[dst]
	j := sort.Search(len(nc), func(i int) bool { return nc[i].index >= r.index })
	nc = append(nc, nil)
	copy(nc[j+1:], nc[j:])
	nc[j] = r
	ci.cells[dst] = nc
}

// neighborhood appends every radio in the 3×3 cell block around p to dst and
// returns it. Cell iteration order is fixed but the result is not globally
// sorted; callers needing attach order sort by Radio.index.
func (ci *cellIndex) neighborhood(p geom.Point, dst []*Radio) []*Radio {
	k := ci.keyFor(p)
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			dst = append(dst, ci.cells[cellKey{x: k.x + dx, y: k.y + dy}]...)
		}
	}
	return dst
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

// gather appends the 3×3 cell block around p to dst in attach-index order by
// merging the per-cell lists (each already sorted by attach index — see
// cellIndex). A 9-way merge costs O(9·k) comparisons for k candidates,
// replacing the O(k log k) per-probe sort the first version of the index
// paid on every invalidated transmitter.
func (ci *cellIndex) gather(p geom.Point, dst []*Radio) []*Radio {
	k := ci.keyFor(p)
	var heads [9][]*Radio
	n := 0
	for dx := int32(-1); dx <= 1; dx++ {
		for dy := int32(-1); dy <= 1; dy++ {
			if cell := ci.cells[cellKey{x: k.x + dx, y: k.y + dy}]; len(cell) > 0 {
				heads[n] = cell
				n++
			}
		}
	}
	for {
		best := -1
		for i := 0; i < n; i++ {
			if len(heads[i]) > 0 && (best < 0 || heads[i][0].index < heads[best][0].index) {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		dst = append(dst, heads[best][0])
		heads[best] = heads[best][1:]
	}
}

// buildLinksIndexed appends src's candidate list, assembled from the 3×3 cell
// probe, to dst. It must produce exactly buildLinksBrute's output (see the
// determinism contract above); callers guarantee the physics models are
// active and the index exists.
func (m *Medium) buildLinksIndexed(src *Radio, dst []link) []link {
	cand := m.grid.gather(src.Pos, m.scratch[:0])
	for _, rx := range cand {
		if rx == src {
			continue
		}
		d := src.Pos.Distance(rx.Pos)
		mean := m.pathLoss.ReceivedPower(m.params.TxPowerW, d)
		if mean < m.ignoreBelowW {
			continue
		}
		dst = append(dst, link{rx: rx, meanPower: mean, propDelay: propagation.Delay(d)})
	}
	m.scratch = cand[:0]
	return dst
}

// invalidateLinksAround marks stale only the candidate lists the newly
// attached radio r can appear in: transmitters within the interference radius
// of r, all of which live in r's 3×3 cell neighborhood. The cache also grows
// an (empty, lazily built) slot for r itself. Falls back to full invalidation
// when the affected set cannot be bounded (no index, or a LinkFunc oracle,
// under which every list contains every radio).
func (m *Medium) invalidateLinksAround(r *Radio) {
	if m.links == nil {
		return
	}
	m.links = append(m.links, candidates{})
	if m.grid == nil || m.linkFunc != nil {
		m.invalidateLinks()
		return
	}
	near := m.grid.neighborhood(r.Pos, m.scratch[:0])
	for _, other := range near {
		m.links[other.index].valid = false
	}
	m.scratch = near[:0]
}

// invalidateLinksMoved marks stale the candidate lists a completed move of r
// (from old to r.Pos) can have changed: r's own list (every distance in it
// shifted) and the lists of all transmitters in the 3×3 neighborhoods of
// both endpoints — anyone outside both blocks was beyond the interference
// radius of r before the move and still is, so their lists are untouched.
// Falls back to full invalidation when the affected set cannot be bounded
// (no index, or a LinkFunc oracle: oracle lists contain every radio but bake
// in distance-derived propagation delays, so membership bounds don't help).
func (m *Medium) invalidateLinksMoved(r *Radio, old geom.Point) {
	if m.links == nil {
		return
	}
	if m.grid == nil || m.linkFunc != nil {
		m.invalidateLinks()
		return
	}
	m.links[r.index].valid = false
	near := m.grid.neighborhood(old, m.scratch[:0])
	near = m.grid.neighborhood(r.Pos, near)
	for _, other := range near {
		m.links[other.index].valid = false
	}
	m.scratch = near[:0]
}
