// Package mobility drives radio positions through virtual-time mobility
// models: random waypoint, reference-point group mobility (RPGM), and
// vehicle-like corridor sweeps. A Mover samples each node's trajectory on a
// fixed tick and applies changed positions through phy.Medium.MoveRadio, so
// the medium's cell index and link cache stay consistent while the topology
// moves under the protocols.
//
// Determinism contract: every node's trajectory is a pure function of the
// mover's seed, the node index, and the model parameters — each node draws
// its legs from a private RNG sub-stream split off at construction, so
// trajectories do not depend on how other nodes move or on event interleaving
// elsewhere in the simulation. The tick only changes how often trajectories
// are sampled (and therefore how often MoveRadio fires); the mover itself
// never touches the engine's root RNG. Link-break detection consumes no
// randomness at all. Fixed-seed runs are byte-identical across repeats.
//
// Interaction with topology generators (topology.Metro, SideForDensity,
// Random): the generator's output is the *initial placement*;
// from then on the declared Topology.Area is the contract. NewMover rejects
// any initial position outside the area, and every model keeps nodes inside
// it for the whole run — waypoint and RPGM draw (or clamp) targets within
// the area; corridor sweeps wrap deterministically at the area's x extent.
package mobility

import (
	"fmt"
	"math"
	"slices"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/phy"
	"meshcast/internal/sim"
)

// Model names accepted by Config.Model.
const (
	ModelWaypoint = "waypoint"
	ModelRPGM     = "rpgm"
	ModelCorridor = "corridor"
)

// Config parameterizes a Mover. The zero value is not valid: MaxSpeedMps
// must be positive.
type Config struct {
	// Model selects the mobility model: "waypoint" (default), "rpgm", or
	// "corridor".
	Model string
	// MaxSpeedMps bounds the uniform speed draw per waypoint leg (per node
	// for corridor). The minimum is MaxSpeedMps/10 — strictly positive,
	// because the classic random-waypoint pitfall of a zero minimum speed is
	// nodes stuck forever on near-zero-speed legs.
	MaxSpeedMps float64
	// Pause is the waypoint/RPGM dwell time at each target before the next
	// leg begins.
	Pause time.Duration
	// Start and End bound the motion window: positions are static before
	// Start and after End (End zero means motion never stops). Scenarios set
	// Start to the traffic warmup so routes form on the initial placement.
	Start time.Duration
	End   time.Duration
}

// The mover's fixed settings.
const (
	// tickInterval is the position-sampling interval.
	tickInterval = 500 * time.Millisecond
	// linkRangeM is the nominal radio range used for link-break detection,
	// the paper's WaveLAN range. Each tick the mover diffs the geometric
	// neighbor graph at this range and reports edges broken and formed.
	linkRangeM = 250
	// groupRadiusM is the RPGM member spread around the group reference
	// point.
	groupRadiusM = 100
	// corridors is the number of horizontal lanes for the corridor model;
	// lane parity fixes the sweep direction.
	corridors = 8
)

// Mover samples a mobility model on a virtual-time ticker and applies the
// positions to the medium. Create with NewMover, then Start.
type Mover struct {
	engine *sim.Engine
	medium *phy.Medium
	radios []*phy.Radio
	area   geom.Rect
	cfg    Config
	model  model
	ticker *sim.Ticker

	// Link-break detection state: the neighbor graph at linkRangeM as of the
	// last scan, as the ascending list of its (i<<32|j) pairs with i < j, a
	// spare list the next scan fills, and a reusable spatial bucket map at
	// link-range cell size with each radio's key in it (the phy cell index is
	// interference-radius sized — ~2 km by default — far too coarse to bound a
	// 250 m neighbor probe). scannedAt is the medium's change clock at the last
	// scan; zero before the baseline scan.
	pairs, spare []uint64
	cells        []linkCell
	buckets      map[linkCell][]int32
	scannedAt    uint64

	// Moves counts MoveRadio calls issued; Breaks and Forms count edges of
	// the link-range neighbor graph lost and gained across ticks.
	Moves, Breaks, Forms uint64

	// OnLinkEvent, when set, observes each tick's neighbor-graph diff
	// (breaks first). Stats trackers subscribe here.
	OnLinkEvent func(breaks, forms int, now time.Duration)
}

type linkCell struct{ x, y int32 }

// NewMover validates cfg and the initial placement and builds a mover for
// the given radios (index i is node i). The area is the deployment contract:
// every radio must start inside it and the model keeps every node inside it
// (corridor wraps at its x extent). rng must be a private sub-stream seeded
// from the scenario seed only, so motion is identical across protocols and
// metrics under one seed; NewMover splits it further into per-node streams.
func NewMover(engine *sim.Engine, medium *phy.Medium, radios []*phy.Radio, area geom.Rect, rng *sim.RNG, cfg Config) (*Mover, error) {
	n := len(radios)
	if n == 0 {
		return nil, fmt.Errorf("mobility: no radios to move")
	}
	// Negated comparisons, so that NaN is rejected too.
	if !(cfg.MaxSpeedMps > 0) || math.IsInf(cfg.MaxSpeedMps, 1) {
		return nil, fmt.Errorf("mobility: MaxSpeedMps must be positive and finite (got %g)", cfg.MaxSpeedMps)
	}
	if cfg.Pause < 0 {
		return nil, fmt.Errorf("mobility: Pause must not be negative (got %v)", cfg.Pause)
	}
	if cfg.Model == "" {
		cfg.Model = ModelWaypoint
	}
	if cfg.End != 0 && cfg.End < cfg.Start {
		return nil, fmt.Errorf("mobility: End %v before Start %v", cfg.End, cfg.Start)
	}
	if area.Width() <= 0 || area.Height() <= 0 {
		return nil, fmt.Errorf("mobility: degenerate deployment area %+v (topology generators must declare the area mobility moves within)", area)
	}
	for i, r := range radios {
		if !area.Contains(r.Pos) {
			return nil, fmt.Errorf("mobility: initial position of node %d (%v) outside deployment area %+v", i, r.Pos, area)
		}
	}
	mv := &Mover{
		engine:  engine,
		medium:  medium,
		radios:  radios,
		area:    area,
		cfg:     cfg,
		cells:   make([]linkCell, n),
		buckets: make(map[linkCell][]int32),
	}
	switch cfg.Model {
	case ModelWaypoint:
		mv.model = newWaypoint(area, minSpeed(cfg), cfg.MaxSpeedMps, cfg, initialPositions(radios), rng)
	case ModelRPGM:
		mv.model = newRPGM(area, cfg, initialPositions(radios), rng)
	case ModelCorridor:
		mv.model = newCorridor(area, cfg, initialPositions(radios), rng)
	default:
		return nil, fmt.Errorf("mobility: unknown model %q (want %s, %s, or %s)", cfg.Model, ModelWaypoint, ModelRPGM, ModelCorridor)
	}
	return mv, nil
}

func initialPositions(radios []*phy.Radio) []geom.Point {
	ps := make([]geom.Point, len(radios))
	for i, r := range radios {
		ps[i] = r.Pos
	}
	return ps
}

// Config returns the mover's configuration with the default model resolved.
func (mv *Mover) Config() Config { return mv.cfg }

// Start begins ticking. The first tick fires one tick interval after the
// current virtual time; ticks before Config.Start establish the link-graph
// baseline without moving anything.
func (mv *Mover) Start() {
	if mv.ticker != nil {
		return
	}
	mv.ticker = sim.NewTicker(mv.engine, tickInterval, 0, nil, mv.tick)
}

// Stop halts the mover permanently.
func (mv *Mover) Stop() {
	if mv.ticker != nil {
		mv.ticker.Stop()
	}
}

func (mv *Mover) tick() {
	now := mv.engine.Now()
	if now >= mv.cfg.Start && (mv.cfg.End == 0 || now <= mv.cfg.End) {
		for i, r := range mv.radios {
			if p := mv.model.position(i, now); p != r.Pos {
				mv.medium.MoveRadio(r, p)
				mv.Moves++
			}
		}
	}
	// The graph is a function of the positions: rescan only if one changed
	// since the last scan, whoever moved it.
	if mv.medium.Changes() != mv.scannedAt {
		mv.scanLinks(now)
	}
	if mv.cfg.End != 0 && now > mv.cfg.End {
		mv.ticker.Stop()
	}
}

// scanLinks rebuilds the geometric neighbor graph at linkRangeM and diffs it
// against the previous scan's: edges present then and gone now are breaks,
// new edges are forms. Pure geometry — no RNG — so tracking never perturbs
// the simulation's draw sequence. The first scan only sets the baseline.
//
// Both graphs are ascending pair lists, so the diff is one merge walk. A
// radio's pairs come out of its nine buckets in bucket order and are sorted
// as a run before the next radio's are appended.
func (mv *Mover) scanLinks(now time.Duration) {
	size := float64(linkRangeM)
	for k, b := range mv.buckets {
		mv.buckets[k] = b[:0]
	}
	for i, r := range mv.radios {
		k := linkCell{x: int32(math.Floor(r.Pos.X / size)), y: int32(math.Floor(r.Pos.Y / size))}
		mv.cells[i] = k
		mv.buckets[k] = append(mv.buckets[k], int32(i))
	}
	// Only a squared distance this close to size² needs the exact test.
	in2, out2 := size*size*(1-1e-9), size*size*(1+1e-9)
	baseline := mv.scannedAt == 0
	mv.scannedAt = mv.medium.Changes()
	prev, cur := mv.pairs, mv.spare[:0]
	for i, r := range mv.radios {
		k := mv.cells[i]
		run := len(cur)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, j := range mv.buckets[linkCell{x: k.x + dx, y: k.y + dy}] {
					if int(j) <= i {
						continue
					}
					q := mv.radios[j].Pos
					ex, ey := r.Pos.X-q.X, r.Pos.Y-q.Y
					if d2 := ex*ex + ey*ey; d2 < in2 || d2 <= out2 && r.Pos.Distance(q) <= size {
						cur = append(cur, uint64(i)<<32|uint64(j))
					}
				}
			}
		}
		slices.Sort(cur[run:])
	}
	mv.pairs, mv.spare = cur, prev
	if baseline {
		return
	}
	breaks, forms := 0, 0
	for len(prev) > 0 && len(cur) > 0 {
		switch {
		case prev[0] == cur[0]:
			prev, cur = prev[1:], cur[1:]
		case prev[0] < cur[0]:
			breaks++
			prev = prev[1:]
		default:
			forms++
			cur = cur[1:]
		}
	}
	breaks += len(prev)
	forms += len(cur)
	mv.Breaks += uint64(breaks)
	mv.Forms += uint64(forms)
	if mv.OnLinkEvent != nil && (breaks > 0 || forms > 0) {
		mv.OnLinkEvent(breaks, forms, now)
	}
}
