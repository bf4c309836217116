package mobility

import (
	"math"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/sim"
)

// model computes node i's position at virtual time now. Implementations may
// lazily draw trajectory legs from per-node RNG sub-streams at query time;
// queries are monotone in now per node (the mover samples on a ticker), and
// the position between samples is defined by interpolation, so the sampled
// trajectory is independent of the tick rate.
type model interface {
	position(i int, now time.Duration) geom.Point
}

// —— Random waypoint ————————————————————————————————————————————————————————
//
// Each node repeats: draw a target uniform in the area and a speed uniform
// in [MaxSpeed/10, MaxSpeed], travel there in a straight line, pause, repeat.
// The first leg begins at the motion-window start. Targets are drawn inside
// the area, so waypoint nodes never leave it.

type waypointModel struct {
	area  geom.Rect
	min   float64
	max   float64
	pause time.Duration
	nodes []wpNode
}

type wpNode struct {
	rng       *sim.RNG
	pos       geom.Point // endpoint of the last completed leg
	target    geom.Point
	legStart  time.Duration
	legEnd    time.Duration
	moving    bool
	idleUntil time.Duration
}

// newWaypoint walks the initial points with leg speeds drawn from [lo, hi]
// and cfg's pause and motion start.
func newWaypoint(area geom.Rect, lo, hi float64, cfg Config, initial []geom.Point, rng *sim.RNG) *waypointModel {
	m := &waypointModel{area: area, min: lo, max: hi, pause: cfg.Pause,
		nodes: make([]wpNode, len(initial))}
	for i, p := range initial {
		m.nodes[i] = wpNode{rng: rng.Split(), pos: p, idleUntil: cfg.Start}
	}
	return m
}

// minSpeed is the low end of the speed draw: a tenth of the maximum.
func minSpeed(cfg Config) float64 { return cfg.MaxSpeedMps / 10 }

func (m *waypointModel) position(i int, now time.Duration) geom.Point {
	n := &m.nodes[i]
	for {
		if n.moving {
			if now < n.legEnd {
				f := float64(now-n.legStart) / float64(n.legEnd-n.legStart)
				return geom.Point{
					X: n.pos.X + (n.target.X-n.pos.X)*f,
					Y: n.pos.Y + (n.target.Y-n.pos.Y)*f,
				}
			}
			n.pos, n.moving = n.target, false
			n.idleUntil = n.legEnd + m.pause
			continue
		}
		if now < n.idleUntil {
			return n.pos
		}
		n.target = geom.Point{
			X: m.area.Min.X + n.rng.Float64()*m.area.Width(),
			Y: m.area.Min.Y + n.rng.Float64()*m.area.Height(),
		}
		speed := m.min + n.rng.Float64()*(m.max-m.min)
		travel := time.Duration(n.pos.Distance(n.target) / speed * float64(time.Second))
		if travel < time.Millisecond {
			travel = time.Millisecond // degenerate target draw; keep time advancing
		}
		n.legStart, n.legEnd, n.moving = n.idleUntil, n.idleUntil+travel, true
	}
}

// —— Reference-point group mobility ————————————————————————————————————————
//
// Groups move coherently: each group's reference point does a random
// waypoint walk over the whole area, and each member does its own slow
// waypoint walk *relative* to the reference point, confined to a
// groupRadiusM box. The member position is reference + offset, clamped to
// the area (a reference near the boundary would otherwise push members
// outside the deployment contract). There are max(2, n/10) groups (at most
// one per node), and node i belongs to group i mod groups.

type rpgmModel struct {
	area    geom.Rect
	refs    *waypointModel
	rel     *waypointModel
	groupOf []int
}

func newRPGM(area geom.Rect, cfg Config, initial []geom.Point, rng *sim.RNG) *rpgmModel {
	groups := min(max(2, len(initial)/10), len(initial))
	groupOf := make([]int, len(initial))
	refInit := make([]geom.Point, groups)
	counts := make([]int, groups)
	// Reference points start at the centroid of their members' initial
	// positions, so motion begins from the generator's placement rather
	// than teleporting groups together.
	for i := range initial {
		g := i % groups
		groupOf[i] = g
		refInit[g] = refInit[g].Add(initial[i].X, initial[i].Y)
		counts[g]++
	}
	for g := range refInit {
		refInit[g] = geom.Point{X: refInit[g].X / float64(counts[g]), Y: refInit[g].Y / float64(counts[g])}
	}
	refs := newWaypoint(area, minSpeed(cfg), cfg.MaxSpeedMps, cfg, refInit, rng)
	// Members wander the relative box at a quarter of the group speed: the
	// group carries them; the relative walk only loosens the formation.
	r := float64(groupRadiusM)
	relInit := make([]geom.Point, len(initial))
	for i := range relInit {
		g := groupOf[i]
		relInit[i] = geom.Point{X: initial[i].X - refInit[g].X, Y: initial[i].Y - refInit[g].Y}
	}
	relBox := geom.Rect{Min: geom.Point{X: -r, Y: -r}, Max: geom.Point{X: r, Y: r}}
	for i := range relInit {
		relInit[i] = relBox.Clamp(relInit[i]) // stragglers join the formation
	}
	rel := newWaypoint(relBox, minSpeed(cfg)/4, cfg.MaxSpeedMps/4, cfg, relInit, rng)
	return &rpgmModel{area: area, refs: refs, rel: rel, groupOf: groupOf}
}

func (m *rpgmModel) position(i int, now time.Duration) geom.Point {
	ref := m.refs.position(m.groupOf[i], now)
	rel := m.rel.position(i, now)
	return m.area.Clamp(geom.Point{X: ref.X + rel.X, Y: ref.Y + rel.Y})
}

// —— Corridor sweeps ———————————————————————————————————————————————————————
//
// Vehicle-like motion: the area is divided into `corridors` horizontal lanes;
// each node keeps its initial y, sweeps along x at a per-node constant speed
// in the direction fixed by its lane's parity (adjacent lanes flow opposite
// ways), and wraps around the area's x extent deterministically — a ring
// road. Speeds are drawn once at construction, in node order.

type corridorModel struct {
	area  geom.Rect
	start time.Duration
	nodes []corridorNode
}

type corridorNode struct {
	x0, y    float64
	velocity float64 // signed m/s along x
}

func newCorridor(area geom.Rect, cfg Config, initial []geom.Point, rng *sim.RNG) *corridorModel {
	m := &corridorModel{area: area, start: cfg.Start, nodes: make([]corridorNode, len(initial))}
	pitch := area.Height() / corridors
	lo, hi := minSpeed(cfg), cfg.MaxSpeedMps
	for i, p := range initial {
		lane := int(math.Floor((p.Y - area.Min.Y) / pitch))
		if lane < 0 {
			lane = 0
		}
		if lane >= corridors {
			lane = corridors - 1
		}
		v := lo + rng.Float64()*(hi-lo)
		if lane%2 == 1 {
			v = -v
		}
		m.nodes[i] = corridorNode{x0: p.X, y: p.Y, velocity: v}
	}
	return m
}

func (m *corridorModel) position(i int, now time.Duration) geom.Point {
	n := &m.nodes[i]
	if now <= m.start {
		return geom.Point{X: n.x0, Y: n.y}
	}
	dx := n.velocity * (now - m.start).Seconds()
	w := m.area.Width()
	x := math.Mod(n.x0-m.area.Min.X+dx, w)
	if x < 0 {
		x += w
	}
	return geom.Point{X: m.area.Min.X + x, Y: n.y}
}
