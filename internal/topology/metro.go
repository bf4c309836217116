package topology

import (
	"math"

	"meshcast/internal/geom"
	"meshcast/internal/sim"
)

// Metro-scale generators.
//
// The paper's world is 50 nodes uniform in 1000 m × 1000 m — 50 nodes/km².
// The ROADMAP's target is city scale (10k–100k nodes), where uniform
// placement is the wrong model: real metro meshes concentrate around
// hotspots (commercial districts, campuses) over a sparse residential
// background, with wired gateways on a deliberate lattice. These generators
// produce that shape while holding the paper's density, so per-node radio
// neighborhoods — and thus per-transmit fan-out cost — stay comparable as N
// grows. That property is what the spatial cell index in internal/phy
// exploits and what the benchmark's metro1k-minhop workload measures.

// PaperDensityPerKm2 is the node density of the paper's 50-node scenario.
const PaperDensityPerKm2 = 50

// SideForDensity returns the side of the square deployment area that holds n
// nodes at the given density (nodes per km²).
func SideForDensity(n int, densityPerKm2 float64) float64 {
	if n <= 0 || densityPerKm2 <= 0 {
		return 0
	}
	return 1000 * math.Sqrt(float64(n)/densityPerKm2)
}

// MetroConfig configures a clustered city-scale placement.
type MetroConfig struct {
	// Nodes is the total node count, gateways included.
	Nodes int
	// DensityPerKm2 sets the deployment area via SideForDensity; the paper's
	// density when zero.
	DensityPerKm2 float64
	// Hotspots is the number of cluster centers. When zero, one hotspot per
	// 250 nodes (minimum 4) — a few hundred nodes per district.
	Hotspots int
	// SigmaM is the Gaussian spread of each hotspot in metres. When zero,
	// one eighth of the mean hotspot pitch, which keeps clusters distinct
	// but overlapping enough to stay connected through the background.
	SigmaM float64
	// BackgroundFrac is the fraction of nodes placed uniformly over the
	// whole area instead of around a hotspot (bridges between clusters).
	// Defaults to 0.25 when zero; use a negative value for no background.
	BackgroundFrac float64
	// GatewaySpacingM places gateway nodes on a square lattice with this
	// pitch before any clustered nodes (IDs 0..G-1, so experiment harnesses
	// can address them without a lookup). Zero means no gateways.
	GatewaySpacingM float64
}

// withDefaults resolves the zero-value knobs against the derived area side.
func (c MetroConfig) withDefaults() MetroConfig {
	if c.DensityPerKm2 == 0 {
		c.DensityPerKm2 = PaperDensityPerKm2
	}
	if c.Hotspots == 0 {
		c.Hotspots = c.Nodes / 250
		if c.Hotspots < 4 {
			c.Hotspots = 4
		}
	}
	if c.SigmaM == 0 {
		side := SideForDensity(c.Nodes, c.DensityPerKm2)
		c.SigmaM = side / math.Sqrt(float64(c.Hotspots)) / 8
	}
	if c.BackgroundFrac == 0 {
		c.BackgroundFrac = 0.25
	} else if c.BackgroundFrac < 0 {
		c.BackgroundFrac = 0
	}
	return c
}

// Metro generates a clustered metro-scale topology and returns it together
// with the gateway IDs (a prefix of the node IDs, possibly empty). Placement
// order — and therefore node ID assignment and every RNG draw — is fixed:
// gateways on the lattice row-major first, then each remaining node draws
// uniform-vs-hotspot, then its position. Fixed seed, fixed placement.
func Metro(rng *sim.RNG, cfg MetroConfig) (*Topology, []int) {
	cfg = cfg.withDefaults()
	side := SideForDensity(cfg.Nodes, cfg.DensityPerKm2)
	area := geom.Rect{Max: geom.Point{X: side, Y: side}}

	pos := make([]geom.Point, 0, cfg.Nodes)
	var gateways []int
	if cfg.GatewaySpacingM > 0 {
		// Lattice centered in the area: cells of GatewaySpacingM with a
		// gateway at each cell center, row-major.
		per := int(side / cfg.GatewaySpacingM)
		if per < 1 {
			per = 1
		}
		pitch := side / float64(per)
		for gy := 0; gy < per && len(pos) < cfg.Nodes; gy++ {
			for gx := 0; gx < per && len(pos) < cfg.Nodes; gx++ {
				gateways = append(gateways, len(pos))
				pos = append(pos, geom.Point{
					X: (float64(gx) + 0.5) * pitch,
					Y: (float64(gy) + 0.5) * pitch,
				})
			}
		}
	}

	centers := make([]geom.Point, cfg.Hotspots)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	for len(pos) < cfg.Nodes {
		var p geom.Point
		if rng.Float64() < cfg.BackgroundFrac {
			p = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		} else {
			c := centers[rng.Intn(len(centers))]
			p = geom.Point{
				X: clamp(c.X+rng.NormFloat64()*cfg.SigmaM, 0, side),
				Y: clamp(c.Y+rng.NormFloat64()*cfg.SigmaM, 0, side),
			}
		}
		pos = append(pos, p)
	}
	return &Topology{Positions: pos, Area: area}, gateways
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
