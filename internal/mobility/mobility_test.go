package mobility

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/topology"
)

func buildWorld(t testing.TB, seed uint64, topo *topology.Topology) (*sim.Engine, *phy.Medium, []*phy.Radio) {
	t.Helper()
	engine := sim.NewEngine(seed)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())
	radios := make([]*phy.Radio, len(topo.Positions))
	for i, p := range topo.Positions {
		radios[i] = medium.AttachRadio(packet.NodeID(i), p)
	}
	return engine, medium, radios
}

func metroTopo(t testing.TB, n int, seed uint64) *topology.Topology {
	t.Helper()
	topo, err := topology.Metro(sim.NewRNG(seed), topology.MetroConfig{Nodes: n})
	if err != nil {
		t.Fatalf("Metro: %v", err)
	}
	return topo
}

// trajectoryTrace runs a model for virtual `dur` and returns a position dump
// at every tick — the determinism fingerprint.
func trajectoryTrace(t *testing.T, model string, seed uint64, dur time.Duration) string {
	t.Helper()
	topo := metroTopo(t, 40, seed)
	engine, medium, radios := buildWorld(t, seed, topo)
	mv, err := NewMover(engine, medium, radios, topo.Area, sim.NewRNG(seed^0xabcd), Config{
		Model: model, MaxSpeedMps: 20, Pause: 200 * time.Millisecond, Tick: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewMover(%s): %v", model, err)
	}
	var log strings.Builder
	sim.NewTicker(engine, 250*time.Millisecond, 0, nil, func() {
		for i, r := range radios {
			fmt.Fprintf(&log, "%v n%d %.4f %.4f\n", engine.Now(), i, r.Pos.X, r.Pos.Y)
		}
	})
	mv.Start()
	engine.Run(dur)
	fmt.Fprintf(&log, "moves=%d breaks=%d forms=%d\n", mv.Moves, mv.Breaks, mv.Forms)
	return log.String()
}

// TestModelsDeterministic: same seed, same trajectories, byte for byte —
// for every model.
func TestModelsDeterministic(t *testing.T) {
	for _, model := range []string{ModelWaypoint, ModelRPGM, ModelCorridor} {
		a := trajectoryTrace(t, model, 7, 10*time.Second)
		b := trajectoryTrace(t, model, 7, 10*time.Second)
		if a != b {
			t.Fatalf("%s: repeat run diverged", model)
		}
		if c := trajectoryTrace(t, model, 8, 10*time.Second); c == a {
			t.Fatalf("%s: different seed produced identical trajectories", model)
		}
		if !strings.Contains(a, "moves=") || strings.Contains(a, "moves=0\n") {
			t.Fatalf("%s: nothing moved:\n%s", model, a[:200])
		}
	}
}

// TestModelsStayInsideArea is the satellite-6 contract: a metro topology's
// declared area bounds every position for the whole run, under every model.
func TestModelsStayInsideArea(t *testing.T) {
	for _, model := range []string{ModelWaypoint, ModelRPGM, ModelCorridor} {
		topo := metroTopo(t, 60, 11)
		engine, medium, radios := buildWorld(t, 11, topo)
		mv, err := NewMover(engine, medium, radios, topo.Area, sim.NewRNG(99), Config{
			Model: model, MaxSpeedMps: 40, Tick: 200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("NewMover(%s): %v", model, err)
		}
		violations := 0
		sim.NewTicker(engine, 100*time.Millisecond, 0, nil, func() {
			for i, r := range radios {
				if !topo.Area.Contains(r.Pos) {
					violations++
					if violations == 1 {
						t.Errorf("%s: node %d at %v outside area %+v (t=%v)", model, i, r.Pos, topo.Area, engine.Now())
					}
				}
			}
		})
		mv.Start()
		engine.Run(30 * time.Second)
		if violations > 0 {
			t.Fatalf("%s: %d out-of-area samples", model, violations)
		}
		if mv.Moves == 0 {
			t.Fatalf("%s: nothing moved", model)
		}
	}
}

// TestNewMoverValidation: bad configs and placements are rejected up front.
func TestNewMoverValidation(t *testing.T) {
	topo := metroTopo(t, 10, 3)
	engine, medium, radios := buildWorld(t, 3, topo)
	rng := sim.NewRNG(1)
	if _, err := NewMover(engine, medium, radios, topo.Area, rng, Config{}); err == nil {
		t.Fatal("zero MaxSpeedMps accepted")
	}
	if _, err := NewMover(engine, medium, radios, topo.Area, rng, Config{MaxSpeedMps: 5, Model: "teleport"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := NewMover(engine, medium, radios, geom.Rect{}, rng, Config{MaxSpeedMps: 5}); err == nil {
		t.Fatal("degenerate area accepted")
	}
	// A node outside the declared area breaks the deployment contract.
	small := geom.Rect{Max: geom.Point{X: 1, Y: 1}}
	if _, err := NewMover(engine, medium, radios, small, rng, Config{MaxSpeedMps: 5}); err == nil {
		t.Fatal("out-of-area initial placement accepted")
	}
	if _, err := NewMover(engine, medium, radios, topo.Area, rng, Config{MaxSpeedMps: 5, MinSpeedMps: 9}); err == nil {
		t.Fatal("MinSpeed > MaxSpeed accepted")
	}
	for _, bad := range []Config{
		{MaxSpeedMps: math.NaN()},
		{MaxSpeedMps: math.Inf(1)},
		{MaxSpeedMps: -1},
		{MaxSpeedMps: 5, MinSpeedMps: math.NaN()},
		{MaxSpeedMps: 5, MinSpeedMps: math.Inf(1)},
	} {
		if _, err := NewMover(engine, medium, radios, topo.Area, rng, bad); err == nil || !strings.Contains(err.Error(), "SpeedMps") {
			t.Fatalf("speeds %g..%g: %v, want an error naming the speed", bad.MinSpeedMps, bad.MaxSpeedMps, err)
		}
	}
	if _, err := NewMover(engine, medium, radios, topo.Area, rng, Config{MaxSpeedMps: 5, Start: time.Second, End: time.Millisecond}); err == nil {
		t.Fatal("End before Start accepted")
	}
	if _, err := NewMover(engine, medium, radios, topo.Area, rng, Config{MaxSpeedMps: 5, Pause: -2 * time.Second}); err == nil || !strings.Contains(err.Error(), "Pause") {
		t.Fatalf("negative Pause: %v, want an error naming Pause", err)
	}
}

// TestLinkBreakDetection: two nodes separated beyond LinkRangeM register one
// break, and one form when they meet again. The baseline scan must not count
// the initial edges as forms.
func TestLinkBreakDetection(t *testing.T) {
	topo := &topology.Topology{
		Positions: []geom.Point{{X: 100, Y: 100}, {X: 200, Y: 100}},
		Area:      geom.Square(2000),
	}
	engine, medium, radios := buildWorld(t, 5, topo)
	// Corridor with one lane: both nodes sweep +x at different speeds, so
	// they separate, and the faster one wraps around to meet the slower.
	mv, err := NewMover(engine, medium, radios, topo.Area, sim.NewRNG(2), Config{
		Model: ModelCorridor, Corridors: 1, MinSpeedMps: 1, MaxSpeedMps: 60,
		Tick: 100 * time.Millisecond, LinkRangeM: 250,
	})
	if err != nil {
		t.Fatal(err)
	}
	var events []string
	mv.OnLinkEvent = func(breaks, forms int, now time.Duration) {
		events = append(events, fmt.Sprintf("%d/%d", breaks, forms))
	}
	mv.Start()
	engine.Run(120 * time.Second)
	if mv.Breaks == 0 || mv.Forms == 0 {
		t.Fatalf("breaks=%d forms=%d, want both > 0 (events: %v)", mv.Breaks, mv.Forms, events)
	}
	if mv.Forms > mv.Breaks {
		t.Fatalf("forms=%d > breaks=%d: the baseline scan leaked initial edges as forms", mv.Forms, mv.Breaks)
	}
}

// TestMotionWindow: nothing moves before Start or after End.
func TestMotionWindow(t *testing.T) {
	topo := metroTopo(t, 20, 9)
	engine, medium, radios := buildWorld(t, 9, topo)
	initial := make([]geom.Point, len(radios))
	for i, r := range radios {
		initial[i] = r.Pos
	}
	mv, err := NewMover(engine, medium, radios, topo.Area, sim.NewRNG(4), Config{
		Model: ModelWaypoint, MaxSpeedMps: 30, Tick: 100 * time.Millisecond,
		Start: 2 * time.Second, End: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	mv.Start()
	engine.Run(1900 * time.Millisecond)
	for i, r := range radios {
		if r.Pos != initial[i] {
			t.Fatalf("node %d moved before Start", i)
		}
	}
	engine.Run(4 * time.Second)
	if mv.Moves == 0 {
		t.Fatal("nothing moved inside the motion window")
	}
	frozen := make([]geom.Point, len(radios))
	for i, r := range radios {
		frozen[i] = r.Pos
	}
	moves := mv.Moves
	engine.Run(10 * time.Second)
	for i, r := range radios {
		if r.Pos != frozen[i] {
			t.Fatalf("node %d moved after End", i)
		}
	}
	if mv.Moves != moves {
		t.Fatal("moves counted after End")
	}
}

// TestMoverMatchesBruteForceLinks: while the mover runs, the medium's cached
// candidate lists must stay equal to a brute-force rebuild (the MoveRadio
// integration seen from above).
func TestMoverMatchesBruteForceLinks(t *testing.T) {
	topo := metroTopo(t, 50, 17)
	engine, medium, radios := buildWorld(t, 17, topo)
	mv, err := NewMover(engine, medium, radios, topo.Area, sim.NewRNG(17), Config{
		Model: ModelWaypoint, MaxSpeedMps: 25, Tick: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mismatch := 0
	sim.NewTicker(engine, time.Second, 0, nil, func() {
		for _, r := range radios {
			if !medium.LinksConsistent(r) {
				mismatch++
			}
		}
	})
	mv.Start()
	engine.Run(8 * time.Second)
	if mismatch > 0 {
		t.Fatalf("%d cached candidate lists diverged from brute force during motion", mismatch)
	}
	if mv.Moves == 0 {
		t.Fatal("nothing moved")
	}
}

// TestLinkCountersMatchBruteForce recounts the LinkRangeM graph over all
// O(N²) pairs after every tick and requires Breaks and Forms to equal the
// running sums of its diffs, under every model. Before Config.Start the test
// moves two radios by hand — onto exactly LinkRangeM apart, which is a link,
// and a hair beyond, which is not — and leaves one tick with no move at all,
// which the mover skips without miscounting.
func TestLinkCountersMatchBruteForce(t *testing.T) {
	const (
		nodes   = 200
		ticks   = 40
		tick    = 250 * time.Millisecond
		linkM   = 250.0
		startAt = 6 * tick
	)
	for _, model := range []string{ModelWaypoint, ModelRPGM, ModelCorridor} {
		topo := metroTopo(t, nodes, 23)
		engine, medium, radios := buildWorld(t, 23, topo)
		mv, err := NewMover(engine, medium, radios, topo.Area, sim.NewRNG(23), Config{
			Model: model, MaxSpeedMps: 40, Pause: 300 * time.Millisecond, Tick: tick, Start: startAt, LinkRangeM: linkM,
		})
		if err != nil {
			t.Fatalf("NewMover(%s): %v", model, err)
		}
		graph := func() map[[2]int]bool {
			g := make(map[[2]int]bool)
			for i, a := range radios {
				for j := i + 1; j < len(radios); j++ {
					if a.Pos.Distance(radios[j].Pos) <= linkM {
						g[[2]int{i, j}] = true
					}
				}
			}
			return g
		}
		// By hand, between ticks and before the models take over: radio 0 onto
		// whole-metre coordinates (so the distances below are exact), radio 1
		// to exactly link range of it, then just out of it, then nothing.
		c := topo.Area.Center()
		anchor := geom.Point{X: math.Floor(c.X), Y: math.Floor(c.Y)}
		byHand := map[int][]geom.Point{
			2: {anchor, {X: anchor.X + linkM, Y: anchor.Y}},
			3: {anchor, {X: anchor.X + linkM + 1e-7, Y: anchor.Y}},
		}
		mv.Start()
		var prev map[[2]int]bool
		var breaks, forms uint64
		events := 0
		mv.OnLinkEvent = func(int, int, time.Duration) { events++ }
		for k := 1; k <= ticks; k++ {
			for i, p := range byHand[k] {
				medium.MoveRadio(radios[i], p)
			}
			seen := events
			engine.Run(time.Duration(k) * tick)
			cur := graph()
			if k == 2 && !cur[[2]int{0, 1}] {
				t.Fatalf("%s: radios exactly %v m apart are not linked", model, linkM)
			}
			if k == 3 && cur[[2]int{0, 1}] {
				t.Fatalf("%s: radios beyond link range are linked", model)
			}
			var b, f uint64
			for e := range prev {
				if !cur[e] {
					b++
				}
			}
			for e := range cur {
				if prev != nil && !prev[e] {
					f++
				}
			}
			prev = cur
			breaks, forms = breaks+b, forms+f
			if mv.Breaks != breaks || mv.Forms != forms {
				t.Fatalf("%s tick %d: breaks/forms = %d/%d, brute force counts %d/%d", model, k, mv.Breaks, mv.Forms, breaks, forms)
			}
			if (events != seen) != (b+f > 0) {
				t.Fatalf("%s tick %d: OnLinkEvent fired = %v with %d breaks and %d forms", model, k, events != seen, b, f)
			}
			if k == 4 && (mv.Moves != 0 || b+f != 0) {
				t.Fatalf("%s: tick 4 was to be the still one (moves=%d, %d graph changes)", model, mv.Moves, b+f)
			}
		}
		if breaks == 0 || forms == 0 || mv.Moves == 0 {
			t.Fatalf("%s: breaks=%d forms=%d moves=%d; the comparison is vacuous", model, breaks, forms, mv.Moves)
		}
	}
}
