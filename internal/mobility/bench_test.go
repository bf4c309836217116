package mobility

import (
	"testing"

	"meshcast/internal/sim"
)

// BenchmarkMoverTick1k times one mover tick on a metro-1k placement under the
// mobility1k-waypoint workload's motion (waypoint, ≤ 10 m/s, 500 ms tick): a
// thousand MoveRadio calls and one link-graph scan.
func BenchmarkMoverTick1k(b *testing.B) {
	topo := metroTopo(b, 1000, 1)
	engine, medium, radios := buildWorld(b, 1, topo)
	mv, err := NewMover(engine, medium, radios, topo.Area, sim.NewRNG(1), Config{MaxSpeedMps: 10})
	if err != nil {
		b.Fatal(err)
	}
	// A run with traffic has a link cache for the moves to outdate.
	for _, r := range radios {
		medium.LinksConsistent(r)
	}
	mv.Start()
	engine.Run(2 * tickInterval) // baseline scan and first buckets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(engine.Now() + tickInterval)
	}
	b.StopTimer()
	if mv.Moves == 0 || mv.Breaks == 0 {
		b.Fatalf("moves=%d breaks=%d: the tick did no work", mv.Moves, mv.Breaks)
	}
}
