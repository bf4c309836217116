package mobility

import (
	"testing"

	"meshcast/internal/packet"
	"meshcast/internal/phy"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/topology"
)

// BenchmarkMoverTick1k times one mover tick on the metro-1k placement under
// the mobility1k-waypoint workload's motion (waypoint, ≤ 10 m/s, 500 ms tick):
// a thousand MoveRadio calls and one link-graph scan.
func BenchmarkMoverTick1k(b *testing.B) {
	topo, _ := topology.Metro(sim.NewRNG(1^0x9e3779b97f4a7c15), topology.MetroConfig{Nodes: 1000, GatewaySpacingM: 2000})
	engine := sim.NewEngine(1)
	medium := phy.NewMedium(engine, propagation.NewTwoRay(), propagation.NoFading{}, phy.DefaultParams())
	radios := make([]*phy.Radio, len(topo.Positions))
	for i, p := range topo.Positions {
		radios[i] = medium.AttachRadio(packet.NodeID(i), p)
	}
	mv, err := NewMover(engine, medium, radios, topo.Area, sim.NewRNG(1), Config{MaxSpeedMps: 10})
	if err != nil {
		b.Fatal(err)
	}
	// A run with traffic has a link cache for the moves to invalidate.
	for _, r := range radios {
		medium.LinksConsistent(r)
	}
	mv.Start()
	engine.Run(engine.Now() + 2*mv.cfg.Tick) // baseline scan and first buckets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Run(engine.Now() + mv.cfg.Tick)
	}
	b.StopTimer()
	if mv.Moves == 0 || mv.Breaks == 0 {
		b.Fatalf("moves=%d breaks=%d: the tick did no work", mv.Moves, mv.Breaks)
	}
}
