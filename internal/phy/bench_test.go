package phy

import (
	"testing"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/topology"
)

// metro1k attaches a metro-1k placement to a fresh medium and builds every
// candidate list.
func metro1k() *Medium {
	topo, _ := topology.Metro(sim.NewRNG(1), topology.MetroConfig{Nodes: 1000})
	medium := NewMedium(sim.NewEngine(1), propagation.NewTwoRay(), propagation.NoFading{}, DefaultParams())
	for i, p := range topo.Positions {
		medium.AttachRadio(packet.NodeID(i), p)
	}
	for _, src := range medium.radios {
		medium.linksFrom(src)
	}
	return medium
}

// BenchmarkListBuild1k times one candidate-list rebuild (into the list's old
// backing arrays, as after a move) on the metro-1k placement.
func BenchmarkListBuild1k(b *testing.B) {
	medium := metro1k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := medium.radios[i%len(medium.radios)]
		medium.buildLinks(src, &medium.links[src.index])
	}
}

// BenchmarkMoveRadio1k times one MoveRadio of a few metres with every list
// built beforehand: the cost of recording what the move made stale.
func BenchmarkMoveRadio1k(b *testing.B) {
	medium := metro1k()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := medium.radios[i%len(medium.radios)]
		step := float64(7 + i%13)
		if i%2 == 0 {
			step = -step
		}
		medium.MoveRadio(r, geom.Point{X: r.Pos.X + step, Y: r.Pos.Y + step})
	}
}
