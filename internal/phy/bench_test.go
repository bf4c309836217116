package phy

import (
	"testing"

	"meshcast/internal/geom"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/topology"
)

// metro1k attaches a metro-1k placement to a fresh medium with the given
// fading model and builds every candidate list.
func metro1k(fading propagation.Fading) *Medium {
	topo, _ := topology.Metro(sim.NewRNG(1), topology.MetroConfig{Nodes: 1000})
	medium := NewMedium(sim.NewEngine(1), propagation.NewTwoRay(), fading, DefaultParams())
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
	medium := metro1k(propagation.NoFading{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := medium.radios[i%len(medium.radios)]
		medium.buildLinks(src, &medium.links[src.index])
	}
}

// BenchmarkTransmit1k times one frame from a warm list on the metro-1k
// placement under Rayleigh fading, put on the air and delivered to every
// receiver it reaches: the fan-out's fading draws, the arrival records and the
// merge heap's walk over them.
func BenchmarkTransmit1k(b *testing.B) {
	medium := metro1k(propagation.Rayleigh{})
	frame := dataFrame(0, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		medium.radios[i%len(medium.radios)].Transmit(frame)
		medium.engine.RunAll()
	}
}

// BenchmarkMoveRadio1k times one MoveRadio of a few metres with every list
// built beforehand: the cost of recording what the move made stale.
func BenchmarkMoveRadio1k(b *testing.B) {
	medium := metro1k(propagation.NoFading{})
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
