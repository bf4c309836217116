package experiments

import (
	"fmt"
	"time"

	"meshcast/internal/metric"
	"meshcast/internal/sim"
	"meshcast/internal/topology"
)

// MetroScenario returns a city-scale stress scenario: n nodes clustered
// around hotspots at the paper's density (so the radio neighborhood per node
// matches the 50-node world as N grows), gateways on a 2 km lattice, and the
// paper's group shape (two groups, one source, ten members) driven by short
// CBR bursts. The MinHop metric keeps probing out of the run — the scale
// benchmark measures the PHY/MAC fan-out and flood cost, not probe traffic —
// and Rayleigh fading keeps every RNG consumer on the transmit path hot.
//
// Determinism matches DefaultScenario: the topology RNG is derived from the
// seed alone, so a (n, seed) pair names one exact placement, group draw, and
// run.
func MetroScenario(n int, seed uint64) (ScenarioConfig, error) {
	if n < 30 {
		return ScenarioConfig{}, fmt.Errorf("metro scenario: need at least 30 nodes, got %d", n)
	}
	topoRNG := sim.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	topo, _ := topology.Metro(topoRNG, topology.MetroConfig{
		Nodes:           n,
		GatewaySpacingM: 2000,
	})
	groups, err := DefaultGroups(topoRNG.Split(), topo.NodeCount(), 2, 1, 10)
	if err != nil {
		return ScenarioConfig{}, fmt.Errorf("metro scenario: %w", err)
	}
	return ScenarioConfig{
		Seed:            seed,
		Metric:          metric.MinHop,
		Topology:        topo,
		Duration:        3 * time.Second,
		Groups:          groups,
		PayloadBytes:    512,
		SendInterval:    50 * time.Millisecond,
		ProbeRateFactor: 1,
		TrafficStart:    time.Second,
	}, nil
}
