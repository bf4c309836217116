package experiments

import "testing"

// TestMetroScenarioEndToEnd proves a clustered metro topology runs the whole
// stack (placement, floods, MAC contention, CBR delivery) and actually
// delivers data across the city.
func TestMetroScenarioEndToEnd(t *testing.T) {
	cfg, err := MetroScenario(400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology.NodeCount() != 400 {
		t.Fatalf("metro topology has %d nodes", cfg.Topology.NodeCount())
	}
	res, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 {
		t.Fatal("metro run processed no events")
	}
	if res.Summary.PacketsDelivered == 0 {
		t.Fatal("metro run delivered nothing; the clustered topology is not carrying traffic")
	}
}
