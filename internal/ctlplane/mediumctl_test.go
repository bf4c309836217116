package ctlplane

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"meshcast/internal/emu"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/testbed"
)

// TestMediumControllerAcrossRestart: what etherd's control plane reports of
// a bare medium before, during and after an outage.
func TestMediumControllerAcrossRestart(t *testing.T) {
	medium, err := emu.NewMedium("127.0.0.1:0", emu.NewLinkTable(1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer medium.Stop()
	uptime := 90 * time.Second
	ctl := NewMediumController(medium, func() time.Duration { return uptime })

	conn, err := emu.Dial(4, medium.Addr(), func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for len(ctl.Nodes()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got, want := ctl.Nodes(), []NodeState{{ID: 4, Alive: true}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("nodes = %+v, want the one registered client %+v", got, want)
	}
	if s := ctl.Stats(); !s.EtherUp || s.NodesAlive != 1 || s.NodesTotal != 1 || s.UptimeSeconds != 90 || s.Ether.Registrations != 1 {
		t.Fatalf("stats while up = %+v", s)
	}
	if h := ctl.Health(); h.Status != HealthOK || !h.EtherUp || h.AliveFraction != 1 {
		t.Fatalf("health while up = %+v", h)
	}

	if err := medium.Stop(); err != nil {
		t.Fatal(err)
	}
	if nodes := ctl.Nodes(); nodes != nil {
		t.Fatalf("nodes while down = %+v", nodes)
	}
	if s := ctl.Stats(); s.EtherUp || s.NodesAlive != 0 || s.Ether.Registrations != 1 {
		t.Fatalf("stats while down = %+v, want the retired generation's counters", s)
	}
	if h := ctl.Health(); h.Status != HealthDegraded || h.Reason != "ether down" {
		t.Fatalf("health while down = %+v", h)
	}

	if err := medium.Start(); err != nil {
		t.Fatal(err)
	}
	if h := ctl.Health(); h.Status != HealthOK {
		t.Fatalf("health after the restart = %+v", h)
	}
}

// TestFleetControllerValidatesAgainstTheRoster: the fleet controller mutates
// the same link table through the same code as the medium controller, but
// only for nodes the fleet has.
func TestFleetControllerValidatesAgainstTheRoster(t *testing.T) {
	fleet, err := emu.NewFleet(emu.FleetConfig{Metric: metric.SPP, Scenario: testbed.Scenario{
		Nodes: []packet.NodeID{1, 2, 3},
		Links: []testbed.Link{{A: 1, B: 2, Class: testbed.LowLoss}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	ctl := NewFleetController(fleet, nil)
	bare := NewMediumController(fleet.Medium(), fleet.Driver().Now)

	var reqErr RequestError
	df := 0.25
	if err := ctl.Impair(ImpairRequest{From: 1, To: 9, DF: &df}); !errors.As(err, &reqErr) {
		t.Fatalf("impairing a link to unknown node 9: err = %v, want a RequestError", err)
	}
	if err := ctl.Impair(ImpairRequest{From: 2, To: 3, DF: &df, DelayMS: 5, Symmetric: true}); err != nil {
		t.Fatal(err)
	}
	links := fleet.Medium().Links()
	if p := links.Profile(3, 2); p.DF != 0.25 || p.Delay != 5*time.Millisecond {
		t.Fatalf("profile 3→2 after a symmetric impair = %+v", p)
	}
	if err := ctl.Partition(PartitionRequest{SideA: []int{1, 7}}); !errors.As(err, &reqErr) {
		t.Fatalf("partition naming unknown node 7: err = %v, want a RequestError", err)
	}
	if err := ctl.Partition(PartitionRequest{SideA: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if !links.Partitioned(1, 2) {
		t.Fatal("partition not installed")
	}
	if got, want := ctl.Links(), bare.Links(); !reflect.DeepEqual(got, want) || len(got.Partition) != 1 || len(got.Links) != 4 {
		t.Fatalf("fleet view of the links = %+v, medium view = %+v", got, want)
	}
	if err := ctl.Partition(PartitionRequest{Clear: true}); err != nil {
		t.Fatal(err)
	}
	if links.Partitioned(1, 2) {
		t.Fatal("partition not cleared")
	}
	if s := ctl.Stats(); !s.EtherUp || s.NodesTotal != 3 || s.NodesAlive != 0 {
		t.Fatalf("stats of a fleet that is not running = %+v", s)
	}
}
