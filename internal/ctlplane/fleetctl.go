package ctlplane

import (
	"fmt"
	"time"

	"meshcast/internal/emu"
	"meshcast/internal/faults"
	"meshcast/internal/packet"
)

const (
	// degradedBelow is the alive fraction under which Health reports
	// degraded and mutations are shed.
	degradedBelow = 0.5
	// scriptSlack extends an injected script's impairment-hook lifetime past
	// its last event, covering fault windows that outlast their onset.
	scriptSlack = time.Minute
)

// FleetController exposes a supervised live fleet to the control plane:
// reads poll the fleet's lock-free accounting, link mutations go through the
// embedded MediumController to the shared link table (surviving ether
// restarts) once the roster has vouched for the nodes they name, and injected
// fault scripts split into an impairment hook (link faults, partitions) plus
// supervisor schedule events (kills, restarts, ether bounces).
type FleetController struct {
	*MediumController
	fleet *emu.Fleet
	sup   *emu.FleetSupervisor
}

// NewFleetController wraps a fleet and its supervisor. sup may be nil, in
// which case injected scripts impair links but cannot kill nodes or bounce
// the ether.
func NewFleetController(fleet *emu.Fleet, sup *emu.FleetSupervisor) *FleetController {
	return &FleetController{
		MediumController: NewMediumController(fleet.Medium(), fleet.Driver().Now),
		fleet:            fleet, sup: sup,
	}
}

// Nodes implements Controller.
func (c *FleetController) Nodes() []NodeState {
	ids := c.fleet.NodeIDs()
	out := make([]NodeState, 0, len(ids))
	for _, id := range ids {
		acc := c.fleet.NodeStats(id)
		out = append(out, NodeState{
			ID:              int(id),
			Alive:           c.fleet.DaemonAlive(id),
			Protocol:        c.fleet.Protocol(),
			Kills:           acc.Kills,
			Restarts:        acc.Restarts,
			DowntimeSeconds: acc.Downtime.Seconds(),
		})
	}
	return out
}

func (c *FleetController) aliveCount() (alive, total int) {
	ids := c.fleet.NodeIDs()
	for _, id := range ids {
		if c.fleet.DaemonAlive(id) {
			alive++
		}
	}
	return alive, len(ids)
}

// Stats implements Controller.
func (c *FleetController) Stats() Stats {
	s := c.mediumStats()
	s.NodesAlive, s.NodesTotal = c.aliveCount()
	s.Expected, s.Delivered = c.fleet.DeliveryEstimate()
	return s
}

// Health implements Controller: degraded when the medium is down or too few
// daemons are alive to call the fleet functional.
func (c *FleetController) Health() Health {
	alive, total := c.aliveCount()
	h := Health{Status: HealthOK, EtherUp: c.medium.Up(), Protocol: c.fleet.Protocol()}
	if total > 0 {
		h.AliveFraction = float64(alive) / float64(total)
	}
	switch {
	case !h.EtherUp:
		h.Status = HealthDegraded
		h.Reason = "ether down"
	case h.AliveFraction < degradedBelow:
		h.Status = HealthDegraded
		h.Reason = fmt.Sprintf("alive fraction %.2f below %.2f", h.AliveFraction, degradedBelow)
	}
	return h
}

// node maps a wire node ID to a fleet node, rejecting unknowns.
func (c *FleetController) node(id int) (packet.NodeID, error) {
	for _, n := range c.fleet.NodeIDs() {
		if int(n) == id {
			return n, nil
		}
	}
	return 0, RequestError{Msg: fmt.Sprintf("unknown node %d", id)}
}

// Impair implements Controller: both ends must be fleet nodes.
func (c *FleetController) Impair(req ImpairRequest) error {
	for _, id := range []int{req.From, req.To} {
		if _, err := c.node(id); err != nil {
			return err
		}
	}
	return c.MediumController.Impair(req)
}

// Partition implements Controller: side A must name fleet nodes.
func (c *FleetController) Partition(req PartitionRequest) error {
	if !req.Clear {
		for _, id := range req.SideA {
			if _, err := c.node(id); err != nil {
				return err
			}
		}
	}
	return c.MediumController.Partition(req)
}

// KillNode implements Controller. The kill is deliberately *unscheduled*:
// the supervisor's watchdog notices the dead daemon and revives it after
// its 3 s budget — the recovery path soak runs exercise.
func (c *FleetController) KillNode(node int) error {
	id, err := c.node(node)
	if err != nil {
		return err
	}
	return c.fleet.StopDaemon(id)
}

// RestartNode implements Controller (no-op if the daemon is already up).
func (c *FleetController) RestartNode(node int) error {
	id, err := c.node(node)
	if err != nil {
		return err
	}
	if err := c.fleet.RestartDaemon(id); err != nil {
		return RequestError{Msg: err.Error()}
	}
	return nil
}

// InjectScript implements Controller: the script compiles against the
// fleet's node list (bad scripts fail here with the offending event named),
// its link faults and partitions join the live impairment chain, and its
// node/ether events merge into the supervisor's schedule, all offset by the
// run time at the moment of injection.
func (c *FleetController) InjectScript(req ScriptRequest) (ScriptResult, error) {
	now := c.fleet.Driver().Now
	offset := now()
	if offset == 0 {
		return ScriptResult{}, RequestError{Msg: "fleet not running"}
	}
	plan, err := faults.ParsePlan(req.Script)
	if err != nil {
		return ScriptResult{}, RequestError{Msg: err.Error()}
	}
	chaos, err := emu.NewChaos(emu.ChaosConfig{
		Plan: plan, Seed: req.Seed, TimeScale: req.TimeScale,
	}, c.fleet.NodeIDs(), func() time.Duration { return now() - offset })
	if err != nil {
		return ScriptResult{}, RequestError{Msg: err.Error()}
	}
	events := chaos.Events()
	var span time.Duration // the last event's offset: events are time-sorted
	for i := range events {
		span = events[i].At
		events[i].At += offset
	}
	c.fleet.AddImpairment(chaos.DropProb, offset+span+scriptSlack)
	if c.sup != nil && !c.sup.Inject(events) {
		return ScriptResult{}, RequestError{Msg: "fleet stopped"}
	}
	return ScriptResult{Events: len(events), SpanSeconds: span.Seconds()}, nil
}
