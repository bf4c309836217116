package ctlplane

import (
	"time"

	"meshcast/internal/emu"
	"meshcast/internal/packet"
)

// MediumController exposes a bare etherd medium — no managed daemons — to
// the control plane. Reads report the registered clients and frame
// counters; link and partition mutations apply to the shared table; node
// lifecycle and script injection are ErrUnsupported (etherd cannot kill
// daemons it does not own). FleetController embeds one for everything the
// two say about the medium itself.
type MediumController struct {
	medium *emu.Medium
	now    func() time.Duration
}

// NewMediumController wraps a medium; now is the run clock UptimeSeconds
// reads (the Now of the driver the medium's owner runs).
func NewMediumController(medium *emu.Medium, now func() time.Duration) *MediumController {
	return &MediumController{medium: medium, now: now}
}

// Nodes implements Controller: every registered client, alive by virtue of
// being registered.
func (c *MediumController) Nodes() []NodeState {
	clients := c.medium.Clients()
	if clients == nil {
		return nil
	}
	out := make([]NodeState, 0, len(clients))
	for _, id := range clients {
		out = append(out, NodeState{ID: int(id), Alive: true})
	}
	return out
}

// Links implements Controller.
func (c *MediumController) Links() LinksState {
	entries, def := c.medium.Links().Entries()
	out := LinksState{Default: profileState(def), Links: make([]LinkState, 0, len(entries))}
	for _, e := range entries {
		out.Links = append(out.Links, LinkState{
			From: int(e.From), To: int(e.To), LinkProfileState: profileState(e.Profile),
		})
	}
	for _, id := range c.medium.Links().Partition() {
		out.Partition = append(out.Partition, int(id))
	}
	return out
}

func profileState(p emu.LinkProfile) LinkProfileState {
	return LinkProfileState{
		DF:       p.DF,
		DelayMS:  float64(p.Delay) / float64(time.Millisecond),
		JitterMS: float64(p.Jitter) / float64(time.Millisecond),
		DupProb:  p.DupProb,
	}
}

// mediumStats fills in what the medium itself knows of Stats: uptime,
// whether it is serving, and the frame counters of every generation so far.
func (c *MediumController) mediumStats() Stats {
	return Stats{
		UptimeSeconds: c.now().Seconds(),
		EtherUp:       c.medium.Up(),
		Ether:         EtherCounters(c.medium.Stats()), // same fields, JSON-tagged
	}
}

// Stats implements Controller. Expected/Delivered stay zero — the medium
// does not see end-to-end deliveries, only frames.
func (c *MediumController) Stats() Stats {
	s := c.mediumStats()
	s.NodesAlive = len(c.medium.Clients())
	s.NodesTotal = s.NodesAlive
	return s
}

// Health implements Controller: degraded only while the medium is down.
func (c *MediumController) Health() Health {
	h := Health{Status: HealthOK, EtherUp: c.medium.Up(), AliveFraction: 1}
	if !h.EtherUp {
		h.Status = HealthDegraded
		h.Reason = "ether down"
	}
	return h
}

// Impair implements Controller. The medium has no node roster, so any pair
// is legal.
func (c *MediumController) Impair(req ImpairRequest) error {
	p := emu.LinkProfile{
		DF:      *req.DF,
		Delay:   time.Duration(req.DelayMS * float64(time.Millisecond)),
		Jitter:  time.Duration(req.JitterMS * float64(time.Millisecond)),
		DupProb: req.DupProb,
	}
	from, to := packet.NodeID(req.From), packet.NodeID(req.To)
	c.medium.Links().SetProfile(from, to, p)
	if req.Symmetric {
		c.medium.Links().SetProfile(to, from, p)
	}
	return nil
}

// Partition implements Controller.
func (c *MediumController) Partition(req PartitionRequest) error {
	if req.Clear {
		c.medium.Links().ClearPartition()
		return nil
	}
	side := make([]packet.NodeID, 0, len(req.SideA))
	for _, id := range req.SideA {
		side = append(side, packet.NodeID(id))
	}
	c.medium.Links().SetPartition(side)
	return nil
}

// KillNode implements Controller: unsupported, etherd owns no daemons.
func (c *MediumController) KillNode(int) error { return ErrUnsupported }

// RestartNode implements Controller: unsupported.
func (c *MediumController) RestartNode(int) error { return ErrUnsupported }

// InjectScript implements Controller: unsupported (scripts need the node
// roster and a supervisor; use -fault-script at etherd startup instead).
func (c *MediumController) InjectScript(ScriptRequest) (ScriptResult, error) {
	return ScriptResult{}, ErrUnsupported
}
