package emu

import (
	"fmt"

	"meshcast/internal/packet"
	"meshcast/internal/telemetry"
)

// InstrumentFleet wires a live fleet (and optionally its chaos schedule and
// supervisor — either may be nil) into a telemetry registry, entirely via
// GaugeFunc callbacks.
//
// That restriction is deliberate: registry instruments follow the
// single-sim-goroutine contract and are unsynchronized, which a live fleet
// cannot honor from its many daemon goroutines. GaugeFunc sidesteps the
// problem — callbacks registered here only *read* state, and are evaluated
// on the one goroutine that samples: the run goroutine, where the sampler is
// a ticker on the fleet's run engine (and, for the final sample, the caller
// once Run has returned). Fleet state is read behind the fleet's own locks
// (Medium.Stats, slot mutexes) or from its atomics; supervisor state belongs
// to that same run goroutine and is read directly — never through Driver.Do,
// whose lock the sampling event already holds. Counters that look monotonic
// (frames in/out) are still exported as gauges for the same reason; meshstat
// treats them identically.
//
// Exported names (meshstat groups by the prefix before the first dot):
//
//	emu.ether.frames_in / frames_out / frames_dropped / frames_dup
//	emu.ether.registrations / clients / up
//	emu.fleet.daemons_alive / sent / delivered
//	emu.node.<id>.alive
//	chaos.active / kills / restarts / downtime_s / events_executed /
//	chaos.ether_restarts
func InstrumentFleet(reg *telemetry.Registry, f *Fleet, c *Chaos, sup *FleetSupervisor) {
	if reg == nil || f == nil {
		return
	}
	m := f.medium
	reg.GaugeFunc("emu.ether.frames_in", func() float64 { return float64(m.Stats().FramesIn) })
	reg.GaugeFunc("emu.ether.frames_out", func() float64 { return float64(m.Stats().FramesOut) })
	reg.GaugeFunc("emu.ether.frames_dropped", func() float64 { return float64(m.Stats().FramesDropped) })
	reg.GaugeFunc("emu.ether.frames_dup", func() float64 { return float64(m.Stats().FramesDup) })
	reg.GaugeFunc("emu.ether.registrations", func() float64 { return float64(m.Stats().Registrations) })
	reg.GaugeFunc("emu.ether.clients", func() float64 { return float64(len(m.Clients())) })
	reg.GaugeFunc("emu.ether.up", func() float64 {
		if m.Up() {
			return 1
		}
		return 0
	})

	ids := f.NodeIDs()
	reg.GaugeFunc("emu.fleet.daemons_alive", func() float64 {
		n := 0
		for _, id := range ids {
			if f.DaemonAlive(id) {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("emu.fleet.sent", func() float64 { return float64(f.sent.Load()) })
	reg.GaugeFunc("emu.fleet.delivered", func() float64 { return float64(f.delivered.Load()) })
	for _, id := range ids {
		id := id
		reg.GaugeFunc(fmt.Sprintf("emu.node.%d.alive", id), func() float64 {
			if f.DaemonAlive(id) {
				return 1
			}
			return 0
		})
	}

	reg.GaugeFunc("chaos.kills", func() float64 { return float64(sumNodeStats(f, ids).Kills) })
	reg.GaugeFunc("chaos.restarts", func() float64 { return float64(sumNodeStats(f, ids).Restarts) })
	reg.GaugeFunc("chaos.downtime_s", func() float64 { return sumNodeStats(f, ids).Downtime.Seconds() })
	if c != nil {
		reg.GaugeFunc("chaos.active", func() float64 { return float64(c.ActiveFaults()) })
	}
	if sup != nil {
		reg.GaugeFunc("chaos.events_executed", func() float64 { return float64(len(sup.events)) })
		reg.GaugeFunc("chaos.ether_restarts", func() float64 { return float64(sup.etherRestarts) })
	}
}

func sumNodeStats(f *Fleet, ids []packet.NodeID) NodeAccounting {
	var acc NodeAccounting
	for _, id := range ids {
		s := f.NodeStats(id)
		acc.Kills += s.Kills
		acc.Restarts += s.Restarts
		acc.Downtime += s.Downtime
	}
	return acc
}
