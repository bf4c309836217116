package experiments

import (
	"fmt"

	"meshcast/internal/metric"
	"meshcast/internal/mobility"
)

// mobilityCell is one (protocol, max speed) point of a mobility sweep,
// averaged over the sweep's seeds. Speed 0 is the static control: the same
// scenario with the mover disabled, so motion metrics are zero and PDR is
// the reference the moving tiers degrade from.
type mobilityCell struct {
	Protocol string
	SpeedMps float64
	// PDR is the whole-run mean delivery ratio; PDRStderr its standard
	// error over seeds.
	PDR, PDRStderr float64
	// MotionPDR is the delivery ratio for packets sent while radios move
	// (send-weighted across groups and seeds; 0 for the static tier).
	MotionPDR float64
	// RepairMeanMS / RepairMaxMS summarize route-repair latency: the time
	// from a link-break tick to the affected group's next delivery.
	RepairMeanMS, RepairMaxMS float64
	// Reconvergences is the mean count of delivery-silence episodes (>1 s)
	// following breaks per run.
	Reconvergences float64
	// BreaksPerSec is the mean link-break rate over the motion window.
	BreaksPerSec float64
}

// mobilitySweep is a protocols × speeds mobility-robustness comparison.
type mobilitySweep struct {
	protocols []string
	speeds    []float64
	model     string
	metric    metric.Kind
	// sourcesPerGroup records the senders per group.
	sourcesPerGroup int
	// cells is protocol-major, speed-minor: cells[p*len(speeds)+s].
	cells []mobilityCell
}

// cell returns the (protocol, speed) aggregate, or nil.
func (s *mobilitySweep) cell(proto string, speed float64) *mobilityCell {
	for i := range s.cells {
		if s.cells[i].Protocol == proto && s.cells[i].SpeedMps == speed {
			return &s.cells[i]
		}
	}
	return nil
}

// runMobilitySweep sweeps every named protocol over increasing maximum node
// speeds (waypoint model, motion starting with traffic) under SPP and
// aggregates the robustness axes: overall and in-motion PDR, route-repair
// latency, reconvergence episodes, and link-break rate. Speed 0 runs without
// a mover as the static control. Run it with several sources per group: with
// a single source ODMRP's reply mesh is provably the exact tree MCST builds
// from that source as core, so the rows would be identical even under
// motion. The (protocol, speed, seed) grid executes through the job harness
// configured by o; the fold reads it in grid order, so the sweep is
// deterministic for any worker count.
func runMobilitySweep(o Options, protocols []string, speeds []float64) (*mobilitySweep, error) {
	k := metric.SPP
	var cells []gridCell[ScenarioConfig]
	for _, proto := range protocols {
		for _, speed := range speeds {
			cells = append(cells, gridCell[ScenarioConfig]{label: fmt.Sprintf("%s %.0f m/s", proto, speed), config: func(seed uint64) (ScenarioConfig, error) {
				cfg, err := o.protocolScenario(proto, k, seed)
				if speed > 0 {
					cfg.Mobility = &mobility.Config{
						Model:       mobility.ModelWaypoint,
						MaxSpeedMps: speed,
						Start:       cfg.TrafficStart,
					}
				}
				return cfg, err
			}})
		}
	}
	runs, err := runGrid(o.BatchOptions, o.Seeds, cells, RunScenario, ScenarioKey)
	if err != nil {
		return nil, err
	}

	sweep := &mobilitySweep{
		protocols: protocols, speeds: speeds,
		model: mobility.ModelWaypoint, metric: k,
		sourcesPerGroup: o.SourcesPerGroup,
	}
	n := float64(len(o.Seeds))
	for i, row := range runs {
		var pdrs []float64
		var sentMotion, deliveredMotion float64
		var repairSum, repairN, reconvN, breakRateSum, maxRepair float64
		for _, res := range row {
			pdrs = append(pdrs, res.Summary.PDR)
			if res.Mobility == nil {
				continue
			}
			breakRateSum += res.Mobility.BreakRatePerSec
			for _, g := range res.Mobility.Groups {
				sentMotion += float64(g.SentInMotion)
				deliveredMotion += g.MotionPDR * float64(g.SentInMotion)
				repairSum += g.MeanRepair.Seconds() * float64(g.Repairs)
				repairN += float64(g.Repairs)
				if ms := g.MaxRepair.Seconds(); ms > maxRepair {
					maxRepair = ms
				}
				reconvN += float64(g.Reconvergences)
			}
		}
		mean, stderr := meanStderr(pdrs)
		cell := mobilityCell{
			Protocol:       protocols[i/len(speeds)],
			SpeedMps:       speeds[i%len(speeds)],
			PDR:            mean,
			PDRStderr:      stderr,
			RepairMaxMS:    1000 * maxRepair,
			Reconvergences: reconvN / n,
			BreaksPerSec:   breakRateSum / n,
		}
		if sentMotion > 0 {
			cell.MotionPDR = deliveredMotion / sentMotion
		}
		if repairN > 0 {
			cell.RepairMeanMS = 1000 * repairSum / repairN
		}
		sweep.cells = append(sweep.cells, cell)
	}
	return sweep, nil
}
