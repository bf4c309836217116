package experiments

import (
	"fmt"

	"meshcast/internal/metric"
	"meshcast/internal/multicast"
)

// protocolCell is one (protocol, metric) point of a protocol comparison,
// averaged over the sweep's seeds.
type protocolCell struct {
	Protocol string
	Metric   metric.Kind
	// PDR is the mean delivery ratio; PDRStderr its standard error over
	// seeds.
	PDR, PDRStderr float64
	// DelayMS is the mean end-to-end delay in milliseconds.
	DelayMS float64
	// ForwardCost is data rebroadcasts per packet delivered — the paper's
	// forwarding-efficiency axis (lower is cheaper).
	ForwardCost float64
	// ControlBytes is the mean protocol control traffic per run.
	ControlBytes float64
	// StateSize is the mean end-of-run route soft state (mesh rounds +
	// duplicate windows for ODMRP, tree rounds + duplicate windows for
	// MCST) summed over all nodes.
	StateSize float64
}

// protocolComparison is a full protocols × metrics sweep.
type protocolComparison struct {
	protocols []string
	metrics   []metric.Kind
	// sourcesPerGroup records the sweep's senders per group. With a single
	// source the comparison is vacuous — ODMRP's one-source mesh is exactly
	// the tree MCST builds from that source as core — so the report compares
	// in the multi-source regime (§4.3).
	sourcesPerGroup int
	// cells is protocol-major, metric-minor: cells[p*len(metrics)+m].
	cells []protocolCell
}

// cell returns the (protocol, metric) aggregate.
func (c *protocolComparison) cell(proto string, k metric.Kind) *protocolCell {
	for i := range c.cells {
		if c.cells[i].Protocol == proto && c.cells[i].Metric == k {
			return &c.cells[i]
		}
	}
	return nil
}

// runProtocolComparison sweeps every named protocol over every metric o
// evaluates and every seed through the job harness, and aggregates the
// comparison axes: PDR, delay, forwarding cost, control bytes, and
// route-state size. The result is deterministic for a fixed Options
// regardless of worker count.
func runProtocolComparison(o Options, protocols []string) (*protocolComparison, error) {
	metrics := o.metrics()
	var cells []gridCell[ScenarioConfig]
	for _, proto := range protocols {
		for _, k := range metrics {
			cells = append(cells, gridCell[ScenarioConfig]{label: fmt.Sprintf("%s %v", proto, k), config: func(seed uint64) (ScenarioConfig, error) {
				return o.protocolScenario(proto, k, seed)
			}})
		}
	}
	runs, err := runGrid(o.BatchOptions, o.Seeds, cells, RunScenario, ScenarioKey)
	if err != nil {
		return nil, err
	}

	cmp := &protocolComparison{protocols: protocols, metrics: metrics, sourcesPerGroup: o.SourcesPerGroup}
	n := float64(len(o.Seeds))
	for i, row := range runs {
		var pdrs []float64
		var delaySum, fwdSum, deliveredSum, ctlSum, stateSum float64
		for _, res := range row {
			pdrs = append(pdrs, res.Summary.PDR)
			delaySum += res.Summary.MeanDelaySeconds
			fwdSum += float64(res.DataForwards)
			deliveredSum += float64(res.Summary.PacketsDelivered)
			ctlSum += float64(res.ControlBytes)
			stateSum += float64(res.ForwarderState)
		}
		mean, stderr := meanStderr(pdrs)
		cell := protocolCell{
			Protocol:     protocols[i/len(metrics)],
			Metric:       metrics[i%len(metrics)],
			PDR:          mean,
			PDRStderr:    stderr,
			DelayMS:      1000 * delaySum / n,
			ControlBytes: ctlSum / n,
			StateSize:    stateSum / n,
		}
		if deliveredSum > 0 {
			cell.ForwardCost = fwdSum / deliveredSum
		}
		cmp.cells = append(cmp.cells, cell)
	}
	return cmp, nil
}

// protocolScenario is scenarioFor under the named protocol. ODMRP-specific
// overrides do not apply to other protocols; they run their own
// metric-derived defaults.
func (o Options) protocolScenario(proto string, k metric.Kind, seed uint64) (ScenarioConfig, error) {
	cfg, err := o.scenarioFor(k, seed)
	cfg.Protocol = proto
	if proto != multicast.Default {
		cfg.ODMRP = nil
	}
	return cfg, err
}
