package experiments

import (
	"fmt"
	"slices"

	"meshcast/internal/metric"
	"meshcast/internal/multicast"
)

// ProtocolCell is one (protocol, metric) point of a protocol comparison,
// averaged over the sweep's seeds.
type ProtocolCell struct {
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

// ProtocolComparison is a full protocols × metrics sweep.
type ProtocolComparison struct {
	Protocols []string
	Metrics   []metric.Kind
	Seeds     []uint64
	// SourcesPerGroup records the sweep's senders per group. With a single
	// source the comparison is vacuous — ODMRP's one-source mesh is exactly
	// the tree MCST builds from that source as core — so callers should
	// compare in the multi-source regime (§4.3).
	SourcesPerGroup int
	// Cells is protocol-major, metric-minor: Cells[p*len(Metrics)+m].
	Cells []ProtocolCell
}

// Cell returns the (protocol, metric) aggregate.
func (c *ProtocolComparison) Cell(proto string, k metric.Kind) *ProtocolCell {
	for i := range c.Cells {
		if c.Cells[i].Protocol == proto && c.Cells[i].Metric == k {
			return &c.Cells[i]
		}
	}
	return nil
}

// RunProtocolComparison sweeps every requested protocol over every paper
// metric and seed through the job harness and aggregates the comparison
// axes: PDR, delay, forwarding cost, control bytes, and route-state size.
// Protocol names resolve through the multicast registry (empty list means
// every registered protocol); unknown names fail before any job runs. The
// result is deterministic for a fixed Options regardless of worker count.
func RunProtocolComparison(o Options, protocols []string) (*ProtocolComparison, error) {
	resolved, err := resolveProtocols(protocols)
	if err != nil {
		return nil, err
	}
	metrics := o.metrics()
	var cells []gridCell[ScenarioConfig]
	for _, proto := range resolved {
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

	cmp := &ProtocolComparison{
		Protocols: resolved, Metrics: metrics, Seeds: o.Seeds,
		SourcesPerGroup: o.SourcesPerGroup,
	}
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
		cell := ProtocolCell{
			Protocol:     resolved[i/len(metrics)],
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
		cmp.Cells = append(cmp.Cells, cell)
	}
	return cmp, nil
}

// resolveProtocols resolves protocol names through the multicast registry,
// dropping repeats; an empty list means every registered protocol.
func resolveProtocols(protocols []string) ([]string, error) {
	if len(protocols) == 0 {
		protocols = multicast.Names()
	}
	resolved := make([]string, 0, len(protocols))
	for _, p := range protocols {
		name, err := multicast.Resolve(p)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(resolved, name) {
			resolved = append(resolved, name)
		}
	}
	return resolved, nil
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
