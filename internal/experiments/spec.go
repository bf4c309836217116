package experiments

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"meshcast/internal/geom"
	"meshcast/internal/metric"
	"meshcast/internal/mobility"
	"meshcast/internal/multicast"
	"meshcast/internal/packet"
	"meshcast/internal/propagation"
	"meshcast/internal/sim"
	"meshcast/internal/topology"
)

// Spec is a declarative, JSON-serializable scenario description — the
// shareable artifact behind a reproducible experiment. Either Nodes (explicit
// positions) or RandomNodes must be set. The times are 32-bit so that no
// value the decoder accepts overflows a time.Duration, alone or as warmup
// plus traffic.
type Spec struct {
	Seed uint64 `json:"seed"`
	// Metric is a metric name as printed by metric.Kind ("spp", "minhop"...).
	Metric string `json:"metric"`
	// Protocol is a registered multicast protocol name ("odmrp", "mcst");
	// empty selects the default protocol.
	Protocol string `json:"protocol,omitempty"`
	// Fading is "rayleigh" (default), "none", or "shadowed-rayleigh"
	// (log-normal shadowing, ShadowSigmaDB, composed with Rayleigh).
	Fading             string  `json:"fading,omitempty"`
	ShadowSigmaDB      float64 `json:"shadowSigmaDB,omitempty"`
	TrafficSeconds     int32   `json:"trafficSeconds"`
	WarmupSeconds      int32   `json:"warmupSeconds"`
	PayloadBytes       int     `json:"payloadBytes,omitempty"`
	SendIntervalMillis int32   `json:"sendIntervalMillis,omitempty"`
	ProbeRateFactor    float64 `json:"probeRateFactor,omitempty"`

	// Mobility enables radio motion under the named model ("waypoint",
	// "rpgm", "corridor") at up to MaxSpeedMps, starting with traffic.
	// Requires a topology with a declared area (randomNodes; explicit node
	// lists carry no bounds for the models to stay inside).
	Mobility    string  `json:"mobility,omitempty"`
	MaxSpeedMps float64 `json:"maxSpeedMps,omitempty"`

	// Nodes places routers explicitly.
	Nodes []NodeSpec `json:"nodes,omitempty"`
	// RandomNodes draws a connected random placement instead.
	RandomNodes *RandomNodesSpec `json:"randomNodes,omitempty"`

	Groups []GroupSpecJSON `json:"groups"`
}

// NodeSpec is one explicit node position in metres.
type NodeSpec struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// RandomNodesSpec requests a connected uniform random placement.
type RandomNodesSpec struct {
	Count  int     `json:"count"`
	SideM  float64 `json:"sideM"`
	RangeM float64 `json:"rangeM,omitempty"`
}

// GroupSpecJSON declares one multicast group by node index.
type GroupSpecJSON struct {
	Group   uint16 `json:"group"`
	Sources []int  `json:"sources"`
	Members []int  `json:"members"`
}

// LoadSpec reads a Spec from a JSON file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("load spec: %w", err)
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		return Spec{}, fmt.Errorf("parse spec %s: %w", path, err)
	}
	return spec, nil
}

// specKeys names the key behind each ScenarioConfig field Validate checks.
var specKeys = map[string]string{
	"Topology":        "nodes",
	"Protocol":        "protocol",
	"TrafficStart":    "warmupSeconds",
	"Duration":        "trafficSeconds",
	"ProbeRateFactor": "probeRateFactor",
	"Groups":          "groups",
	"PayloadBytes":    "payloadBytes",
	"SendInterval":    "sendIntervalMillis",
}

// Scenario converts the spec into a runnable ScenarioConfig, checked by
// ScenarioConfig.Validate; an error names the spec key.
func (s Spec) Scenario() (ScenarioConfig, error) {
	kind, err := metric.ParseKind(s.Metric)
	if err != nil {
		return ScenarioConfig{}, err
	}
	proto, err := multicast.Resolve(s.Protocol)
	if err != nil {
		return ScenarioConfig{}, fmt.Errorf("spec: %w", err)
	}
	if s.TrafficSeconds <= 0 {
		return ScenarioConfig{}, fmt.Errorf("spec: trafficSeconds must be positive")
	}

	var topo *topology.Topology
	switch {
	case len(s.Nodes) > 0 && s.RandomNodes != nil:
		return ScenarioConfig{}, fmt.Errorf("spec: set either nodes or randomNodes, not both")
	case len(s.Nodes) > 0:
		positions := make([]geom.Point, len(s.Nodes))
		for i, n := range s.Nodes {
			positions[i] = geom.Point{X: n.X, Y: n.Y}
		}
		topo = &topology.Topology{Positions: positions}
	case s.RandomNodes != nil:
		r := s.RandomNodes
		t, err := topology.RandomConnected(
			sim.NewRNG(s.Seed^0x9e3779b97f4a7c15), r.Count, geom.Square(r.SideM), cmp.Or(r.RangeM, 250), 500)
		if err != nil {
			return ScenarioConfig{}, fmt.Errorf("spec: randomNodes: %w", err)
		}
		topo = t
	default:
		return ScenarioConfig{}, fmt.Errorf("spec: no nodes declared")
	}

	cfg := ScenarioConfig{
		Seed:            s.Seed,
		Metric:          kind,
		Protocol:        proto,
		Topology:        topo,
		Duration:        time.Duration(s.WarmupSeconds)*time.Second + time.Duration(s.TrafficSeconds)*time.Second,
		PayloadBytes:    cmp.Or(s.PayloadBytes, 512),
		SendInterval:    cmp.Or(time.Duration(s.SendIntervalMillis)*time.Millisecond, 50*time.Millisecond),
		ProbeRateFactor: cmp.Or(s.ProbeRateFactor, 1),
		TrafficStart:    time.Duration(s.WarmupSeconds) * time.Second,
	}
	switch s.Fading {
	case "", "rayleigh":
		// default
	case "none":
		cfg.Fading = propagation.NoFading{}
	case "shadowed-rayleigh":
		sigma := cmp.Or(s.ShadowSigmaDB, 6)
		if !(sigma > 0) || math.IsInf(sigma, 0) {
			return ScenarioConfig{}, fmt.Errorf("spec: shadowSigmaDB must be positive and finite, got %v", sigma)
		}
		cfg.Fading = propagation.Composite{propagation.LogNormal{SigmaDB: sigma}, propagation.Rayleigh{}}
	default:
		return ScenarioConfig{}, fmt.Errorf("spec: unknown fading %q (want rayleigh, none or shadowed-rayleigh)", s.Fading)
	}
	if s.Mobility != "" {
		cfg.Mobility = &mobility.Config{
			Model:       s.Mobility,
			MaxSpeedMps: s.MaxSpeedMps,
			Start:       cfg.TrafficStart,
		}
	}
	for _, g := range s.Groups {
		cfg.Groups = append(cfg.Groups, GroupSpec{Group: packet.GroupID(g.Group), Sources: g.Sources, Members: g.Members})
	}
	return cfg, NameInput(cfg.Validate(), specKeys)
}
