package multicast

import (
	"fmt"
	"sort"

	"meshcast/internal/linkquality"
	"meshcast/internal/metric"
	"meshcast/internal/packet"
	"meshcast/internal/sim"
)

// Default is the protocol used when no name is given: the paper's own
// mesh-based ODMRP.
const Default = "odmrp"

// Env bundles the substrate a protocol instance is built against.
type Env struct {
	Engine *sim.Engine
	ID     packet.NodeID
	// Metric is the path metric instance routing decisions use.
	Metric metric.PathMetric
	// Table is the node's NEIGHBOR TABLE of probe-measured link qualities.
	Table *linkquality.Table
}

// Factory builds a protocol instance. tuning optionally carries
// protocol-specific parameters (e.g. *odmrp.Params); nil lets the protocol
// derive its defaults from env.Metric. A factory must reject tuning values
// of a foreign type with an error rather than ignore them.
type Factory func(env Env, tuning any) (Protocol, error)

// Counter is one line of a protocol's counter export table: the name the
// count is recorded under ("<protocol>.<what>") and how to read it from one
// node's instance. Whoever holds the instances — the run driver, a live
// fleet — sums Read over them; the protocol only increments its own fields.
type Counter struct {
	Name string
	Read func(Protocol) uint64
}

// registration is what Register was given for one protocol name.
type registration struct {
	factory  Factory
	counters []Counter
}

var registered = map[string]registration{}

// Register installs a protocol factory and the protocol's counter export
// table under name. It panics on a duplicate or empty name — registration
// happens in package init and a collision is a programming error.
func Register(name string, f Factory, counters []Counter) {
	if name == "" || f == nil {
		panic("multicast: Register with empty name or nil factory")
	}
	if _, dup := registered[name]; dup {
		panic("multicast: duplicate protocol " + name)
	}
	registered[name] = registration{f, counters}
}

// Counters returns the counter export table of a registered protocol; Read
// takes an instance of that protocol.
func Counters(name string) []Counter { return registered[name].counters }

// Names returns the registered protocol names, sorted.
func Names() []string {
	out := make([]string, 0, len(registered))
	for name := range registered {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Resolve canonicalizes a protocol name: "" means Default, anything not
// registered is an error listing the valid names (the same fail-fast UX as
// meshdump -kind).
func Resolve(name string) (string, error) {
	if name == "" {
		name = Default
	}
	if _, ok := registered[name]; !ok {
		return "", fmt.Errorf("unknown protocol %q (registered: %s)", name, namesList())
	}
	return name, nil
}

// New builds a protocol instance by registered name ("" selects Default).
func New(name string, env Env, tuning any) (Protocol, error) {
	name, err := Resolve(name)
	if err != nil {
		return nil, err
	}
	return registered[name].factory(env, tuning)
}

func namesList() string {
	s := ""
	for i, name := range Names() {
		if i > 0 {
			s += ", "
		}
		s += name
	}
	if s == "" {
		s = "none"
	}
	return s
}
