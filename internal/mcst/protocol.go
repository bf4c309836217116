package mcst

import (
	"fmt"

	"meshcast/internal/multicast"
)

// Name is the registered protocol name.
const Name = "mcst"

func init() {
	multicast.Register(Name, func(env multicast.Env, tuning any) (multicast.Protocol, error) {
		if tuning != nil {
			return nil, fmt.Errorf("mcst: takes no tuning, got %T", tuning)
		}
		return New(env.Engine, env.ID, env.Metric, env.Table), nil
	}, append(multicast.KernelCounters(Name, "announces", "joins"), multicast.Counter{
		Name: Name + ".core_handovers",
		Read: func(p multicast.Protocol) uint64 { return p.(*Router).CoreHandovers },
	}))
}

// Name implements multicast.Protocol.
func (r *Router) Name() string { return Name }

var _ multicast.Protocol = (*Router)(nil)
