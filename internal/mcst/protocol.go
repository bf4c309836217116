package mcst

import (
	"fmt"

	"meshcast/internal/multicast"
)

// Name is the registered protocol name.
const Name = "mcst"

func init() {
	multicast.Register(Name, func(env multicast.Env, tuning any) (multicast.Protocol, error) {
		params := ParamsFor(env.Metric.Kind())
		switch t := tuning.(type) {
		case nil:
		case Params:
			params = t
		case *Params:
			if t != nil {
				params = *t
			}
		default:
			return nil, fmt.Errorf("mcst: unsupported tuning type %T", tuning)
		}
		return New(env.Engine, env.ID, env.Metric, env.Table, params), nil
	}, append(multicast.KernelCounters(Name, "announces", "joins"), multicast.Counter{
		Name: Name + ".core_handovers",
		Read: func(p multicast.Protocol) uint64 { return p.(*Router).CoreHandovers },
	}))
}

// Name implements multicast.Protocol.
func (r *Router) Name() string { return Name }

var _ multicast.Protocol = (*Router)(nil)
