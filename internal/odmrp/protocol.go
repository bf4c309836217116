package odmrp

import (
	"fmt"

	"meshcast/internal/metric"
	"meshcast/internal/multicast"
)

// Name is the registered protocol name.
const Name = "odmrp"

// ParamsFor returns the paper's ODMRP configuration for a metric: the
// original (first-copy, no duplicate forwarding) parameters for MinHop, the
// modified δ/α parameters for every link-quality metric.
func ParamsFor(k metric.Kind) Params {
	if k == metric.MinHop {
		return OriginalParams()
	}
	return DefaultParams()
}

func init() {
	multicast.Register(Name, func(env multicast.Env, tuning any) (multicast.Protocol, error) {
		params := ParamsFor(env.Metric.Kind())
		switch t := tuning.(type) {
		case nil:
		case *Params:
			if t != nil {
				params = *t
			}
		default:
			return nil, fmt.Errorf("odmrp: unsupported tuning type %T", tuning)
		}
		return New(env.Engine, env.ID, env.Metric, env.Table, params), nil
	}, append(multicast.KernelCounters(Name, "queries", "replies"), multicast.Counter{
		Name: Name + ".reply_retransmits",
		Read: func(p multicast.Protocol) uint64 { return p.(*Router).ReplyRetransmits },
	}))
}

// Name implements multicast.Protocol.
func (r *Router) Name() string { return Name }

var _ multicast.Protocol = (*Router)(nil)
