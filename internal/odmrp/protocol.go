package odmrp

import (
	"fmt"

	"meshcast/internal/metric"
	"meshcast/internal/multicast"
	"meshcast/internal/telemetry"
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
		case Params:
			params = t
		case *Params:
			if t != nil {
				params = *t
			}
		default:
			return nil, fmt.Errorf("odmrp: unsupported tuning type %T", tuning)
		}
		return New(env.Engine, env.ID, env.Metric, env.Table, params), nil
	})
}

// Name implements multicast.Protocol.
func (r *Router) Name() string { return Name }

// AttachTelemetry implements multicast.Protocol, registering the "odmrp."
// instruments on reg: the kernel's set plus ODMRP's own retransmit counter.
func (r *Router) AttachTelemetry(reg *telemetry.Registry) {
	r.Kernel.AttachTelemetry(reg)
	r.replyRetransmits = reg.Counter(Name + ".reply_retransmits")
}

var _ multicast.Protocol = (*Router)(nil)
