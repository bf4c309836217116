package mcst

import (
	"fmt"

	"meshcast/internal/multicast"
	"meshcast/internal/telemetry"
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
	})
}

// Name implements multicast.Protocol.
func (r *Router) Name() string { return Name }

// AttachTelemetry implements multicast.Protocol, registering the "mcst."
// instruments on reg: the kernel's set plus MCST's own handover counter.
func (r *Router) AttachTelemetry(reg *telemetry.Registry) {
	r.Kernel.AttachTelemetry(reg)
	r.coreHandovers = reg.Counter(Name + ".core_handovers")
}

var _ multicast.Protocol = (*Router)(nil)
