package sim

import "time"

// Ticker fires a callback periodically in virtual time. It is the
// simulation-side analogue of time.Ticker, used for probe transmission,
// ODMRP refresh floods, CBR traffic, and bookkeeping timers.
type Ticker struct {
	interval time.Duration
	jitter   time.Duration
	rng      *RNG
	fn       func()
	ev       *Event // the one timer every firing re-arms
	stopped  bool
}

// NewTicker schedules fn every interval starting interval from now. If
// jitter is non-zero, each firing is offset by a uniform value in
// [0, jitter) drawn from rng — periodic protocol timers in wireless networks
// are jittered to avoid synchronized collisions, and the paper's probing and
// refresh floods rely on that. rng may be nil when jitter is zero.
func NewTicker(engine *Engine, interval, jitter time.Duration, rng *RNG, fn func()) *Ticker {
	t := &Ticker{interval: interval, jitter: jitter, rng: rng, fn: fn}
	t.ev = engine.NewTimer(t.fire)
	t.schedule()
	return t
}

func (t *Ticker) schedule() {
	d := t.interval
	if t.jitter > 0 {
		d += time.Duration(t.rng.Float64() * float64(t.jitter))
	}
	t.ev.Reset(d)
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.schedule()
	}
}

// Stop cancels future firings. It is safe to call multiple times and from
// within the ticker's own callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Stop()
}
