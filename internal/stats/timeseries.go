package stats

import (
	"slices"
	"time"
)

// DelaySample records one delivery's end-to-end delay for percentile
// analysis.
type delaySample = time.Duration

// Percentiles summarizes a delay distribution.
type Percentiles struct {
	P50, P90, P99, Max time.Duration
	Count              int
}

// DelayTracker retains per-delivery delays and computes percentiles. The
// paper reports only means; percentiles expose the tail behavior that
// distinguishes contention-heavy configurations.
type DelayTracker struct {
	samples []delaySample
	sorted  bool
}

// Observe records one delivery delay.
func (d *DelayTracker) Observe(delay time.Duration) {
	d.samples = append(d.samples, delay)
	d.sorted = false
}

// Percentiles computes the distribution summary; zero-valued when empty.
func (d *DelayTracker) Percentiles() Percentiles {
	if len(d.samples) == 0 {
		return Percentiles{}
	}
	if !d.sorted {
		slices.Sort(d.samples)
		d.sorted = true
	}
	at := func(q float64) time.Duration {
		idx := int(q * float64(len(d.samples)-1))
		return d.samples[idx]
	}
	return Percentiles{
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		Max:   d.samples[len(d.samples)-1],
		Count: len(d.samples),
	}
}

// TimeSeries buckets deliveries and sends over fixed intervals, exposing
// how delivery ratio evolves during a run — the estimator-convergence and
// route-flap dynamics §5.3 describes are invisible in run-long means.
type TimeSeries struct {
	bucket    time.Duration
	sent      []uint64
	delivered []uint64
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(bucket time.Duration) *TimeSeries {
	if bucket <= 0 {
		bucket = 10 * time.Second
	}
	return &TimeSeries{bucket: bucket}
}

func (ts *TimeSeries) idx(at time.Duration) int {
	if at < 0 {
		return 0
	}
	return int(at / ts.bucket)
}

func (ts *TimeSeries) grow(i int) {
	for len(ts.sent) <= i {
		ts.sent = append(ts.sent, 0)
		ts.delivered = append(ts.delivered, 0)
	}
}

// RecordSent notes a source transmission at virtual time at.
func (ts *TimeSeries) RecordSent(at time.Duration) {
	i := ts.idx(at)
	ts.grow(i)
	ts.sent[i]++
}

// RecordDelivered notes one member delivery of a packet *sent* at sentAt.
// Bucketing by send time keeps sent/delivered aligned per bucket.
func (ts *TimeSeries) RecordDelivered(sentAt time.Duration) {
	i := ts.idx(sentAt)
	ts.grow(i)
	ts.delivered[i]++
}

// Point is one bucket of the series.
type Point struct {
	// Start is the bucket's start time.
	Start time.Duration
	// Sent and Delivered are the bucket totals (delivered counts each
	// member separately).
	Sent, Delivered uint64
	// Ratio is Delivered/Sent/members — callers that know the member count
	// can normalize; Ratio here is the raw delivered-to-sent ratio.
	Ratio float64
}

// Points renders the series.
func (ts *TimeSeries) Points() []Point {
	out := make([]Point, 0, len(ts.sent))
	for i := range ts.sent {
		p := Point{
			Start:     time.Duration(i) * ts.bucket,
			Sent:      ts.sent[i],
			Delivered: ts.delivered[i],
		}
		if p.Sent > 0 {
			p.Ratio = float64(p.Delivered) / float64(p.Sent)
		}
		out = append(out, p)
	}
	return out
}
