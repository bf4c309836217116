package ctlplane

import "time"

// WatchSample is one event of a WatchStream: the raw cumulative stats plus
// the server-computed deltas against the previous window, from which PDR
// over the window is derived.
type WatchSample struct {
	// T is when the event arrived.
	T time.Time
	// Err is set when the connection failed; the other fields are then
	// zero and the stream reconnects.
	Err error
	// Stats is the raw cumulative snapshot.
	Stats Stats
	// DeltaExpected / DeltaDelivered are the counter increments over the
	// event's window (zero on the first).
	DeltaExpected  uint64
	DeltaDelivered uint64
	// PDR is DeltaDelivered/DeltaExpected for this window; HasPDR is false
	// on the first sample and in windows with no expected deliveries.
	PDR    float64
	HasPDR bool
	// Anomaly is set on anomaly events.
	Anomaly string
}
