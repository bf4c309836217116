package soak

// FlightDumps reports how many anomaly flight dumps this run has written
// (0 when telemetry is disabled).
func (r *Runner) FlightDumps() int { return r.flight.Dumps() }
