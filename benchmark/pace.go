package main

import "time"

// spinWindow is the final stretch before a scheduled send that the
// pacer spends spinning rather than sleeping. A timer sleep on a small
// virtual machine overshoots by about a millisecond at the median and
// several at the 99th percentile, which would otherwise be measured as
// the system's latency; at the workload's rate nearly every wait is
// shorter than this window, so the pacer mostly spins. Spinning also
// keeps the decision path's caches and clock warm, which a sleeping
// core does not: with nanosleep(2) pacing the median decision swung
// by a third between runs.
const spinWindow = 20 * time.Millisecond

// waitUntil blocks until due and returns how late it returned. Coarse
// waits sleep; the last spinWindow spins without yielding: a yield
// lets a goroutine the generator just woke (the durable log's) take
// this P into its fsync, and the generator then waits for the runtime
// to retake the P, which took up to 10 ms.
func waitUntil(due time.Time) time.Duration {
	for {
		left := until(due)
		if left <= 0 {
			return -left
		}
		if left > spinWindow {
			wallSleep(left - spinWindow)
		}
	}
}
