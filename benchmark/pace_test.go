package main

import (
	"testing"
	"time"
)

// TestPacerLateness drives a no-op target at fleet-ingest's offered
// rate: what the pacer adds to every measured latency must stay within
// a few microseconds at the median.
func TestPacerLateness(t *testing.T) {
	const events = 4000
	gap := time.Duration(float64(time.Second) / offeredRate)
	var late samples
	start := wallNow().Add(time.Millisecond)
	for i := 0; i < events; i++ {
		late.add(waitUntil(start.Add(time.Duration(i) * gap)))
	}
	p50, p99 := late.us(0.5), late.us(0.99)
	t.Logf("lateness over %d sends at %.0f/s: p50 %.2f µs, p99 %.2f µs", events, offeredRate, p50, p99)
	if p50 > 5 {
		t.Errorf("lateness p50 = %.2f µs, want ≤ 5 µs", p50)
	}
}
