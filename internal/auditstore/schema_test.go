package auditstore_test

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/clock"
	"overhaul/internal/monitor"
	"overhaul/internal/telemetry"
)

// TestRecordSchemaShared pins the shared decision schema across the
// three surfaces that render it: the durable store's Record, the
// flight recorder's JSONL dump, and the record↔decision conversion.
// The store and the black-box dump must agree byte for byte on how a
// decision reads, or post-incident forensics ends up correlating two
// dialects of the same event.
func TestRecordSchemaShared(t *testing.T) {
	opTime := time.Date(2016, 3, 1, 9, 0, 2, 0, time.UTC)
	d := monitor.Decision{
		PID:      4321,
		Op:       monitor.Op("open_device"),
		OpTime:   opTime,
		Stamp:    opTime.Add(-1 * time.Second),
		Verdict:  monitor.VerdictDeny,
		Reason:   "no recent interaction",
		Degraded: true,
	}
	rec := auditstore.FromDecision(d, 9)

	// Record ↔ Decision is lossless (Seq and Session live only on the
	// store side).
	back := rec.Decision()
	if back != d {
		t.Fatalf("decision round trip:\n got %+v\nwant %+v", back, d)
	}

	// The store's Detail renders byte-identically to the flight
	// recorder's "decision" event for the same decision.
	clk := clock.NewSimulatedAt(opTime)
	tr := telemetry.New(clk)
	tr.RecordDecision(telemetry.SpanContext{}, "monitor", d.PID, string(d.Op), d.Verdict.String(), d.Reason)
	evs := tr.FlightEvents()
	if len(evs) != 1 {
		t.Fatalf("flight events = %d, want 1", len(evs))
	}
	if evs[0].Detail != rec.Detail() {
		t.Fatalf("schema drift between store and flight recorder:\n store  %q\n flight %q", rec.Detail(), evs[0].Detail)
	}

	// And the flight dump's JSONL carries that same detail string, so
	// grepping a dump and querying the store match on the same bytes.
	tr.TripFlight(telemetry.SpanContext{}, "monitor", "schema test")
	dump, ok := tr.LastFlightDump()
	if !ok {
		t.Fatalf("no flight dump after trip")
	}
	raw, err := dump.JSONL()
	if err != nil {
		t.Fatalf("dump jsonl: %v", err)
	}
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var ev struct {
			Kind   string `json:"kind"`
			Detail string `json:"detail"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			continue
		}
		if ev.Kind == "decision" && ev.Detail == rec.Detail() {
			found = true
		}
	}
	if !found {
		t.Fatalf("flight dump JSONL does not carry the store's detail rendering %q:\n%s", rec.Detail(), raw)
	}
}
