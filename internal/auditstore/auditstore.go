// Package auditstore is the durable, queryable audit trail behind the
// Overhaul enforcement stack. The monitor's audit ring and the
// telemetry flight recorder are bounded in-memory structures that
// vanish on restart; at production scale the audit trail *is* the
// product — the record of what was granted, denied, and why is what
// turns an access-control monitor into something that can be
// investigated after the fact.
//
// The package offers one Store interface over two backends:
//
//   - MemStore — an indexed in-memory store ordered by sequence number
//     with secondary pid/verdict/time indexes. Cheap, volatile, and
//     the query engine the durable backend reuses.
//   - FileStore — append-only binary segments with length+CRC framing,
//     segment rotation, and compaction of sealed segments. Recovery is
//     fail-closed in the repository's established sense: Open always
//     replays to a consistent, CRC-verified prefix of the pre-crash
//     stream and reports the exact truncation point — never a silent
//     gap.
//
// Records use the same decision schema the flight recorder dumps and
// the auditlog renders (pid, op, verdict, reason, stamp, times), so
// the durable trail, the black-box dump, and the log file cannot
// drift; TestRecordSchemaShared pins the encoding.
//
// Every write seam of the durable backend consults a
// faultinject.Hook: torn segment writes (PointStoreAppend), crashes
// mid-rotation (PointStoreRotate) and mid-compaction
// (PointStoreCompact) are injectable, and the crash-recovery property
// test replays every window.
package auditstore

import (
	"errors"
	"strconv"
	"strings"
	"time"

	"overhaul/internal/monitor"
)

// Sentinel errors.
var (
	// ErrClosed is returned by every operation after Close.
	ErrClosed = errors.New("auditstore: store closed")
	// ErrSeqMismatch is returned by Append when the record carries a
	// non-zero sequence number that is not the next in the stream.
	ErrSeqMismatch = errors.New("auditstore: append out of sequence")
	// ErrStoreFailed wraps the fault that broke a durable store. Every
	// operation after a torn write or an injected crash fails with it —
	// fail closed — until the directory is reopened and recovered.
	ErrStoreFailed = errors.New("auditstore: store failed, reopen to recover")
)

// Record is one audit-trail entry: the decision schema shared with the
// flight recorder's JSONL dumps and the auditlog rendering. Time is
// the operation time, Stamp the interaction stamp consulted (zero if
// none), Session the fleet tenant that produced the decision (0 for a
// single-desktop monitor).
type Record struct {
	Seq      uint64    `json:"seq"`
	Time     time.Time `json:"time"`
	Session  uint64    `json:"session,omitempty"`
	PID      int       `json:"pid"`
	Op       string    `json:"op"`
	Verdict  string    `json:"verdict"`
	Reason   string    `json:"reason"`
	Stamp    time.Time `json:"stamp"` // zero time = no stamp consulted
	Degraded bool      `json:"degraded,omitempty"`
}

// FromDecision converts a monitor decision into the shared record
// schema. Seq is left zero: the store assigns it on append.
func FromDecision(d monitor.Decision, session uint64) Record {
	return Record{
		Time:     d.OpTime,
		Session:  session,
		PID:      d.PID,
		Op:       string(d.Op),
		Verdict:  d.Verdict.String(),
		Reason:   d.Reason,
		Stamp:    d.Stamp,
		Degraded: d.Degraded,
	}
}

// Decision converts the record back to the monitor's decision type.
// Unknown verdict strings yield the zero (invalid) verdict.
func (r Record) Decision() monitor.Decision {
	var v monitor.Verdict
	switch r.Verdict {
	case monitor.VerdictGrant.String():
		v = monitor.VerdictGrant
	case monitor.VerdictDeny.String():
		v = monitor.VerdictDeny
	}
	return monitor.Decision{
		PID:      r.PID,
		Op:       monitor.Op(r.Op),
		OpTime:   r.Time,
		Stamp:    r.Stamp,
		Verdict:  v,
		Reason:   r.Reason,
		Degraded: r.Degraded,
	}
}

// Detail renders the record's decision fields exactly as the flight
// recorder renders a "decision" event — "pid=N op=X verdict: reason".
// TestRecordSchemaShared pins the two byte-for-byte so the durable
// trail and the black-box dump cannot drift.
func (r Record) Detail() string {
	return "pid=" + strconv.Itoa(r.PID) + " op=" + r.Op +
		" " + r.Verdict + ": " + r.Reason
}

// Query selects records from a store. The zero value matches
// everything; Scan always yields in ascending sequence order.
type Query struct {
	// Since keeps records with Time >= Since (zero = unbounded).
	Since time.Time
	// Until keeps records with Time < Until (zero = unbounded).
	Until time.Time
	// PID keeps records for one process (0 = any; pids are >= 1).
	PID int
	// Verdict keeps one verdict class, "grant" or "deny" ("" = any).
	Verdict string
	// Reason keeps records whose reason contains this substring.
	Reason string
	// Session keeps one fleet session's records (0 = any).
	Session uint64
	// Limit caps the number of records yielded (0 = unlimited).
	Limit int
}

// Matches reports whether the record satisfies every filter except
// Limit (which is positional, applied by Scan).
func (q Query) Matches(r Record) bool {
	if !q.Since.IsZero() && r.Time.Before(q.Since) {
		return false
	}
	if !q.Until.IsZero() && !r.Time.Before(q.Until) {
		return false
	}
	if q.PID != 0 && r.PID != q.PID {
		return false
	}
	if q.Verdict != "" && r.Verdict != q.Verdict {
		return false
	}
	if q.Reason != "" && !strings.Contains(r.Reason, q.Reason) {
		return false
	}
	if q.Session != 0 && r.Session != q.Session {
		return false
	}
	return true
}

// Store is the backend-neutral audit-trail interface: the monitor, a
// fleet session, and the chaos runner all sink into it, and the query
// path reads from it, without knowing which backend is behind.
type Store interface {
	// Append adds one record to the stream and returns its assigned
	// sequence number (sequences are contiguous from 1). A record
	// carrying a non-zero Seq must carry exactly the next sequence
	// number, or the append fails with ErrSeqMismatch.
	Append(Record) (uint64, error)
	// Get returns the record with the given sequence number; ok is
	// false if it is not in the store.
	Get(seq uint64) (Record, bool, error)
	// Scan yields every record matching q in ascending sequence order
	// until the query is exhausted or yield returns false.
	Scan(q Query, yield func(Record) bool) error
	// Count returns the number of records in the store.
	Count() (int, error)
	// Close releases the store. Further operations fail with ErrClosed.
	Close() error
}

// ScanAll collects every record matching q into a slice.
func ScanAll(st Store, q Query) ([]Record, error) {
	var out []Record
	err := st.Scan(q, func(r Record) bool {
		out = append(out, r)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
