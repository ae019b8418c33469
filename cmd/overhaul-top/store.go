package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"overhaul/internal/auditstore"
)

// storeQuery carries the parsed -since/-pid/-verdict/-reason/-session/
// -limit flags of a store query.
type storeQuery struct {
	since   string
	pid     int
	verdict string
	reason  string
	session uint64
	limit   int
}

// runStoreQuery opens a durable audit store directory and prints the
// records matching the query — the forensics path: no live system, no
// clock, just whatever the store recovered, with the recovery report
// up front when the directory did not decode cleanly.
func runStoreQuery(dir string, q storeQuery, jsonOut bool) int {
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	defer st.Close() //overhaul:allow errdrop read-only query session; nothing to flush

	query := auditstore.Query{
		PID:     q.pid,
		Verdict: q.verdict,
		Reason:  q.reason,
		Session: q.session,
		Limit:   q.limit,
	}
	if q.since != "" {
		since, err := parseSince(st, q.since)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-top:", err)
			return 2
		}
		query.Since = since
	}

	recs, err := auditstore.ScanAll(st, query)
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Recovery auditstore.Recovery `json:"recovery"`
			Records  []auditstore.Record `json:"records"`
		}{st.Recovery(), recs}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-top:", err)
			return 2
		}
		return 0
	}

	rec := st.Recovery()
	total, err := st.Count()
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}
	fmt.Printf("== store %s (%d records", dir, total)
	if rec.LastSeq > 0 {
		fmt.Printf(", last seq %d", rec.LastSeq)
	}
	fmt.Print(") ==\n")
	if !rec.Clean {
		fmt.Printf("recovery: truncated at %s:%d (%s); dropped %d records, %d bytes\n",
			rec.TruncatedFile, rec.TruncatedOffset, rec.Reason, rec.DroppedRecords, rec.DroppedBytes)
	}
	for _, r := range recs {
		printRecord(r)
	}
	fmt.Printf("(%d matched)\n", len(recs))
	return 0
}

// runColdQuery answers a store query straight off the sealed segments
// — no FileStore is opened and no in-memory index is built. Footers
// prune whole segments behind a -since bound and seek within the
// segment that straddles it, so a narrow time window over a long trail
// reads a fraction of the frames the warm path would decode.
func runColdQuery(dir string, q storeQuery, jsonOut bool) int {
	query := auditstore.Query{
		PID:     q.pid,
		Verdict: q.verdict,
		Reason:  q.reason,
		Session: q.session,
		Limit:   q.limit,
	}
	if q.since != "" {
		since, err := parseColdSince(dir, q.since)
		if err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-top:", err)
			return 2
		}
		query.Since = since
	}

	var recs []auditstore.Record
	stats, err := auditstore.ScanSegments(dir, query, func(r auditstore.Record) bool {
		recs = append(recs, r)
		return true
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "overhaul-top:", err)
		return 2
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Cold    auditstore.ColdStats `json:"cold"`
			Records []auditstore.Record  `json:"records"`
		}{stats, recs}
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "overhaul-top:", err)
			return 2
		}
		return 0
	}

	fmt.Printf("== store %s (cold: %d segments, %d skipped, %d seeked) ==\n",
		dir, stats.Segments, stats.SkippedSegments, stats.SeekedSegments)
	if stats.Truncated {
		fmt.Printf("truncated: %s (%s)\n", stats.TruncatedFile, stats.Reason)
	}
	for _, r := range recs {
		printRecord(r)
	}
	fmt.Printf("(%d matched of %d decoded)\n", stats.Matched, stats.Records)
	return 0
}

// parseColdSince is parseSince for the cold path: a relative bound is
// anchored to the newest record time found via segment footers.
func parseColdSince(dir, s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return time.Time{}, fmt.Errorf("-since %q: not an RFC3339 time or a duration", s)
	}
	newest, err := auditstore.SegmentsNewest(dir)
	if err != nil {
		return time.Time{}, err
	}
	if newest.IsZero() {
		return time.Time{}, nil // empty store: match nothing either way
	}
	return newest.Add(-d), nil
}

// printRecord renders one record as a console line.
func printRecord(r auditstore.Record) {
	verdict := "DENY "
	if r.Verdict == "grant" {
		verdict = "GRANT"
	}
	sess := ""
	if r.Session != 0 {
		sess = fmt.Sprintf(" session=%d", r.Session)
	}
	degraded := ""
	if r.Degraded {
		degraded = " degraded=1"
	}
	fmt.Printf("  %6d %s %s pid=%d op=%s%s %s%s\n",
		r.Seq, r.Time.Format("15:04:05.000"), verdict, r.PID, r.Op, sess, r.Reason, degraded)
}

// parseSince interprets -since as either an absolute RFC3339 instant
// or a duration counted back from the newest record in the store (the
// store's own timeline — there is no wall clock in a replayed trail).
func parseSince(st auditstore.Store, s string) (time.Time, error) {
	if t, err := time.Parse(time.RFC3339, s); err == nil {
		return t, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return time.Time{}, fmt.Errorf("-since %q: not an RFC3339 time or a duration", s)
	}
	var newest time.Time
	err = st.Scan(auditstore.Query{}, func(r auditstore.Record) bool {
		if r.Time.After(newest) {
			newest = r.Time
		}
		return true
	})
	if err != nil {
		return time.Time{}, err
	}
	if newest.IsZero() {
		return time.Time{}, nil // empty store: match nothing either way
	}
	return newest.Add(-d), nil
}
