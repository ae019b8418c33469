package auditstore_test

import (
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/faultinject"
)

// coldQueries is the grid both the cold scanner and the iterator are
// checked against — every planner shape: full scan, single posting,
// intersection, time bounds, residual filters, limits.
func coldQueries() []auditstore.Query {
	mid := testBase.Add(700 * time.Millisecond)
	late := testBase.Add(1500 * time.Millisecond)
	return []auditstore.Query{
		{},
		{Verdict: "deny"},
		{Verdict: "grant"},
		{PID: 101},
		{PID: 103, Verdict: "deny"},
		{PID: 9999},
		{Since: mid},
		{Since: mid, Verdict: "deny"},
		{Until: mid},
		{Since: mid, Until: late, PID: 102},
		{Reason: "recent"},
		{Verdict: "deny", Reason: "recent"},
		{Session: 2},
		{Session: 3, Verdict: "grant"},
		{Limit: 7},
		{Verdict: "deny", Limit: 3},
		{Since: mid, Limit: 5},
	}
}

// TestColdScanMatchesStore pins ScanSegments against the warm path:
// for a directory with sealed and active segments, every query in the
// grid returns byte-identical records in both paths.
func TestColdScanMatchesStore(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 45) // sealed segments plus a partial active one

	for qi, q := range coldQueries() {
		warm, err := auditstore.ScanAll(st, q)
		if err != nil {
			t.Fatalf("query %d warm scan: %v", qi, err)
		}
		var cold []auditstore.Record
		stats, err := auditstore.ScanSegments(dir, q, func(r auditstore.Record) bool {
			cold = append(cold, r)
			return true
		})
		if err != nil {
			t.Fatalf("query %d cold scan: %v", qi, err)
		}
		if stats.Truncated {
			t.Fatalf("query %d cold scan reports truncation on a healthy dir: %+v", qi, stats)
		}
		if len(cold) != len(warm) {
			t.Fatalf("query %d: cold %d records, warm %d", qi, len(cold), len(warm))
		}
		for i := range warm {
			w, err1 := auditstore.EncodeBinaryRecord(warm[i])
			c, err2 := auditstore.EncodeBinaryRecord(cold[i])
			if err1 != nil || err2 != nil {
				t.Fatalf("encode: %v / %v", err1, err2)
			}
			if string(w) != string(c) {
				t.Fatalf("query %d record %d diverged:\n warm %+v\n cold %+v", qi, i, warm[i], cold[i])
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestColdScanSkipsSegments checks the footer fast path: a late -since
// bound must skip whole sealed segments without decoding them.
func TestColdScanSkipsSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 80) // 10 sealed v2 segments
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	q := auditstore.Query{Since: testBase.Add(3 * time.Second)} // records 60+
	var got []auditstore.Record
	stats, err := auditstore.ScanSegments(dir, q, func(r auditstore.Record) bool {
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatalf("cold scan: %v", err)
	}
	if stats.SkippedSegments == 0 {
		t.Fatalf("no segments skipped for a late since bound: %+v", stats)
	}
	if len(got) != 20 {
		t.Fatalf("got %d records, want 20 (stats %+v)", len(got), stats)
	}
	for i, r := range got {
		if want := uint64(61 + i); r.Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, r.Seq, want)
		}
	}
}

// TestColdScanReportsTruncation checks a torn tail surfaces in the
// cold stats with its file and reason, while the consistent prefix
// still streams.
func TestColdScanReportsTruncation(t *testing.T) {
	dir := t.TempDir()
	inj, err := faultinject.New(3, faultinject.Rule{
		Point: faultinject.PointStoreAppend, Kind: faultinject.KindError, After: 12, Count: 1,
	})
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	st, err := auditstore.Open(dir, auditstore.Options{
		SegmentRecords: 64, CompactSealed: -1, Hook: inj.Hook(),
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	acked := 0
	for i := 0; i < 30; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			break
		}
		acked++
	}
	if acked == 0 || acked == 30 {
		t.Fatalf("torn fault never fired usefully (acked %d)", acked)
	}
	_ = st.Close() // the store is failed; Close only releases it

	var got []auditstore.Record
	stats, err := auditstore.ScanSegments(dir, auditstore.Query{}, func(r auditstore.Record) bool {
		got = append(got, r)
		return true
	})
	if err != nil {
		t.Fatalf("cold scan: %v", err)
	}
	if !stats.Truncated || stats.TruncatedFile == "" || stats.Reason == "" {
		t.Fatalf("torn tail not reported: %+v", stats)
	}
	if len(got) != acked {
		t.Fatalf("cold scan streamed %d records, want the %d acked", len(got), acked)
	}
}

// TestSegmentsNewest pins the relative -since anchor: the newest
// record instant across all segments, straight from footers where
// available.
func TestSegmentsNewest(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 30)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	newest, err := auditstore.SegmentsNewest(dir)
	if err != nil {
		t.Fatalf("newest: %v", err)
	}
	want := mkRecord(29).Time
	if !newest.Equal(want) {
		t.Fatalf("newest = %v, want %v", newest, want)
	}
}
