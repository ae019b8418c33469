package auditstore_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/faultinject"
	"overhaul/internal/monitor"
)

// testBase anchors every test record's timestamps (no wall clock in
// tests: runs are reproducible by construction).
var testBase = time.Date(2016, 3, 1, 9, 0, 0, 0, time.UTC)

// mkRecord builds a deterministic record for index i (Seq left zero).
func mkRecord(i int) auditstore.Record {
	ops := [...]string{"open_device", "read_screen", "inject_input"}
	verdict, reason := "grant", "interaction 1s ago"
	if i%3 == 0 {
		verdict, reason = "deny", "no recent interaction"
	}
	return auditstore.Record{
		Time:    testBase.Add(time.Duration(i) * 50 * time.Millisecond),
		Session: uint64(i % 4),
		PID:     100 + i%7,
		Op:      ops[i%len(ops)],
		Verdict: verdict,
		Reason:  reason,
		Stamp:   testBase.Add(-2 * time.Second),
	}
}

// decisionStream builds the first n decisions of a deterministic
// monitor stream (what a Tail consumes).
func decisionStream(n int) []monitor.Decision {
	out := make([]monitor.Decision, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, mkRecord(i).Decision())
	}
	return out
}

// fillStore appends records 0..n-1 and fails the test on any error.
func fillStore(t *testing.T, st auditstore.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq, err := st.Append(mkRecord(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("append %d: seq = %d, want %d", i, seq, want)
		}
	}
}

// checkPrefix asserts the store holds exactly records 0..n-1 of the
// mkRecord stream, byte-identical under the segment encoding.
func checkPrefix(t *testing.T, st auditstore.Store, n int) {
	t.Helper()
	count, err := st.Count()
	if err != nil {
		t.Fatalf("count: %v", err)
	}
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
	for i := 0; i < n; i++ {
		got, ok, err := st.Get(uint64(i + 1))
		if err != nil || !ok {
			t.Fatalf("get %d: ok=%v err=%v", i+1, ok, err)
		}
		want := mkRecord(i)
		want.Seq = uint64(i + 1)
		gotFrame, err := auditstore.EncodeBinaryRecord(got)
		if err != nil {
			t.Fatalf("encode got %d: %v", i+1, err)
		}
		wantFrame, err := auditstore.EncodeBinaryRecord(want)
		if err != nil {
			t.Fatalf("encode want %d: %v", i+1, err)
		}
		if string(gotFrame) != string(wantFrame) {
			t.Fatalf("record %d diverged:\n got %+v\nwant %+v", i+1, got, want)
		}
	}
}

func TestMemStoreCRUD(t *testing.T) {
	m := auditstore.NewMemStore()
	fillStore(t, m, 50)
	checkPrefix(t, m, 50)

	if _, ok, err := m.Get(0); ok || err != nil {
		t.Fatalf("get 0: ok=%v err=%v, want miss", ok, err)
	}
	if _, ok, err := m.Get(51); ok || err != nil {
		t.Fatalf("get past end: ok=%v err=%v, want miss", ok, err)
	}
	if m.LastSeq() != 50 {
		t.Fatalf("LastSeq = %d, want 50", m.LastSeq())
	}

	// Explicit matching seq is accepted; a wrong one is rejected.
	r := mkRecord(50)
	r.Seq = 51
	if _, err := m.Append(r); err != nil {
		t.Fatalf("append explicit seq: %v", err)
	}
	r = mkRecord(51)
	r.Seq = 99
	if _, err := m.Append(r); !errors.Is(err, auditstore.ErrSeqMismatch) {
		t.Fatalf("append wrong seq: %v, want ErrSeqMismatch", err)
	}

	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := m.Append(mkRecord(0)); !errors.Is(err, auditstore.ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if _, _, err := m.Get(1); !errors.Is(err, auditstore.ErrClosed) {
		t.Fatalf("get after close: %v, want ErrClosed", err)
	}
	if err := m.Scan(auditstore.Query{}, func(auditstore.Record) bool { return true }); !errors.Is(err, auditstore.ErrClosed) {
		t.Fatalf("scan after close: %v, want ErrClosed", err)
	}
	if err := m.Close(); !errors.Is(err, auditstore.ErrClosed) {
		t.Fatalf("double close: %v, want ErrClosed", err)
	}
}

func TestQueryFilters(t *testing.T) {
	m := auditstore.NewMemStore()
	fillStore(t, m, 60)

	scan := func(q auditstore.Query) []auditstore.Record {
		t.Helper()
		out, err := auditstore.ScanAll(m, q)
		if err != nil {
			t.Fatalf("scan %+v: %v", q, err)
		}
		return out
	}

	if got := scan(auditstore.Query{}); len(got) != 60 {
		t.Fatalf("zero query: %d records, want 60", len(got))
	}
	for _, r := range scan(auditstore.Query{PID: 103}) {
		if r.PID != 103 {
			t.Fatalf("pid filter leaked %+v", r)
		}
	}
	deny := scan(auditstore.Query{Verdict: "deny"})
	if len(deny) != 20 {
		t.Fatalf("deny count = %d, want 20", len(deny))
	}
	for _, r := range deny {
		if r.Verdict != "deny" {
			t.Fatalf("verdict filter leaked %+v", r)
		}
	}
	if got := scan(auditstore.Query{Verdict: "unknown"}); len(got) != 0 {
		t.Fatalf("unknown verdict matched %d records", len(got))
	}
	if got := scan(auditstore.Query{Reason: "recent"}); len(got) != 20 {
		t.Fatalf("reason substring = %d records, want 20", len(got))
	}

	// Since/Until bound on record time; records are 50ms apart.
	since := testBase.Add(1 * time.Second) // records 20..59
	until := testBase.Add(2 * time.Second) // records ..39
	if got := scan(auditstore.Query{Since: since}); len(got) != 40 {
		t.Fatalf("since = %d records, want 40", len(got))
	}
	if got := scan(auditstore.Query{Since: since, Until: until}); len(got) != 20 {
		t.Fatalf("since+until = %d records, want 20", len(got))
	}
	// Until windows at the start, middle and end of the stream, alone
	// and over the posting lists, against a brute-force filter.
	for _, q := range []auditstore.Query{
		{Until: testBase.Add(300 * time.Millisecond)},
		{Since: testBase.Add(1 * time.Second), Until: testBase.Add(1500 * time.Millisecond)},
		{Since: testBase.Add(2800 * time.Millisecond), Until: testBase.Add(time.Hour)},
		{Until: testBase.Add(1 * time.Second), PID: 103},
		{Since: testBase.Add(500 * time.Millisecond), Until: testBase.Add(2 * time.Second), Verdict: "deny"},
		{Since: testBase.Add(500 * time.Millisecond), Until: testBase.Add(2 * time.Second), PID: 100, Verdict: "deny"},
		{Until: testBase.Add(2 * time.Second), Reason: "recent", Limit: 3},
		{Since: testBase.Add(2 * time.Second), Until: testBase.Add(1 * time.Second)},
	} {
		var want []uint64
		for i := 0; i < 60; i++ {
			r := mkRecord(i)
			r.Seq = uint64(i + 1)
			if q.Matches(r) && (q.Limit == 0 || len(want) < q.Limit) {
				want = append(want, r.Seq)
			}
		}
		got := scan(q)
		if len(got) != len(want) {
			t.Fatalf("window %+v: %d records, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i] {
				t.Fatalf("window %+v: record %d seq %d, want %d", q, i, got[i].Seq, want[i])
			}
		}
	}

	if got := scan(auditstore.Query{Session: 2}); len(got) != 15 {
		t.Fatalf("session = %d records, want 15", len(got))
	}

	got := scan(auditstore.Query{Limit: 7})
	if len(got) != 7 || got[0].Seq != 1 || got[6].Seq != 7 {
		t.Fatalf("limit: got %d records starting at %d", len(got), got[0].Seq)
	}

	// Combined posting-list paths stay consistent with a brute scan.
	want := 0
	for i := 0; i < 60; i++ {
		r := mkRecord(i)
		if r.PID == 100 && r.Verdict == "deny" {
			want++
		}
	}
	if got := scan(auditstore.Query{PID: 100, Verdict: "deny"}); len(got) != want {
		t.Fatalf("pid+verdict = %d records, want %d", len(got), want)
	}

	// Early stop: yield false ends the scan.
	seen := 0
	if err := m.Scan(auditstore.Query{}, func(auditstore.Record) bool {
		seen++
		return seen < 3
	}); err != nil {
		t.Fatalf("early-stop scan: %v", err)
	}
	if seen != 3 {
		t.Fatalf("early stop saw %d records, want 3", seen)
	}
}

func TestFileStoreAppendGetReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if rec := st.Recovery(); !rec.Clean || rec.Records != 0 {
		t.Fatalf("fresh open recovery = %+v, want clean empty", rec)
	}
	fillStore(t, st, 100)
	checkPrefix(t, st, 100)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	rec := st2.Recovery()
	if !rec.Clean || rec.Truncated || rec.Records != 100 || rec.LastSeq != 100 {
		t.Fatalf("reopen recovery = %+v, want clean 100 records", rec)
	}
	checkPrefix(t, st2, 100)

	// The reopened store keeps appending where the stream left off.
	seq, err := st2.Append(mkRecord(100))
	if err != nil || seq != 101 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestFileStoreRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: 3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 100)
	sealed, active := st.SegmentCount()
	if _, maxSealed := tierBounds(100, 8, 3); sealed > maxSealed || active != 1 {
		t.Fatalf("segments: sealed=%d active=%d, want tiered compaction to keep sealed <= %d", sealed, active, maxSealed)
	}
	checkPrefix(t, st, 100)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(names) != sealed+active {
		t.Fatalf("directory has %d segments, store tracked %d", len(names), sealed+active)
	}

	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: 3})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	if rec := st2.Recovery(); !rec.Clean || rec.Records != 100 {
		t.Fatalf("reopen recovery = %+v, want clean 100 records", rec)
	}
	checkPrefix(t, st2, 100)
}

// tierBounds returns the size-tiered compaction bounds for n records
// at segment size s and fan-in f: levels = ⌈log_f(n/s)⌉ bounds how
// often any record is rewritten, and (f−1)·(levels+1) how many
// segments are sealed at once.
func tierBounds(n, s, f int) (levels, maxSealed int) {
	for span := s; span < n; span *= f {
		levels++
	}
	return levels, (f - 1) * (levels + 1)
}

// TestCompactionWriteAmpBounded pins the write-amplification contract
// of size-tiered compaction: over N appends every record is rewritten
// at most ⌈log_F(N/S)⌉ times in total, and the sealed count never
// exceeds (F−1)·(levels+1). A policy that merges every sealed
// segment on each compaction rewrites 1,059,960 records in this run,
// 30 times the bound.
func TestCompactionWriteAmpBounded(t *testing.T) {
	const s, f, n = 8, 3, 5832 // n = s·f^6
	levels, maxSealed := tierBounds(n, s, f)
	st, err := auditstore.Open(t.TempDir(), auditstore.Options{SegmentRecords: s, CompactSealed: f})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close() //overhaul:allow errdrop test cleanup
	for i := 0; i < n; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if sealed, _ := st.SegmentCount(); sealed > maxSealed {
			t.Fatalf("after %d appends %d segments are sealed, bound (F-1)(levels+1) = %d", i+1, sealed, maxSealed)
		}
	}
	stats := st.BatchStats()
	if bound := uint64(n * levels); stats.CompactedRecords > bound {
		t.Fatalf("compaction rewrote %d records over %d appends, bound N·⌈log_F(N/S)⌉ = %d", stats.CompactedRecords, n, bound)
	}
	if stats.Compactions == 0 || stats.Records != n {
		t.Fatalf("stats = %+v, want compactions over %d records", stats, n)
	}
	t.Logf("%d compactions rewrote %d records: write amplification %.2f", stats.Compactions, stats.CompactedRecords, stats.WriteAmp())
	checkPrefix(t, st, n)
}

func TestFileStoreManualCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4, CompactSealed: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close() //overhaul:allow errdrop test cleanup
	fillStore(t, st, 40)
	sealed, _ := st.SegmentCount()
	if sealed < 9 {
		t.Fatalf("sealed = %d before manual compact, want >= 9 (auto compaction disabled)", sealed)
	}
	if err := st.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if sealed, _ = st.SegmentCount(); sealed != 1 {
		t.Fatalf("sealed = %d after compact, want 1", sealed)
	}
	if stats := st.BatchStats(); stats.Compactions != 1 || stats.CompactedRecords != 36 {
		t.Fatalf("stats = %+v, want one compaction rewriting the 36 sealed records", stats)
	}
	checkPrefix(t, st, 40)
}

func TestFileStoreFailClosed(t *testing.T) {
	dir := t.TempDir()
	inj, err := faultinject.New(1, faultinject.Rule{
		Point: faultinject.PointStoreAppend, Kind: faultinject.KindCrash, After: 5, Count: 1,
	})
	if err != nil {
		t.Fatalf("injector: %v", err)
	}
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16, Hook: inj.Hook()})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	acked := 0
	var failErr error
	for i := 0; i < 10; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			failErr = err
			break
		}
		acked++
	}
	if failErr == nil || !errors.Is(failErr, auditstore.ErrStoreFailed) {
		t.Fatalf("append fault: %v, want ErrStoreFailed", failErr)
	}
	if acked != 5 {
		t.Fatalf("acked = %d, want 5", acked)
	}

	// Fail closed: reads fail too — a store that cannot vouch for its
	// tail must not answer as if it could.
	if _, _, err := st.Get(1); !errors.Is(err, auditstore.ErrStoreFailed) {
		t.Fatalf("get after failure: %v, want ErrStoreFailed", err)
	}
	if err := st.Scan(auditstore.Query{}, func(auditstore.Record) bool { return true }); !errors.Is(err, auditstore.ErrStoreFailed) {
		t.Fatalf("scan after failure: %v, want ErrStoreFailed", err)
	}
	if _, err := st.Count(); !errors.Is(err, auditstore.ErrStoreFailed) {
		t.Fatalf("count after failure: %v, want ErrStoreFailed", err)
	}
	if _, err := st.Append(mkRecord(acked)); !errors.Is(err, auditstore.ErrStoreFailed) {
		t.Fatalf("append after failure: %v, want ErrStoreFailed", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close failed store: %v", err)
	}

	// Reopen recovers the acked prefix.
	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	checkPrefix(t, st2, acked)
}

func TestFileStoreTornTailReported(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 10)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Corrupt the active segment with a torn half-frame, the way a
	// power cut mid-write would.
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(names) == 0 {
		t.Fatalf("glob: %v (%d segments)", err, len(names))
	}
	last := names[len(names)-1]
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open segment: %v", err)
	}
	if _, err := f.Write([]byte("000000ffdeadbeef{\"seq\":torn")); err != nil {
		t.Fatalf("tear segment: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close segment: %v", err)
	}

	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	rec := st2.Recovery()
	if rec.Clean || !rec.Truncated {
		t.Fatalf("recovery = %+v, want reported truncation", rec)
	}
	if rec.TruncatedFile != filepath.Base(last) || rec.TruncatedOffset == 0 {
		t.Fatalf("truncation point = %s:%d, want %s:>0", rec.TruncatedFile, rec.TruncatedOffset, filepath.Base(last))
	}
	if rec.Reason == "" || rec.DroppedBytes == 0 {
		t.Fatalf("recovery = %+v, want reason and dropped bytes", rec)
	}
	checkPrefix(t, st2, 10)
	if err := st2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Normalization means the next open is clean: the damage was
	// rewritten away, not left to be re-reported forever.
	st3, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer st3.Close() //overhaul:allow errdrop test cleanup
	if rec := st3.Recovery(); !rec.Clean {
		t.Fatalf("post-normalize recovery = %+v, want clean", rec)
	}
	checkPrefix(t, st3, 10)
}

func TestTailSyncAndRebind(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	tail, err := auditstore.NewTail(st, 3)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	dstream := decisionStream(12)
	if n, err := tail.Sync(dstream); err != nil || n != 12 {
		t.Fatalf("sync: n=%d err=%v, want 12", n, err)
	}
	if n, err := tail.Sync(dstream); err != nil || n != 0 {
		t.Fatalf("re-sync: n=%d err=%v, want 0 (idempotent)", n, err)
	}
	dstream = decisionStream(20)
	if n, err := tail.Sync(dstream); err != nil || n != 8 {
		t.Fatalf("grow sync: n=%d err=%v, want 8", n, err)
	}
	count, err := st.Count()
	if err != nil || count != 20 {
		t.Fatalf("count = %d err=%v, want 20", count, err)
	}
	got, err := auditstore.ScanAll(st, auditstore.Query{Session: 3})
	if err != nil || len(got) != 20 {
		t.Fatalf("session query = %d records err=%v, want 20", len(got), err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Rebind onto a reopened store resumes at the recovered count.
	st2, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close() //overhaul:allow errdrop test cleanup
	if err := tail.Rebind(st2); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if tail.Cursor() != 20 {
		t.Fatalf("cursor after reset = %d, want 20", tail.Cursor())
	}
	dstream = decisionStream(25)
	if n, err := tail.Sync(dstream); err != nil || n != 5 {
		t.Fatalf("post-reset sync: n=%d err=%v, want 5", n, err)
	}
}

// TestOpenAllocsScale pins cold Open's allocation count to the shape
// of the directory, not the length of its history: opening ten times
// the records (same pid and reason cardinality) may not even double
// the allocations. Decoding each record into its own heap objects
// would make the ratio about 10.
func TestOpenAllocsScale(t *testing.T) {
	allocs := func(n int) float64 {
		dir := t.TempDir()
		writeHistory(t, dir, n)
		return testing.AllocsPerRun(2, func() {
			if err := openHistory(t, dir, n).Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
		})
	}
	small, large := allocs(10_000), allocs(100_000)
	if large >= 2*small {
		t.Fatalf("Open allocations: %.0f for 100k records, %.0f for 10k; want under 2x", large, small)
	}
}

// TestOpenLyingFooter pins that a sealed footer's record count is only
// a capacity hint: a CRC-valid footer that claims 2^40 records over
// three real frames, or one that holds no entries at all, neither
// forces a huge allocation nor changes what is recovered.
func TestOpenLyingFooter(t *testing.T) {
	frames := auditstore.BinarySegmentMagic()
	for i := 0; i < 3; i++ {
		r := mkRecord(i)
		r.Seq = uint64(i + 1)
		frame, err := auditstore.EncodeBinaryRecord(r)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		frames = append(frames, frame...)
	}
	// Footer body: entry count, then seq/offset/maxBefore per entry.
	inflated := binary.AppendUvarint(nil, 2)
	inflated = binary.AppendUvarint(inflated, 1)
	inflated = binary.AppendUvarint(inflated, 8)
	inflated = binary.AppendVarint(inflated, math.MinInt64)
	inflated = binary.AppendUvarint(inflated, 1<<40) // the sentinel lies
	inflated = binary.AppendUvarint(inflated, uint64(len(frames)))
	inflated = binary.AppendVarint(inflated, mkRecord(2).Time.UnixNano())
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"inflated", inflated},
		{"empty", binary.AppendUvarint(nil, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Footer: marker, body, body CRC, body length, magic.
			seg := append(append([]byte(nil), frames...), 0)
			seg = append(seg, tc.body...)
			seg = binary.LittleEndian.AppendUint32(seg, crc32.ChecksumIEEE(tc.body))
			seg = binary.LittleEndian.AppendUint32(seg, uint32(len(tc.body)))
			seg = append(seg, "IDX2"...)
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "seg-00000001.seg"), seg, 0o600); err != nil {
				t.Fatalf("write segment: %v", err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st := openHistory(t, dir, 3)
			runtime.ReadMemStats(&after)
			defer st.Close() //overhaul:allow errdrop test cleanup
			if sealed, active := st.SegmentCount(); sealed != 1 || active != 0 {
				t.Fatalf("segments = %d sealed, %d active; the footer did not parse", sealed, active)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Fatalf("Open allocated %d bytes for a 3-record segment", got)
			}
			checkPrefix(t, st, 3)
		})
	}
}

// TestOpenRejectsV1Segments pins that a directory still holding a v1
// JSONL segment fails to open, and to cold-scan, naming the file:
// its records can no longer be decoded, and skipping it would report
// a clean store with that history missing.
func TestOpenRejectsV1Segments(t *testing.T) {
	dir := t.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 5)
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	const v1 = "seg-00000000.jsonl"
	line := `{"seq":1,"time":"2026-01-01T00:00:00Z","session":1,"pid":1,"op":"open","verdict":"grant"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, v1), []byte(line), 0o600); err != nil {
		t.Fatalf("write v1 segment: %v", err)
	}
	if st, err := auditstore.Open(dir, auditstore.Options{}); err == nil || !strings.Contains(err.Error(), v1) {
		if err == nil {
			st.Close() //overhaul:allow errdrop test cleanup
		}
		t.Fatalf("Open = %v, want an error naming %s", err, v1)
	}
	if _, err := auditstore.ScanSegments(dir, auditstore.Query{}, func(auditstore.Record) bool { return true }); err == nil || !strings.Contains(err.Error(), v1) {
		t.Fatalf("ScanSegments = %v, want an error naming %s", err, v1)
	}
	if _, err := auditstore.SegmentsNewest(dir); err == nil || !strings.Contains(err.Error(), v1) {
		t.Fatalf("SegmentsNewest = %v, want an error naming %s", err, v1)
	}
	if _, err := os.Stat(filepath.Join(dir, v1)); err != nil {
		t.Fatalf("v1 segment touched: %v", err)
	}
}

// TestRecoveryReportsDamage pins the whole Recovery report for damage
// in the middle of the stream: a missing segment (a sequence gap) and
// a bit-flipped frame in a sealed segment that is not the newest. The
// consistent prefix, the first bad byte, the reason and the dropped
// records and bytes are all exact.
func TestRecoveryReportsDamage(t *testing.T) {
	// frameLen is the encoded size of record i of the mkRecord stream.
	frameLen := func(i int) int {
		r := mkRecord(i)
		r.Seq = uint64(i + 1)
		frame, err := auditstore.EncodeBinaryRecord(r)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return len(frame)
	}
	magic := len(auditstore.BinarySegmentMagic())
	// Five 8-record segments: seg-1 holds seqs 1-8, seg-2 9-16, ...,
	// seg-5 (the active one) 33-40.
	build := func(t *testing.T) string {
		dir := t.TempDir()
		st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: -1})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		fillStore(t, st, 40)
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		return dir
	}
	reopen := func(t *testing.T, dir string, n int) auditstore.Recovery {
		st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 8, CompactSealed: -1})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st.Close() //overhaul:allow errdrop test cleanup
		checkPrefix(t, st, n)
		return st.Recovery()
	}

	t.Run("gap", func(t *testing.T) {
		dir := build(t)
		if err := os.Remove(filepath.Join(dir, "seg-00000002.seg")); err != nil {
			t.Fatalf("remove: %v", err)
		}
		got := reopen(t, dir, 8)
		want := auditstore.Recovery{
			Segments: 4, Records: 8, LastSeq: 8, Truncated: true,
			TruncatedFile: "seg-00000003.seg", TruncatedOffset: magic,
			Reason:         "sequence gap: have 8, next record is 17",
			DroppedRecords: 24,
		}
		checkRecovery(t, got, want)
	})

	t.Run("bad-frame", func(t *testing.T) {
		dir := build(t)
		path := filepath.Join(dir, "seg-00000002.seg")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		off := magic + frameLen(8) + frameLen(9) // the third frame, seq 11
		data[off+3] ^= 0x40
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatalf("write: %v", err)
		}
		got := reopen(t, dir, 10)
		want := auditstore.Recovery{
			Segments: 5, Records: 10, LastSeq: 10, Truncated: true,
			TruncatedFile: "seg-00000002.seg", TruncatedOffset: off,
			Reason:         "crc mismatch",
			DroppedRecords: 24,
			DroppedBytes:   len(data) - off,
		}
		checkRecovery(t, got, want)
	})
}

// checkRecovery compares a Recovery report against want, ignoring the
// list of files normalization rewrote away.
func checkRecovery(t *testing.T, got, want auditstore.Recovery) {
	t.Helper()
	got.RemovedFiles = nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery:\n got %+v\nwant %+v", got, want)
	}
}

// TestReopenedActiveSegmentIndex pins the block index recovery rebuilds
// for an adopted active segment: once appends after the reopen seal
// that segment, its footer must seek every Since bound correctly.
func TestReopenedActiveSegmentIndex(t *testing.T) {
	dir := t.TempDir()
	opts := auditstore.Options{SegmentRecords: 200, CompactSealed: -1}
	st, err := auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fillStore(t, st, 150) // one active segment, indexed every 32 records
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st, err = auditstore.Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	for i := 150; i < 260; i++ { // seals the reopened segment at 200
		if _, err := st.Append(mkRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if sealed, _ := st.SegmentCount(); sealed != 1 {
		t.Fatalf("sealed segments = %d, want 1", sealed)
	}
	for i := 0; i < 200; i += 7 {
		q := auditstore.Query{Since: mkRecord(i).Time}
		var cold int
		stats, err := auditstore.ScanSegments(dir, q, func(auditstore.Record) bool {
			cold++
			return true
		})
		if err != nil {
			t.Fatalf("cold scan: %v", err)
		}
		if i >= 32 && stats.SeekedSegments == 0 {
			t.Fatalf("since record %d: footer not used to seek (%+v)", i, stats)
		}
		if want := 260 - i; cold != want {
			t.Fatalf("since record %d: cold scan %d records, want %d", i, cold, want)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}
