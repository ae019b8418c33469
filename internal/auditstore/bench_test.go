package auditstore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"overhaul/internal/auditstore"
)

// Per-scale benchmark tables in the crumbs style (SNIPPETS.md Snippet
// 2): every operation at 10/100/1k/10k records for both backends, so
// BENCH_overhaul.json records how each scales and bench-compare blocks
// regressions at any scale, not just the one a change happened to be
// tuned on. File-backed rows run with Sync off: the tables measure the
// store, not the filesystem.
var benchScales = [...]int{10, 100, 1000, 10000}

// benchStore builds a prefilled store of the given backend and size.
func benchStore(b *testing.B, backend string, n int) auditstore.Store {
	b.Helper()
	var st auditstore.Store
	if backend == "mem" {
		st = auditstore.NewMemStore()
	} else {
		fs, err := auditstore.Open(b.TempDir(), auditstore.Options{})
		if err != nil {
			b.Fatalf("open: %v", err)
		}
		st = fs
	}
	for i := 0; i < n; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			b.Fatalf("prefill %d: %v", i, err)
		}
	}
	// Settle the heap before the timer starts: these loops are short
	// (sub-µs ops × 2000 iterations), so whether a GC cycle lands inside
	// the timed region otherwise dominates run-to-run variance.
	runtime.GC()
	return st
}

func BenchmarkStoreAppend(b *testing.B) {
	for _, backend := range []string{"mem", "jsonl"} {
		for _, n := range benchScales {
			b.Run(fmt.Sprintf("%s/%d", backend, n), func(b *testing.B) {
				st := benchStore(b, backend, n)
				defer st.Close() //overhaul:allow errdrop bench cleanup
				recs := make([]auditstore.Record, b.N)
				for i := range recs {
					recs[i] = mkRecord(n + i)
				}
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := st.Append(recs[i]); err != nil {
						b.Fatalf("append: %v", err)
					}
				}
			})
		}
	}
}

func BenchmarkStoreGet(b *testing.B) {
	for _, backend := range []string{"mem", "jsonl"} {
		for _, n := range benchScales {
			b.Run(fmt.Sprintf("%s/%d", backend, n), func(b *testing.B) {
				st := benchStore(b, backend, n)
				defer st.Close() //overhaul:allow errdrop bench cleanup
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					seq := uint64(i%n) + 1
					if _, ok, err := st.Get(seq); !ok || err != nil {
						b.Fatalf("get %d: ok=%v err=%v", seq, ok, err)
					}
				}
			})
		}
	}
}

// BenchmarkStoreEncodeV2 measures one record through the v2 binary
// frame encoder into a reused buffer — the per-record cost inside a
// group commit. The 0-alloc figure is load-bearing: overhaul-benchjson
// hard-gates it, because one allocation here multiplies across every
// record the fleet ever appends.
func BenchmarkStoreEncodeV2(b *testing.B) {
	recs := make([]auditstore.Record, 64)
	for i := range recs {
		recs[i] = mkRecord(i)
		recs[i].Seq = uint64(i + 1)
	}
	var enc auditstore.FrameEncoder
	buf := make([]byte, 0, 1<<12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = enc.AppendRecord(buf[:0], &recs[i%len(recs)])
		if err != nil {
			b.Fatalf("encode: %v", err)
		}
	}
}

// BenchmarkStoreScanSince measures time-bounded queries. The tail
// row is the "what happened in the last minute" shape: the since bound
// lands 90% into the stream, so a seek (binary search on the
// time-ordered index) touches ~10% of the records a full pass would.
// The window row is a forensic Since/Until window over 1% of the
// stream (at least one record) in its middle: both ends are seeks, so
// it touches only the window.
func BenchmarkStoreScanSince(b *testing.B) {
	for _, backend := range []string{"mem", "jsonl"} {
		for _, n := range benchScales {
			tail := auditstore.Query{Since: mkRecord(n * 9 / 10).Time, Verdict: "deny"}
			benchScan(b, fmt.Sprintf("%s/%d", backend, n), backend, n, tail)
			window := auditstore.Query{Since: mkRecord(n / 2).Time, Until: mkRecord(n/2 + max(1, n/100)).Time}
			benchScan(b, fmt.Sprintf("%s/%d/window", backend, n), backend, n, window)
		}
	}
}

// benchScan runs one Scan sub-benchmark of q over a prefilled store.
func benchScan(b *testing.B, name, backend string, n int, q auditstore.Query) {
	b.Run(name, func(b *testing.B) {
		st := benchStore(b, backend, n)
		defer st.Close() //overhaul:allow errdrop bench cleanup
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			matched := 0
			err := st.Scan(q, func(auditstore.Record) bool {
				matched++
				return true
			})
			if err != nil || matched == 0 {
				b.Fatalf("scan %+v: matched=%d err=%v", q, matched, err)
			}
		}
	})
}

func BenchmarkStoreScan(b *testing.B) {
	// Scan measures a full filtered pass: the deny posting list (~1/3
	// of records) plus a reason substring check — the shape an
	// overhaul-top triage query takes.
	q := auditstore.Query{Verdict: "deny", Reason: "recent"}
	for _, backend := range []string{"mem", "jsonl"} {
		for _, n := range benchScales {
			benchScan(b, fmt.Sprintf("%s/%d", backend, n), backend, n, q)
		}
	}
}

// writeHistory fills dir with records 0..n-1 of the mkRecord stream,
// written through AppendBatch in 256-record batches with default
// options — the shape of a long-lived store.
func writeHistory(tb testing.TB, dir string, n int) {
	tb.Helper()
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	batch := make([]auditstore.Record, 0, 256)
	for i := 0; i < n; i++ {
		batch = append(batch, mkRecord(i))
		if len(batch) == cap(batch) || i == n-1 {
			if _, err := st.AppendBatch(batch); err != nil {
				tb.Fatalf("append batch at %d: %v", i, err)
			}
			batch = batch[:0]
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatalf("close: %v", err)
	}
}

// openHistory cold-opens dir and checks it recovered n records cleanly.
func openHistory(tb testing.TB, dir string, n int) *auditstore.FileStore {
	tb.Helper()
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		tb.Fatalf("open: %v", err)
	}
	if rec := st.Recovery(); !rec.Clean || rec.Records != n {
		tb.Fatalf("recovery = %+v, want %d records, clean", rec, n)
	}
	return st
}

// BenchmarkStoreOpen measures a cold Open (directory scan, recovery,
// index build) per history size, and reports the heap the opened store
// keeps per record. Each Open starts from a collected heap: os.ReadDir
// draws its buffer from a sync.Pool that a GC empties, so without the
// collection allocs/op would vary with where the previous iteration's
// GC cycles fell (by up to 4 per Open).
func BenchmarkStoreOpen(b *testing.B) {
	for _, n := range [...]int{1000, 10000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			dir := b.TempDir()
			writeHistory(b, dir, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				runtime.GC()
				runtime.GC() // the second pass clears the pools' victim caches
				b.StartTimer()
				openHistory(b, dir, n).Close() //overhaul:allow errdrop bench cleanup
			}
			b.StopTimer()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			st := openHistory(b, dir, n)
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(n), "heapB/record")
			st.Close() //overhaul:allow errdrop bench cleanup
		})
	}
}

// BenchmarkStoreFill measures filling a fresh default-options store
// with n records through 256-record AppendBatch, compaction included,
// and reports the amortized cost per record. Size-tiered compaction
// rewrites each record O(log n) times, so that cost should stay within
// 2× from 10^4 to 10^5 records.
func BenchmarkStoreFill(b *testing.B) {
	for _, n := range [...]int{10000, 100000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			root := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A collected heap and empty pools make allocs/op repeat
				// exactly (see BenchmarkStoreOpen).
				b.StopTimer()
				runtime.GC()
				runtime.GC()
				dir := filepath.Join(root, fmt.Sprint(i))
				b.StartTimer()
				writeHistory(b, dir, n)
				b.StopTimer()
				if err := os.RemoveAll(dir); err != nil {
					b.Fatalf("remove: %v", err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}
