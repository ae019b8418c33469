package auditstore_test

import (
	"math/rand"
	"testing"
	"time"

	"overhaul/internal/auditstore"
)

// TestBackendEquivalence pins the two backends to each other: the same
// appended stream answers every query identically whether it sits in
// the indexed in-memory store or in JSONL segments on disk — including
// after the segments have been rotated, compacted, and reopened. This
// mirrors the fleet ≡ standalone property-test style: one oracle, one
// system under test, a seeded input space, and a filter grid.
func TestBackendEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 500
	ops := []string{"open_device", "read_screen", "inject_input", "grab_keyboard"}
	verdicts := []string{"grant", "deny"}
	reasons := []string{
		"interaction 1s ago",
		"no recent interaction",
		"stamp expired",
		"forced by policy",
	}

	mem := auditstore.NewMemStore()
	dir := t.TempDir()
	file, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16, CompactSealed: 3})
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	for i := 0; i < n; i++ {
		// Times mostly ascend but occasionally step back, so the
		// time-ordered fast path and the fallback scan both run.
		step := time.Duration(rng.Intn(200)-10) * time.Millisecond
		r := auditstore.Record{
			Time:    testBase.Add(time.Duration(i)*100*time.Millisecond + step),
			Session: uint64(rng.Intn(4)),
			PID:     1 + rng.Intn(10),
			Op:      ops[rng.Intn(len(ops))],
			Verdict: verdicts[rng.Intn(len(verdicts))],
			Reason:  reasons[rng.Intn(len(reasons))],
		}
		if rng.Intn(3) == 0 {
			r.Stamp = r.Time.Add(-time.Duration(rng.Intn(5)) * time.Second)
		}
		if _, err := mem.Append(r); err != nil {
			t.Fatalf("mem append %d: %v", i, err)
		}
		if _, err := file.Append(r); err != nil {
			t.Fatalf("file append %d: %v", i, err)
		}
	}

	queries := []auditstore.Query{
		{},
		{PID: 3},
		{PID: 99},
		{Verdict: "deny"},
		{Verdict: "grant"},
		{Verdict: "unknown"},
		{Reason: "interaction"},
		{Reason: "expired"},
		{Session: 2},
		{Since: testBase.Add(20 * time.Second)},
		{Until: testBase.Add(30 * time.Second)},
		{Since: testBase.Add(10 * time.Second), Until: testBase.Add(40 * time.Second)},
		{Until: testBase.Add(3 * time.Second)},
		{Since: testBase.Add(24 * time.Second), Until: testBase.Add(26 * time.Second)},
		{Since: testBase.Add(48 * time.Second), Until: testBase.Add(time.Hour)},
		{Since: testBase.Add(24 * time.Second), Until: testBase.Add(26 * time.Second), Verdict: "deny"},
		{PID: 5, Verdict: "deny"},
		{PID: 5, Verdict: "deny", Reason: "no recent", Session: 1},
		{Verdict: "grant", Since: testBase.Add(25 * time.Second), Limit: 17},
		{Limit: 1},
		{Limit: 499},
	}

	compare := func(t *testing.T, label string, st auditstore.Store) {
		t.Helper()
		for qi, q := range queries {
			want, err := auditstore.ScanAll(mem, q)
			if err != nil {
				t.Fatalf("oracle scan %d: %v", qi, err)
			}
			got, err := auditstore.ScanAll(st, q)
			if err != nil {
				t.Fatalf("%s scan %d: %v", label, qi, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %d (%+v): %d records, oracle %d", label, qi, q, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s query %d record %d:\n got %+v\nwant %+v", label, qi, i, got[i], want[i])
				}
			}
		}
	}

	compare(t, "jsonl", file)
	if err := file.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	reopened, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 16, CompactSealed: 3})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close() //overhaul:allow errdrop test cleanup
	if rec := reopened.Recovery(); !rec.Clean || rec.Records != n {
		t.Fatalf("reopen recovery = %+v, want clean %d records", rec, n)
	}
	compare(t, "jsonl-reopened", reopened)
}
