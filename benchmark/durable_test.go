package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/monitor"
)

// TestDurableLogAcksAfterFsync appends through enough rotations and
// compactions to move the active segment several times, and checks
// that every append got its own segment and directory fsync, that the
// segment fsynced is the file that holds the record, and that no ack
// was recorded before its fsyncs returned.
func TestDurableLogAcksAfterFsync(t *testing.T) {
	const n = auditstore.DefaultSegmentRecords*(auditstore.DefaultCompactSealed+2) + 17
	st, err := auditstore.Open(t.TempDir(), auditstore.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDurableLog(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	record := func(i int) auditstore.Record {
		return auditstore.Record{
			Seq: uint64(i + 1), Time: time.Unix(1_700_000_000+int64(i), 0).UTC(), PID: 100 + i%7,
			Op: string(monitor.OpMic), Verdict: monitor.VerdictDeny.String(), Reason: monitor.ReasonNoInteraction,
		}
	}
	var synced []time.Time // return instant of every fsync, in order
	var names []string
	var misplaced []string
	var enc auditstore.FrameEncoder
	d.syncFile = func(f *os.File) error {
		if len(names)%2 == 0 {
			// A segment fsync: the file must hold the record just
			// appended, whose frame the store wrote byte for byte.
			i := len(names) / 2
			r := record(i)
			frame, err := enc.AppendRecord(nil, &r)
			if err != nil {
				return err
			}
			body, err := os.ReadFile(f.Name())
			if err != nil {
				return err
			}
			if !bytes.Contains(body, frame) {
				misplaced = append(misplaced, fmt.Sprintf("seq %d in %s", i+1, filepath.Base(f.Name())))
			}
		}
		err := f.Sync()
		synced = append(synced, wallNow())
		names = append(names, f.Name())
		return err
	}
	for i := 0; i < n; i++ {
		r := record(i)
		r.Seq = 0
		seq, err := d.Append(r)
		if err != nil || seq != uint64(i+1) {
			t.Fatalf("append %d = %d, %v", i, seq, err)
		}
	}
	if err := d.awaitAcks(); err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if d.fsyncs != n || len(d.acks) != n || len(synced) != 2*n {
		t.Fatalf("%d appends: %d fsync pairs, %d acks, %d fsync calls", n, d.fsyncs, len(d.acks), len(synced))
	}
	for i, ack := range d.acks {
		if ack.Before(synced[2*i+1]) {
			t.Fatalf("record %d acked at %v, before its directory fsync returned at %v", i+1, ack, synced[2*i+1])
		}
		if names[2*i+1] != st.Dir() {
			t.Fatalf("record %d: second fsync was %s, want the store directory", i+1, names[2*i+1])
		}
	}
	segs := map[string]bool{}
	for i := 0; i < len(names); i += 2 {
		segs[names[i]] = true
	}
	if len(segs) < 2 || d.compacts == 0 {
		t.Errorf("segment fsyncs covered %d files with %d compactions; the active segment never moved", len(segs), d.compacts)
	}
	if len(misplaced) > 0 {
		t.Errorf("%d records fsynced in a segment that does not hold them, first: %s", len(misplaced), misplaced[0])
	}
	if got, err := st.Count(); err != nil || got != n {
		t.Errorf("store holds %d records (%v), want %d", got, err, n)
	}
}
