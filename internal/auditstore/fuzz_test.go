package auditstore_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"overhaul/internal/auditstore"
)

// FuzzBinarySegmentDecode pins the v2 binary codec's safety contract:
// DecodeBinarySegment never panics on arbitrary bytes, never reads
// past its input, reports truncation exactly at the consumed offset,
// and whatever it decodes round-trips through the v2 encoder.
func FuzzBinarySegmentDecode(f *testing.F) {
	// Seeds: a valid frame stream, a real sealed segment with footer
	// (written by the store itself), torn tails, flipped bytes, junk.
	valid := append([]byte(nil), auditstore.BinarySegmentMagic()...)
	for i := 0; i < 5; i++ {
		r := mkRecord(i)
		r.Seq = uint64(i + 1)
		frame, err := auditstore.EncodeBinaryRecord(r)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		valid = append(valid, frame...)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn CRC
	f.Add(valid[:9])            // torn first frame
	f.Add(valid[:4])            // torn magic
	f.Add([]byte{})
	f.Add([]byte("not a segment at all"))
	flipped := append([]byte(nil), valid...)
	flipped[len(valid)/2] ^= 0x40
	f.Add(flipped) // bit rot mid-stream
	f.Add(sealedSegmentBytes(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed, trunc := auditstore.DecodeBinarySegment(data)
		if consumed < 0 || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if trunc == nil && consumed != len(data) {
			t.Fatalf("clean decode consumed %d of %d bytes", consumed, len(data))
		}
		if trunc != nil {
			if trunc.Offset != consumed {
				t.Fatalf("truncation offset %d != consumed %d", trunc.Offset, consumed)
			}
			if trunc.Reason == "" {
				t.Fatal("truncation without a reason")
			}
		}

		// v2 round trip: everything decoded re-frames to an identical
		// stream of records.
		reenc := append([]byte(nil), auditstore.BinarySegmentMagic()...)
		for _, r := range recs {
			frame, err := auditstore.EncodeBinaryRecord(r)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
			reenc = append(reenc, frame...)
		}
		again, consumed2, trunc2 := auditstore.DecodeBinarySegment(reenc)
		if trunc2 != nil || consumed2 != len(reenc) || len(again) != len(recs) {
			t.Fatalf("v2 re-decode: %d records %d/%d bytes trunc=%v",
				len(again), consumed2, len(reenc), trunc2)
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("v2 round trip diverged at %d:\n got %+v\nwant %+v", i, again[i], recs[i])
			}
		}

	})
}

// sealedSegmentBytes writes a small store whose first segment gets
// sealed (footer included) and returns that segment's raw bytes.
func sealedSegmentBytes(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	st, err := auditstore.Open(dir, auditstore.Options{SegmentRecords: 4, CompactSealed: -1})
	if err != nil {
		f.Fatalf("open: %v", err)
	}
	for i := 0; i < 6; i++ {
		if _, err := st.Append(mkRecord(i)); err != nil {
			f.Fatalf("append: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatalf("close: %v", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.seg"))
	if err != nil || len(names) == 0 {
		f.Fatalf("glob: %v (%d segments)", err, len(names))
	}
	data, err := os.ReadFile(names[0])
	if err != nil {
		f.Fatalf("read sealed segment: %v", err)
	}
	return data
}

// FuzzRecordRoundTrip pins the encode→decode identity for every valid
// record: whatever fields a record carries, one framed record comes
// back as exactly that record, and its encoding is stable.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(0), uint64(0), 100, "open_device", "grant", "interaction 1s ago", int64(0), false)
	f.Add(uint64(1<<40), int64(1456822800), uint64(7), -5, "", "deny", "reason with \"quotes\" and \n newline", int64(-12345), true)
	f.Add(uint64(0), int64(1), uint64(1), 0, "читать", "?", "", int64(1), false)

	f.Fuzz(func(t *testing.T, seq uint64, tsec int64, session uint64, pid int, op, verdict, reason string, stampSec int64, degraded bool) {
		r := auditstore.Record{
			Seq:      seq,
			Time:     time.Unix(tsec%(1<<33), 0).UTC(),
			Session:  session,
			PID:      pid,
			Op:       op,
			Verdict:  verdict,
			Reason:   reason,
			Stamp:    time.Unix(stampSec%(1<<33), 0).UTC(),
			Degraded: degraded,
		}
		frame, err := auditstore.EncodeBinaryRecord(r)
		if err != nil {
			// Only pids outside the codec's int32 range and oversized
			// payloads are rejected.
			if pid == int(int32(pid)) && len(op)+len(verdict)+len(reason) < auditstore.MaxPayload/2 {
				t.Fatalf("encode rejected a plausible record: %v", err)
			}
			return
		}
		seg := append(auditstore.BinarySegmentMagic(), frame...)
		recs, consumed, trunc := auditstore.DecodeBinarySegment(seg)
		if trunc != nil || consumed != len(seg) || len(recs) != 1 {
			t.Fatalf("decode of one frame: %d records, %d/%d bytes, trunc=%v", len(recs), consumed, len(seg), trunc)
		}
		if recs[0] != r {
			t.Fatalf("round trip diverged:\n got %+v\nwant %+v", recs[0], r)
		}
		frame2, err := auditstore.EncodeBinaryRecord(recs[0])
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(frame, frame2) {
			t.Fatalf("encoding not stable:\n first %q\nsecond %q", frame, frame2)
		}
	})
}
