package auditstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Cold segment scans: query a store directory without opening a
// FileStore (no in-memory index is built, no active segment is
// adopted). The sealed-segment footers drive two prunings a warm Scan
// gets from the memory index: a whole segment whose sentinel
// prefix-maximum time predates a Since bound is skipped without
// decoding a single frame, and within the first segment that straddles
// the bound the block index seeks the starting frame. This is the
// forensics path — overhaul-top -store -cold — where a trail is read
// once and building the full index first would dominate the query.

// ColdStats reports what a ScanSegments pass did.
type ColdStats struct {
	// Segments is the number of segment files seen.
	Segments int `json:"segments"`
	// SkippedSegments counts segments pruned whole by their footer's
	// time bound; SeekedSegments counts segments entered mid-stream
	// through the block index.
	SkippedSegments int `json:"skipped_segments"`
	SeekedSegments  int `json:"seeked_segments"`
	// Records is the number of records decoded (not the number
	// matched); Matched counts records handed to yield.
	Records int `json:"records"`
	Matched int `json:"matched"`
	// Truncated reports damage in the newest-seen file, mirroring the
	// warm path's Recovery report.
	Truncated     bool   `json:"truncated,omitempty"`
	TruncatedFile string `json:"truncated_file,omitempty"`
	Reason        string `json:"reason,omitempty"`
}

// coldSeg is one segment's lazily-decoded cold-scan state.
type coldSeg struct {
	name string
	id   uint64

	data    []byte       // raw bytes, kept when the footer lets us stream
	entries []blockEntry // intact footer index, nil otherwise
	recs    []Record     // eagerly decoded records (segments without footer)
	trunc   *Truncation

	first, last uint64 // sequence range (valid when count > 0)
	count       int
	maxT        int64 // max record-time nanos, math.MinInt64 when unknown/none
}

// loadColdSeg reads one segment file and extracts merge metadata as
// cheaply as the format allows: a sealed v2 segment yields its range
// and time bound from the footer alone; everything else is decoded.
func loadColdSeg(path string, id uint64) (coldSeg, error) {
	s := coldSeg{name: filepath.Base(path), id: id, maxT: math.MinInt64}
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if len(data) >= len(segMagicV2) && string(data[:len(segMagicV2)]) == segMagicV2 {
		if entries := parseFooter(data); len(entries) >= 2 {
			// Sentinel entry: seq is one past the last record, maxBefore
			// is the whole-segment prefix maximum. Intra-segment
			// sequences are contiguous, so the footer alone gives the
			// range without touching a frame.
			sent := entries[len(entries)-1]
			s.data = data
			s.entries = entries
			s.first = entries[0].seq
			s.last = sent.seq - 1
			s.count = int(s.last - s.first + 1)
			s.maxT = sent.maxBefore
			return s, nil
		}
	}
	s.recs, _, s.trunc = DecodeBinarySegment(data)
	if n := len(s.recs); n > 0 {
		s.first, s.last, s.count = s.recs[0].Seq, s.recs[n-1].Seq, n
		for i := range s.recs {
			if tn, ok, err := timeNanos(s.recs[i].Time); ok && err == nil && tn > s.maxT {
				s.maxT = tn
			}
		}
	}
	return s, nil
}

// ScanSegments streams the records of a store directory matching q
// into yield without opening the store, using sealed-segment footers
// to prune and seek (see the package comment above). Merge semantics
// mirror recovery: segments are visited in ascending first-sequence
// order, overlapping records deduplicate to their first occurrence,
// and a sequence gap ends the readable prefix. yield returning false
// stops the scan early.
func ScanSegments(dir string, q Query, yield func(Record) bool) (ColdStats, error) {
	var stats ColdStats
	names, err := os.ReadDir(dir)
	if err != nil {
		return stats, fmt.Errorf("auditstore: cold scan: %w", err)
	}
	var segs []coldSeg
	for _, de := range names {
		if err := checkV1Segment(dir, de.Name()); err != nil {
			return stats, err
		}
		id, ok := parseSegID(de.Name())
		if !ok {
			continue
		}
		s, err := loadColdSeg(filepath.Join(dir, de.Name()), id)
		if err != nil {
			return stats, fmt.Errorf("auditstore: cold scan: %w", err)
		}
		stats.Segments++
		if s.count > 0 || s.trunc != nil {
			segs = append(segs, s)
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		a, b := segs[i], segs[j]
		if a.first != b.first {
			return a.first < b.first
		}
		return a.id < b.id
	})

	sinceN, sinceSet, err := timeNanos(q.Since)
	if err != nil {
		sinceSet = false // out-of-range bound: fall back to plain filtering
	}
	var (
		nextSeq uint64
		stop    bool
	)
	emit := func(r *Record) bool {
		if nextSeq != 0 && r.Seq < nextSeq {
			return true // overlap: first occurrence already emitted
		}
		if nextSeq != 0 && r.Seq > nextSeq {
			stop = true // gap: the trail ends at the last contiguous record
			return false
		}
		nextSeq = r.Seq + 1
		stats.Records++
		if !q.Matches(*r) {
			return true
		}
		stats.Matched++
		if !yield(*r) {
			stop = true
			return false
		}
		if q.Limit > 0 && stats.Matched >= q.Limit {
			stop = true
			return false
		}
		return true
	}
	for _, s := range segs {
		if stop {
			break
		}
		if s.count == 0 {
			if s.trunc != nil {
				stats.Truncated = true
				stats.TruncatedFile = s.name
				stats.Reason = s.trunc.Reason
			}
			continue
		}
		if nextSeq != 0 && s.last < nextSeq {
			continue // fully duplicated by an earlier segment
		}
		if nextSeq != 0 && s.first > nextSeq {
			break // gap between segments: the readable prefix ends
		}
		first := s.first
		if nextSeq != 0 {
			first = nextSeq
		}
		if sinceSet && s.entries != nil && s.maxT < sinceN {
			// Every record in this sealed segment predates the bound:
			// skip it whole, no frame decoded.
			stats.SkippedSegments++
			nextSeq = s.last + 1
			continue
		}
		if s.recs != nil {
			for i := range s.recs {
				if !emit(&s.recs[i]) {
					break
				}
			}
		} else {
			start := len(segMagicV2)
			if sinceSet {
				if off, ok := seekBlock(s.entries, q.Since); ok {
					// The skipped prefix provably predates Since; account
					// for it in the dedup cursor without decoding it.
					start = int(off)
					stats.SeekedSegments++
					// Only ever raise the dedup cursor: an overlapping
					// earlier segment may already have emitted past the
					// block boundary we seeked to.
					if bs := blockFirstSeq(s.entries, off, first); bs > nextSeq {
						nextSeq = bs
					}
				}
			}
			_, trunc := streamFrames(s.data, start, nil, func(r *Record, _ int) bool {
				return emit(r)
			})
			if trunc != nil {
				// A sealed footer was intact at load time; damage here
				// means the file changed under us. Surface it.
				stats.Truncated = true
				stats.TruncatedFile = s.name
				stats.Reason = trunc.Reason
				break
			}
		}
		if !stop && s.trunc != nil {
			stats.Truncated = true
			stats.TruncatedFile = s.name
			stats.Reason = s.trunc.Reason
		}
	}
	return stats, nil
}

// blockFirstSeq returns the sequence number of the first frame at byte
// offset off per the block index, falling back to first when the
// offset is not an indexed block boundary.
func blockFirstSeq(entries []blockEntry, off uint64, first uint64) uint64 {
	for _, e := range entries {
		if e.off == off {
			return e.seq
		}
	}
	return first
}

// SegmentsNewest returns the newest record time in a store directory,
// reading only footers where possible — what a relative -since bound
// (e.g. "5m") is anchored to on the cold path.
func SegmentsNewest(dir string) (time.Time, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return time.Time{}, fmt.Errorf("auditstore: cold scan: %w", err)
	}
	newest := int64(math.MinInt64)
	for _, de := range names {
		if err := checkV1Segment(dir, de.Name()); err != nil {
			return time.Time{}, err
		}
		id, ok := parseSegID(de.Name())
		if !ok {
			continue
		}
		s, err := loadColdSeg(filepath.Join(dir, de.Name()), id)
		if err != nil {
			return time.Time{}, fmt.Errorf("auditstore: cold scan: %w", err)
		}
		if s.maxT > newest {
			newest = s.maxT
		}
	}
	if newest == math.MinInt64 {
		return time.Time{}, nil
	}
	return time.Unix(0, newest).UTC(), nil
}
