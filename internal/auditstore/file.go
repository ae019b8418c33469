package auditstore

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/faultinject"
)

// Segment files are named seg-<8 hex file id>.seg (binary format v2).
// Releases before v2 wrote seg-<id>.jsonl; those are no longer read,
// and a directory still holding one fails to open (see checkV1Segment)
// rather than silently losing the history it holds.
// The id is a monotonically increasing file counter, *not* a sequence
// number: compaction writes merged records into a fresh, higher id so
// its output can never collide with a source file, and recovery orders
// overlapping segments by (first sequence, id). Compaction staging
// uses a ".tmp" suffix; a leftover tmp file is a crashed compaction
// and is discarded on open.
const (
	segPrefix = "seg-"
	segSuffix = ".seg"
	tmpSuffix = ".tmp"
	v1Suffix  = ".jsonl"
)

// Options parameterises a FileStore.
type Options struct {
	// SegmentRecords rotates the active segment after this many
	// records. Zero selects DefaultSegmentRecords.
	SegmentRecords int
	// CompactSealed is F, the fan-in of size-tiered auto-compaction. A
	// sealed segment of recs records sits at level
	// ⌊log_F(recs/SegmentRecords)⌋. After each rotation, once the newest
	// F sealed segments share a level, that trailing run is merged into
	// one segment; the run extends backwards while its output would
	// itself complete a run of F at the next level, so a cascade is one
	// write. Over N records each record is rewritten at most
	// ⌈log_F(N/SegmentRecords)⌉ times, and at most (F−1)·(levels+1)
	// segments are sealed. Zero selects DefaultCompactSealed; one acts
	// as two, the smallest merge; negative disables automatic
	// compaction.
	CompactSealed int
	// BatchRecords caps how many queued appends one group commit may
	// drain into a single segment write. Zero selects
	// DefaultBatchRecords.
	BatchRecords int
	// BatchBytes caps the encoded size of one group-commit batch.
	// Zero selects DefaultBatchBytes.
	BatchBytes int
	// FlushInterval makes the commit leader linger up to this long on
	// the store clock before cutting a short batch, trading ack
	// latency for batch size under concurrent load. Zero commits as
	// soon as the queue is drained into a batch. The linger busy-yields
	// on the virtual clock, so simulated-clock tests must advance the
	// clock from another goroutine.
	FlushInterval time.Duration
	// Clock is the time source for FlushInterval. Nil selects the
	// system clock.
	Clock clock.Clock
	// Hook is the fault-injection hook consulted at every write seam
	// (append, batch commit, rotation, compaction). Nil never injects.
	// Recovery (Open) runs fault-free by construction: reopening is the
	// repair path, and a repair path that can be re-broken mid-repair
	// would turn every injected crash into an unbounded crash loop.
	Hook faultinject.Hook
	// Sync fsyncs segment data at rotation, compaction, and Close.
	Sync bool
}

// Defaults for Options.
const (
	DefaultSegmentRecords = 256
	DefaultCompactSealed  = 8
	DefaultBatchRecords   = 256
	DefaultBatchBytes     = 1 << 20
)

// Recovery reports what Open found and did. A store that came back
// with anything other than a clean, contiguous, CRC-verified stream
// says so here — never a silent gap.
type Recovery struct {
	// Segments is the number of segment files scanned.
	Segments int
	// Records is the size of the recovered consistent prefix.
	Records int
	// LastSeq is the last sequence number in the recovered prefix.
	LastSeq uint64
	// Clean reports a perfectly ordinary open: contiguous stream, no
	// torn bytes, no leftovers.
	Clean bool
	// Truncated reports that data present in the directory was
	// discarded to reach a consistent prefix.
	Truncated bool
	// TruncatedFile and TruncatedOffset locate the first discarded
	// byte when Truncated.
	TruncatedFile   string
	TruncatedOffset int
	// Reason says why the prefix ends where it does ("" when clean).
	Reason string
	// DroppedRecords counts decodable records discarded (beyond a
	// sequence gap); DroppedBytes counts undecodable tail bytes.
	DroppedRecords int
	DroppedBytes   int
	// RemovedFiles lists tmp leftovers and damaged or duplicate
	// segments that normalization rewrote away.
	RemovedFiles []string
}

// segmentInfo is one on-disk segment's bookkeeping.
type segmentInfo struct {
	id    uint64
	path  string
	recs  int
	bytes int // file size, which presizes a merge's output buffer
}

// FileStore is the durable backend: an append-only binary segment log
// with a MemStore in front of it as the query index. Concurrent
// appends are group-committed: callers enqueue under the store mutex,
// the first-comer becomes the commit leader and drains the queue into
// one framed segment write per batch, and an append is acknowledged
// only when its batch is durable. Writes go to the segment first and
// the index second, so the index only ever reflects durable records.
// After a torn write or an injected crash every operation fails with
// ErrStoreFailed until the directory is reopened: Open replays the
// segments to a consistent, CRC-verified prefix and reports the exact
// truncation point. It is safe for concurrent use.
type FileStore struct {
	// mu guards the queue/acknowledgement state below and the Recovery
	// report; commitDone is signalled on batch durability, failure,
	// and leadership release.
	mu         sync.Mutex
	commitDone sync.Cond
	queue      []Record
	queueBytes int
	// lingering marks a leader asleep in lingerLocked on a real timer;
	// lingerWake (buffered, capacity 1) wakes it early on enqueue or
	// Close so the linger never outlives the reason for it.
	lingering  bool
	lingerWake chan struct{}
	lastSeq    uint64 // last assigned sequence number
	durableSeq uint64 // last durably committed sequence number
	committing bool   // a commit leader (or exclusive op) owns the file state
	failed     error
	closed     bool
	stats      BatchStats

	dir      string
	opts     Options
	mem      *MemStore
	recovery Recovery

	// File state below is owned by whichever goroutine holds
	// committing (the group-commit leader, Compact, Close) and by Open
	// before the store is published — never accessed under mu alone.
	cur       *os.File
	curID     uint64
	curRecs   int
	curOff    uint64       // bytes written to the active segment
	curIdx    []blockEntry // sparse block index of the active segment
	curMax    int64        // max record-time nanos seen in the active segment
	sealed    []segmentInfo
	nextID    uint64
	enc       FrameEncoder
	wbuf      []byte // reusable batch write buffer
	frameOffs []int  // reusable per-batch frame offsets into wbuf
	batch     []Record
}

// Open opens (creating if needed) a store directory, recovering it to
// a consistent state: tmp leftovers are discarded, segments are merged
// in sequence order with compaction overlaps deduplicated, and the
// stream is cut at the first torn frame, CRC mismatch, or sequence gap.
// When anything had to be discarded, the surviving prefix is rewritten
// into a fresh segment and the damaged files removed, so a second open
// is clean; the Recovery report (FileStore.Recovery) records exactly
// what was found.
func Open(dir string, opts Options) (*FileStore, error) {
	if opts.SegmentRecords == 0 {
		opts.SegmentRecords = DefaultSegmentRecords
	}
	if opts.SegmentRecords < 0 {
		return nil, fmt.Errorf("auditstore: negative segment size %d", opts.SegmentRecords)
	}
	switch opts.CompactSealed {
	case 0:
		opts.CompactSealed = DefaultCompactSealed
	case 1:
		opts.CompactSealed = 2
	}
	if opts.BatchRecords <= 0 {
		opts.BatchRecords = DefaultBatchRecords
	}
	if opts.BatchBytes <= 0 {
		opts.BatchBytes = DefaultBatchBytes
	}
	if opts.Clock == nil {
		opts.Clock = clock.System{}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("auditstore: open %s: %w", dir, err)
	}
	fs := &FileStore{dir: dir, opts: opts, mem: NewMemStore(), nextID: 1, curMax: math.MinInt64,
		lingerWake: make(chan struct{}, 1)}
	fs.commitDone.L = &fs.mu
	if err := fs.recover(); err != nil {
		return nil, err
	}
	fs.lastSeq = fs.mem.LastSeq()
	fs.durableSeq = fs.lastSeq
	return fs, nil
}

// Dir returns the store directory. dir is immutable after Open, but
// taking the lock keeps the guarded-field contract uniform.
func (fs *FileStore) Dir() string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.dir
}

// Recovery returns the report of the Open that produced this store.
func (fs *FileStore) Recovery() Recovery {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.recovery
}

// segPath renders the segment file path for a file id: the id in hex,
// zero-padded to 8 digits. It formats without fmt, whose printer pool
// a GC empties, so a fill's allocation count does not depend on where
// its GC cycles fall.
func (fs *FileStore) segPath(id uint64) string {
	var buf [32]byte
	name := append(buf[:0], segPrefix...)
	for shift := 28; shift > 0 && id>>shift == 0; shift -= 4 {
		name = append(name, '0')
	}
	name = strconv.AppendUint(name, id, 16)
	name = append(name, segSuffix...)
	return filepath.Join(fs.dir, string(name))
}

// parseSegID extracts the file id from a segment file name.
func parseSegID(name string) (id uint64, ok bool) {
	rest, ok := strings.CutPrefix(name, segPrefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, segSuffix)
	if !ok || len(rest) != 8 {
		return 0, false
	}
	id, err := strconv.ParseUint(rest, 16, 64)
	return id, err == nil
}

// checkV1Segment fails for a v1 JSONL segment file name: its records
// can no longer be decoded, and skipping the file would open the
// store with a silent hole where that history was.
func checkV1Segment(dir, name string) error {
	if strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, v1Suffix) {
		return fmt.Errorf("auditstore: %s holds v1 JSONL segment %s, which this release no longer reads; compact the directory with an earlier release first",
			dir, name)
	}
	return nil
}

// replaySeg is one segment file during recovery.
type replaySeg struct {
	id     uint64
	path   string
	data   []byte // released once the segment has been streamed
	size   int
	first  uint64 // sequence of the first decodable frame; ^0 when none
	sealed bool   // carries an intact footer
	recs   int    // frames decoded, duplicates and dropped ones included
	trunc  *Truncation
}

// recover scans the directory and rebuilds a consistent store state in
// one streaming pass: every frame of every segment is CRC-checked and
// decoded exactly once, straight into the index.
func (fs *FileStore) recover() error {
	entries, err := os.ReadDir(fs.dir)
	if err != nil {
		return fmt.Errorf("auditstore: recover %s: %w", fs.dir, err)
	}
	rec := &fs.recovery
	tab := new(internTable)
	var segs []replaySeg
	capHint := 0
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// A crashed compaction's staging file: its contents were
			// never part of the published stream.
			path := filepath.Join(fs.dir, name)
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("auditstore: recover %s: %w", fs.dir, err)
			}
			rec.RemovedFiles = append(rec.RemovedFiles, name)
			continue
		}
		if err := checkV1Segment(fs.dir, name); err != nil {
			return err
		}
		id, ok := parseSegID(name)
		if !ok {
			continue // not ours; leave foreign files alone
		}
		seg := replaySeg{id: id, path: filepath.Join(fs.dir, name), first: ^uint64(0)}
		if seg.data, err = os.ReadFile(seg.path); err != nil {
			return fmt.Errorf("auditstore: recover %s: %w", fs.dir, err)
		}
		seg.size = len(seg.data)
		// The first frame orders the segment; the footer, when intact,
		// sizes the index. Neither is trusted beyond that: every frame
		// is still CRC- and sequence-checked below.
		streamSegment(seg.data, tab, func(r *Record, _ int) bool {
			seg.first = r.Seq
			return false
		})
		// Capacity hint: a sealed footer's record count, an unsealed
		// segment's rotation limit, each capped by what the file's size
		// can hold, so a lying footer cannot force a huge allocation.
		n := seg.size / minFrameLen
		hint := uint64(fs.opts.SegmentRecords)
		if footer := parseFooter(seg.data); footer != nil {
			seg.sealed = true
			if len(footer) >= 2 {
				hint = footer[len(footer)-1].seq - footer[0].seq
			}
		}
		if hint < uint64(n) {
			n = int(hint)
		}
		capHint += n
		segs = append(segs, seg)
		if id >= fs.nextID {
			fs.nextID = id + 1
		}
	}
	rec.Segments = len(segs)
	// Order by (first sequence, file id): compaction output overlaps
	// its sources at the same sequences but carries a higher id.
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].first != segs[j].first {
			return segs[i].first < segs[j].first
		}
		return segs[i].id < segs[j].id
	})

	if !fs.replay(segs, capHint, tab) {
		return fs.normalize(segs)
	}
	// Clean open: adopt the layout as it stands. The newest segment
	// stays active if it is unsealed (no footer) and has room;
	// everything else is sealed.
	for i, seg := range segs {
		if i == len(segs)-1 && !seg.sealed && seg.recs < fs.opts.SegmentRecords {
			f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("auditstore: recover %s: %w", fs.dir, err)
			}
			fs.cur, fs.curID, fs.curRecs = f, seg.id, seg.recs
			fs.curOff = uint64(seg.size)
			continue
		}
		fs.sealed = append(fs.sealed, segmentInfo{id: seg.id, path: seg.path, recs: seg.recs, bytes: seg.size})
	}
	return nil
}

// replay streams the ordered segments into the index under one lock,
// merging them into the longest contiguous, verified prefix, and fills
// in the Recovery report. The index is presized to capHint records.
// The newest segment's block index is built on the way, in case it is
// adopted as the active segment. replay reports whether the directory
// was clean.
func (fs *FileStore) replay(segs []replaySeg, capHint int, tab *internTable) bool {
	rec := &fs.recovery
	m := fs.mem
	m.mu.Lock()
	defer m.mu.Unlock()
	m.recs = make([]Record, 0, capHint)
	anomaly := len(rec.RemovedFiles) > 0
	var next uint64
	stopped := false
	fs.curIdx, fs.curMax = fs.curIdx[:0], math.MinInt64
	for si := range segs {
		seg := &segs[si]
		newest := si == len(segs)-1
		_, seg.trunc = streamSegment(seg.data, tab, func(r *Record, off int) bool {
			if newest && seg.recs%indexEvery == 0 {
				fs.curIdx = append(fs.curIdx, blockEntry{seq: r.Seq, off: uint64(off), maxBefore: fs.curMax})
			}
			seg.recs++
			if newest {
				if tn, ok, err := timeNanos(r.Time); ok && err == nil && tn > fs.curMax {
					fs.curMax = tn
				}
			}
			switch {
			case stopped:
				rec.DroppedRecords++
			case next == 0 || r.Seq == next:
				if next == 0 {
					m.base = r.Seq // the stream starts wherever retention left it
				}
				m.indexLocked(r)
				next = r.Seq + 1
			case r.Seq < next:
				// Overlap from an interrupted compaction cleanup: the
				// record is already in the prefix.
				anomaly = true
			default:
				stopped = true
				anomaly = true
				rec.Truncated = true
				rec.TruncatedFile = filepath.Base(seg.path)
				rec.TruncatedOffset = off
				rec.Reason = fmt.Sprintf("sequence gap: have %d, next record is %d", next-1, r.Seq)
				rec.DroppedRecords++
			}
			return true
		})
		seg.data = nil
		if seg.trunc != nil {
			anomaly = true
			rec.DroppedBytes += seg.size - seg.trunc.Offset
			if !stopped {
				// The first damage defines the truncation point; frames
				// beyond it (in later segments) fall to the gap rule.
				rec.Truncated = true
				rec.TruncatedFile = filepath.Base(seg.path)
				rec.TruncatedOffset = seg.trunc.Offset
				rec.Reason = seg.trunc.Reason
				stopped = !newest
			}
		}
		if seg.recs == 0 && seg.trunc == nil && !newest {
			// An empty segment that is not the newest: a crash window
			// between creating the active file and first writing to it,
			// later superseded. Harmless, but normalize it away.
			anomaly = true
		}
	}
	// The presize hint overshoots whenever an unsealed segment holds
	// fewer records than its rotation limit, or compaction output
	// overlaps its sources. Moving the finished index into an
	// exact-size array drops that slack; on the machine measured it
	// also makes the queries that follow faster (DESIGN.md §15).
	m.recs = append([]Record(nil), m.recs...)
	rec.Records = len(m.recs)
	if next > 0 {
		rec.LastSeq = next - 1
	}
	rec.Clean = !anomaly
	return rec.Clean
}

// normalize rewrites the recovered prefix into one fresh segment and
// removes every older file, so the directory decodes cleanly next
// time. Runs fault-free (see Options.Hook).
func (fs *FileStore) normalize(old []replaySeg) error {
	n, err := fs.mem.Count()
	if err != nil {
		return err
	}
	if n > 0 {
		id := fs.nextID
		fs.nextID++
		path := fs.segPath(id)
		size := 0
		for _, seg := range old {
			size += seg.size
		}
		written, err := fs.writeSegment(path, 0, n, size)
		if err != nil {
			return fmt.Errorf("auditstore: normalize %s: %w", fs.dir, err)
		}
		fs.sealed = append(fs.sealed, segmentInfo{id: id, path: path, recs: n, bytes: written})
	}
	for _, seg := range old {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("auditstore: normalize %s: %w", fs.dir, err)
		}
		fs.recovery.RemovedFiles = append(fs.recovery.RemovedFiles, filepath.Base(seg.path))
	}
	return nil
}

// encodeRange renders index records [from, to) as one complete sealed
// v2 segment (header, frames, footer with block index) in memory,
// under one read lock of the index and into a buffer presized to
// sizeHint bytes, the summed size of the files it replaces. Only the
// recovery and compaction paths use it; the append hot path streams
// through the reusable group-commit buffers instead.
func (fs *FileStore) encodeRange(from, to, sizeHint int) ([]byte, error) {
	m := fs.mem
	m.mu.RLock()
	defer m.mu.RUnlock()
	if from < 0 || from > to || to > len(m.recs) {
		return nil, fmt.Errorf("segment stage: records [%d, %d) outside the %d-record index", from, to, len(m.recs))
	}
	buf := append(make([]byte, 0, max(sizeHint, len(segMagicV2))), segMagicV2...)
	var enc FrameEncoder
	entries := make([]blockEntry, 0, (to-from+indexEvery-1)/indexEvery+1)
	maxSoFar := int64(math.MinInt64)
	lastSeq := uint64(0)
	for i := from; i < to; i++ {
		r := &m.recs[i]
		if (i-from)%indexEvery == 0 {
			entries = append(entries, blockEntry{seq: r.Seq, off: uint64(len(buf)), maxBefore: maxSoFar})
		}
		var err error
		if buf, err = enc.AppendRecord(buf, r); err != nil {
			return nil, err
		}
		if tn, ok, err := timeNanos(r.Time); ok && err == nil && tn > maxSoFar {
			maxSoFar = tn
		}
		lastSeq = r.Seq
	}
	entries = append(entries, blockEntry{seq: lastSeq + 1, off: uint64(len(buf)), maxBefore: maxSoFar})
	return appendFooter(buf, entries), nil
}

// writeSegment stages records [from, to) of the index into path via a
// tmp file and an atomic rename, and returns the bytes written.
func (fs *FileStore) writeSegment(path string, from, to, sizeHint int) (int, error) {
	buf, err := fs.encodeRange(from, to, sizeHint)
	if err != nil {
		return 0, err
	}
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close() //overhaul:allow errdrop best-effort close before reporting the write failure
		return 0, err
	}
	if fs.opts.Sync {
		if err := f.Sync(); err != nil {
			f.Close() //overhaul:allow errdrop best-effort close before reporting the sync failure
			return 0, err
		}
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return len(buf), os.Rename(tmp, path)
}

// failLocked marks the store broken. Every later operation repeats the
// failure until the directory is reopened. Callers hold mu and own the
// file state (they are the commit leader or an exclusive op), so
// releasing the active handle here is race-free.
func (fs *FileStore) failLocked(cause error) error {
	fs.failed = fmt.Errorf("%w: %v", ErrStoreFailed, cause)
	if fs.cur != nil {
		fs.cur.Close() //overhaul:allow errdrop the store is already failed; the handle is released best-effort
		fs.cur = nil
	}
	return fs.failed
}

// checkLocked returns the standing failure, if any.
func (fs *FileStore) checkLocked() error {
	if fs.closed {
		return ErrClosed
	}
	return fs.failed
}

// openActive creates a fresh active segment file and writes its
// header. Leader-owned.
func (fs *FileStore) openActive() error {
	id := fs.nextID
	path := fs.segPath(id)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("create segment: %w", err)
	}
	if _, err := f.WriteString(segMagicV2); err != nil {
		f.Close() //overhaul:allow errdrop best-effort close before reporting the header write failure
		return fmt.Errorf("segment header: %w", err)
	}
	fs.nextID++
	fs.cur, fs.curID, fs.curRecs = f, id, 0
	fs.curOff = uint64(len(segMagicV2))
	fs.curIdx = fs.curIdx[:0]
	fs.curMax = math.MinInt64
	return nil
}

// sealActive writes the active segment's footer (block index plus
// sentinel entry) and closes it, moving it to the sealed list.
// Leader-owned.
func (fs *FileStore) sealActive() error {
	entries := append(fs.curIdx, blockEntry{seq: fs.mem.LastSeq() + 1, off: fs.curOff, maxBefore: fs.curMax})
	fs.wbuf = appendFooter(fs.wbuf[:0], entries)
	if _, err := fs.cur.Write(fs.wbuf); err != nil {
		return fmt.Errorf("seal footer: %w", err)
	}
	if fs.opts.Sync {
		if err := fs.cur.Sync(); err != nil {
			return fmt.Errorf("seal sync: %w", err)
		}
	}
	if err := fs.cur.Close(); err != nil {
		return fmt.Errorf("seal close: %w", err)
	}
	fs.sealed = append(fs.sealed, segmentInfo{id: fs.curID, path: fs.segPath(fs.curID), recs: fs.curRecs,
		bytes: int(fs.curOff) + len(fs.wbuf)})
	fs.cur, fs.curRecs = nil, 0
	fs.curIdx = fs.curIdx[:0]
	return nil
}

// rotateSeg seals the active segment and opens a fresh one, evaluating
// the crash fault point at each protocol window (before and after the
// seal), then merges the trailing tier run when one is due. The merge
// output takes the file id after the new active segment. Leader-owned.
func (fs *FileStore) rotateSeg() error {
	if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreRotate); f.Injected() {
		return fmt.Errorf("rotate (pre-seal): %w", f.Err)
	}
	if err := fs.sealActive(); err != nil {
		return fmt.Errorf("rotate: %w", err)
	}
	if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreRotate); f.Injected() {
		return fmt.Errorf("rotate (post-seal): %w", f.Err)
	}
	if err := fs.openActive(); err != nil {
		return err
	}
	if fs.opts.CompactSealed > 0 {
		if from := fs.tierRun(); from >= 0 {
			return fs.compactSeg(from)
		}
	}
	return nil
}

// tierLevel is the size tier of a sealed segment of recs records,
// ⌊log_F(recs/SegmentRecords)⌋ for fan-in F, and 0 below one
// segment's worth.
func (fs *FileStore) tierLevel(recs int) int {
	level := 0
	for q := recs / fs.opts.SegmentRecords; q >= fs.opts.CompactSealed; q /= fs.opts.CompactSealed {
		level++
	}
	return level
}

// tierRun returns the index in fs.sealed where the run that size-tiered
// compaction merges now begins, or -1 when no merge is due. A merge is
// due once at least F trailing segments share a level. The run grows
// backwards over the segments just before it while its output's level
// is theirs and, with them, it would make a run of F again: the merge
// that run would trigger next is folded into this one write. Each
// merge raises every record it rewrites by at least one level.
// Leader-owned.
func (fs *FileStore) tierRun() int {
	fanIn := fs.opts.CompactSealed
	from := fs.sameLevelFrom(len(fs.sealed), fs.tierLevel(fs.sealed[len(fs.sealed)-1].recs))
	if len(fs.sealed)-from < fanIn {
		return -1
	}
	recs := 0
	for _, s := range fs.sealed[from:] {
		recs += s.recs
	}
	for {
		prev := fs.sameLevelFrom(from, fs.tierLevel(recs))
		if from-prev+1 < fanIn {
			return from
		}
		for _, s := range fs.sealed[prev:from] {
			recs += s.recs
		}
		from = prev
	}
}

// sameLevelFrom returns the start of the run of sealed segments ending
// just before index end whose level is level.
func (fs *FileStore) sameLevelFrom(end, level int) int {
	for end > 0 && fs.tierLevel(fs.sealed[end-1].recs) == level {
		end--
	}
	return end
}

// Compact merges every sealed segment into one. The active segment is
// left alone. Compaction never drops records — the audit trail is the
// product — it only reduces file count and normalizes ordering.
// Automatic compaction merges only the trailing tier run instead (see
// Options.CompactSealed); both write their one output under a fresh,
// higher file id.
func (fs *FileStore) Compact() error {
	fs.mu.Lock()
	for fs.committing {
		fs.commitDone.Wait()
	}
	if err := fs.checkLocked(); err != nil {
		fs.mu.Unlock()
		return err
	}
	if len(fs.sealed) < 2 {
		fs.mu.Unlock()
		return nil
	}
	fs.committing = true
	fs.mu.Unlock()

	err := fs.compactSeg(0)

	fs.mu.Lock()
	if err != nil && fs.failed == nil {
		err = fs.failLocked(err)
	} else if err != nil {
		err = fs.failed
	}
	fs.committing = false
	fs.commitDone.Broadcast()
	fs.mu.Unlock()
	return err
}

// compactSeg merges the sealed segments from index from onward into a
// fresh, higher file id via stage → fsync → rename → cleanup,
// evaluating the crash fault point at each window. Every window leaves
// a recoverable directory: a torn or unrenamed tmp is discarded on
// open, and a rename without cleanup leaves duplicates that recovery
// deduplicates by sequence, also when the output overlaps only the
// tail of the sealed set. Leader-owned.
func (fs *FileStore) compactSeg(from int) error {
	if f := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreCompact); f.Injected() {
		return fmt.Errorf("compact (begin): %w", f.Err)
	}
	// Sealed segments tile the index in order, so the run's records
	// start where the segments before it end.
	start, total, size := 0, 0, 0
	for _, s := range fs.sealed[:from] {
		start += s.recs
	}
	for _, s := range fs.sealed[from:] {
		total += s.recs
		size += s.bytes
	}
	id := fs.nextID
	path := fs.segPath(id)
	tmp := path + tmpSuffix

	buf, err := fs.encodeRange(start, start+total, size)
	if err != nil {
		return fmt.Errorf("compact stage: %w", err)
	}
	// Stage in two halves with a torn-tmp crash window between them.
	half := len(buf) / 2
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("compact stage: %w", err)
	}
	if _, err := f.Write(buf[:half]); err != nil {
		f.Close() //overhaul:allow errdrop the store is already failed; the handle is released best-effort
		return fmt.Errorf("compact stage: %w", err)
	}
	if fl := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreCompact); fl.Injected() {
		f.Close() //overhaul:allow errdrop the store is already failed; the torn tmp is the injected state under test
		return fmt.Errorf("compact (torn tmp): %w", fl.Err)
	}
	if _, err := f.Write(buf[half:]); err != nil {
		f.Close() //overhaul:allow errdrop the store is already failed; the handle is released best-effort
		return fmt.Errorf("compact stage: %w", err)
	}
	if fs.opts.Sync {
		if err := f.Sync(); err != nil {
			f.Close() //overhaul:allow errdrop the store is already failed; the handle is released best-effort
			return fmt.Errorf("compact sync: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("compact stage: %w", err)
	}
	if fl := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreCompact); fl.Injected() {
		return fmt.Errorf("compact (pre-rename): %w", fl.Err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("compact rename: %w", err)
	}
	fs.nextID++
	if fl := faultinject.Eval(fs.opts.Hook, faultinject.PointStoreCompact); fl.Injected() {
		return fmt.Errorf("compact (pre-cleanup): %w", fl.Err)
	}
	for _, s := range fs.sealed[from:] {
		if err := os.Remove(s.path); err != nil {
			return fmt.Errorf("compact cleanup: %w", err)
		}
	}
	fs.sealed = append(fs.sealed[:from], segmentInfo{id: id, path: path, recs: total, bytes: len(buf)})
	fs.mu.Lock()
	fs.stats.Compactions++
	fs.stats.CompactedRecords += uint64(total)
	fs.mu.Unlock()
	return nil
}

// SegmentCount returns (sealed, active) segment counts — observability
// for tests and the dashboard. It waits out any in-flight commit so
// the counts are a consistent snapshot.
func (fs *FileStore) SegmentCount() (sealed int, active int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for fs.committing {
		fs.commitDone.Wait()
	}
	sealed = len(fs.sealed)
	if fs.cur != nil {
		active = 1
	}
	return sealed, active
}

// Get implements Store. Reads fail too once the store failed: a store
// that cannot vouch for its tail must not answer as if it could.
func (fs *FileStore) Get(seq uint64) (Record, bool, error) {
	fs.mu.Lock()
	err := fs.checkLocked()
	fs.mu.Unlock()
	if err != nil {
		return Record{}, false, err
	}
	return fs.mem.Get(seq)
}

// Scan implements Store.
func (fs *FileStore) Scan(q Query, yield func(Record) bool) error {
	fs.mu.Lock()
	err := fs.checkLocked()
	fs.mu.Unlock()
	if err != nil {
		return err
	}
	return fs.mem.Scan(q, yield)
}

// Iter implements Iterable: a streaming scan over the durable prefix.
func (fs *FileStore) Iter(q Query) (*Iterator, error) {
	fs.mu.Lock()
	err := fs.checkLocked()
	fs.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return fs.mem.Iter(q)
}

// Count implements Store.
func (fs *FileStore) Count() (int, error) {
	fs.mu.Lock()
	err := fs.checkLocked()
	fs.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return fs.mem.Count()
}

// Close implements Store: in-flight commits are waited out, then the
// active segment is flushed and released. Queued appends that never
// made it into a durable batch fail with ErrClosed — they were never
// acknowledged. Closing a failed store releases resources without
// clearing the failure (reopen recovers).
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	fs.closed = true
	fs.wakeLingerLocked()
	fs.commitDone.Broadcast()
	for fs.committing {
		fs.commitDone.Wait()
	}
	if fs.cur != nil {
		if fs.opts.Sync {
			if err := fs.cur.Sync(); err != nil {
				fs.cur.Close() //overhaul:allow errdrop best-effort release after the sync failure being reported
				fs.cur = nil
				return err
			}
		}
		err := fs.cur.Close()
		fs.cur = nil
		return err
	}
	return nil
}
