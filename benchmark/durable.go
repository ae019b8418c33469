package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"overhaul/internal/auditstore"
)

// durableLog wraps a FileStore as an auditstore.Store whose records
// become durable. For each record, in order, its goroutine appends to
// the store and, once the store acknowledges, fsyncs the segment the
// record landed in, then the store directory, and only then timestamps
// the record's ack. The store's Sync option covers rotation,
// compaction and Close but not the group commit itself, so without the
// adapter an acknowledged record could still be lost with the page
// cache. When the store comes to fsync its own commits, the adapter's
// fsync finds nothing dirty.
//
// Append only queues the record: decisions do not wait for the store
// or the disk, and the store's write path is timed on the log's own
// goroutine as ack latency. On a shared virtual disk a write or fsync
// stalls for milliseconds often enough that a verdict path waiting on
// it reads differently on every run; kept apart, the decision path and
// the durable path each give a number that repeats.
//
// Append does not wake the log's goroutine either: the generator calls
// wake once the verdict is timed. A channel send to a parked receiver
// wakes its thread inside the send, which took 0.4-5 µs (2.5 µs at the
// median) on a 2-vCPU virtual machine, half of a decision's latency
// and most of its spread from run to run. The wake-up still counts in
// ack latency, which runs from the decision's scheduled time.
//
// The active segment is re-resolved only when SegmentCount changes,
// never with a directory listing per append. A record whose segment was
// sealed in the meantime is already durable: with Sync set the store
// fsyncs a segment before sealing it and a compaction's output before
// renaming it, and the directory fsync covers the rename.
type durableLog struct {
	fs     *auditstore.FileStore
	tr     *tracer // appender's; nil untraced
	queued uint64  // records queued so far (appender side)
	base   uint64  // store count at start: record i gets seq base+i+1

	queue chan auditstore.Record
	kick  chan struct{} // wakes the log's goroutine to drain queue
	done  chan struct{}

	// Owned by the log's goroutine until done is closed.
	dir                  *os.File
	seg                  *os.File
	sealed, active       int
	acks                 []time.Time // ack instant of the i-th queued record
	fsyncs               int64
	compacts, stallNanos int64
	syncTr               *tracer
	err                  error
	syncFile             func(*os.File) error // (*os.File).Sync; tests observe order through it
}

// queueDepth bounds queued, not yet durable records. A full queue makes
// Append wait, so a store or disk that cannot keep up shows in op
// latency and in the decision rate instead of in unbounded memory. At
// the fleet-ingest rate, about 950 decisions a second, it absorbs a
// stall of about a second and no more.
const queueDepth = 1 << 10

// newDurableLog starts the log's goroutine over fs; Close stops it.
func newDurableLog(fs *auditstore.FileStore, tr *tracer) (*durableLog, error) {
	n, err := fs.Count()
	if err != nil {
		return nil, err
	}
	dir, err := os.Open(fs.Dir())
	if err != nil {
		return nil, err
	}
	d := &durableLog{
		fs: fs, tr: tr, base: uint64(n), dir: dir, sealed: -1,
		queue: make(chan auditstore.Record, queueDepth), kick: make(chan struct{}, 1), done: make(chan struct{}),
		syncTr: tr.fork(), syncFile: (*os.File).Sync,
	}
	go d.run()
	return d, nil
}

var _ auditstore.Store = (*durableLog)(nil)

// Append implements auditstore.Store: it queues r and returns the
// sequence number the store will assign, as appends are applied in
// order by one goroutine. A record whose store append later fails is
// never acked. Only a full queue makes Append kick the log itself and
// wait.
func (d *durableLog) Append(r auditstore.Record) (uint64, error) {
	d.tr.begin("store.sink")
	select {
	case d.queue <- r:
	default:
		d.wake()
		d.queue <- r
	}
	d.tr.end()
	d.queued++
	return d.base + d.queued, nil
}

// wake makes the log's goroutine drain the queue.
func (d *durableLog) wake() {
	select {
	case d.kick <- struct{}{}:
	default: // a kick is already pending
	}
}

// run applies queued records in order until the queue closes, waiting
// for a kick whenever the queue is empty. After a failure no further
// record is acked; awaitAcks reports the failure.
func (d *durableLog) run() {
	defer close(d.done)
	for {
		select {
		case r, ok := <-d.queue:
			if !ok {
				return
			}
			if d.err == nil {
				d.err = d.persist(r)
			}
		default:
			<-d.kick
		}
	}
}

// persist appends r, then makes it durable and records its ack.
func (d *durableLog) persist(r auditstore.Record) error {
	want := d.base + uint64(len(d.acks)) + 1
	d.syncTr.begin("auditstore.Append")
	t0 := wallNow()
	seq, err := d.fs.Append(r)
	t1 := wallNow()
	d.syncTr.end()
	if err != nil {
		return err
	}
	if seq != want {
		return fmt.Errorf("store assigned seq %d, want %d", seq, want)
	}
	sealed, active := d.fs.SegmentCount()
	// Only a compaction lowers the sealed count; it ran inside this
	// append.
	compacted := d.sealed >= 0 && sealed < d.sealed
	if compacted {
		d.compacts++
		d.stallNanos += int64(t1.Sub(t0))
	}
	if err := d.resolve(sealed, active, compacted); err != nil {
		return err
	}
	d.syncTr.begin("adapter.fsync")
	err = d.syncFile(d.seg)
	if err == nil {
		err = d.syncFile(d.dir)
	}
	now := wallNow()
	d.syncTr.end()
	if err != nil {
		return fmt.Errorf("fsync: %w", err)
	}
	d.fsyncs++
	d.acks = append(d.acks, now)
	return nil
}

// resolve points seg at the active segment file when the counts moved.
// Segment file ids are fixed-width hex and grow, so the newest file
// sorts last, and it is the active segment except just after a
// compaction: the store opens the new active segment first and then
// writes the compaction's output under the next id. Until the next
// rotation the active segment is then the second newest.
func (d *durableLog) resolve(sealed, active int, compacted bool) error {
	if d.seg != nil && sealed == d.sealed && active == d.active {
		return nil
	}
	d.sealed, d.active = sealed, active
	names, err := d.dir.Readdirnames(-1)
	if err != nil {
		return err
	}
	if _, err := d.dir.Seek(0, 0); err != nil {
		return err
	}
	var segs []string
	for _, n := range names {
		if strings.HasPrefix(n, "seg-") && strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	i := len(segs) - 1
	if compacted {
		i--
	}
	if i < 0 {
		return fmt.Errorf("no active segment among %d in %s", len(segs), d.fs.Dir())
	}
	sort.Strings(segs)
	f, err := os.Open(filepath.Join(d.fs.Dir(), segs[i]))
	if err != nil {
		return err
	}
	if d.seg != nil {
		d.seg.Close() // read-only handle; nothing to flush
	}
	d.seg = f
	return nil
}

// awaitAcks stops accepting appends, waits until every queued record is
// applied and durable, and releases the adapter's handles; the store
// stays open. It reports the first failure, after which nothing was
// acked.
func (d *durableLog) awaitAcks() error {
	close(d.queue)
	d.wake()
	<-d.done
	if d.seg != nil {
		d.seg.Close() // read-only handle
	}
	d.dir.Close() // read-only handle
	return d.err
}

// Close implements auditstore.Store: awaitAcks, then close the store.
func (d *durableLog) Close() error {
	err := d.awaitAcks()
	if cerr := d.fs.Close(); err == nil {
		err = cerr
	}
	return err
}

// Get implements auditstore.Store.
func (d *durableLog) Get(seq uint64) (auditstore.Record, bool, error) { return d.fs.Get(seq) }

// Scan implements auditstore.Store.
func (d *durableLog) Scan(q auditstore.Query, yield func(auditstore.Record) bool) error {
	return d.fs.Scan(q, yield)
}

// Count implements auditstore.Store.
func (d *durableLog) Count() (int, error) { return d.fs.Count() }
