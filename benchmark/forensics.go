package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/monitor"
)

// The audit-forensics workload reads the store instead of writing it:
// a history of about 10^5 records (hundreds of times the active
// segment) is written once through AppendBatch, then a closed loop of
// one client repeats a cold Open, a seeded query set through the Store
// interface alone, and Close. It shows recovery and read cost, which
// grow with history while fleet-ingest's write path sits idle. It does
// not use ScanSegments or the cold-scan path: that second query path is
// slated for removal.
var forensicsWorkload = benchWorkload{name: "audit-forensics", run: runForensics}

const (
	historyRecords  = 100_000
	historyPIDs     = 400
	historySessions = 16
	historyBatch    = 256
	forensicsSetups = 5
)

// Query mix per cycle. Sorted by cost the kinds run count < get <
// deny-limit < pid < since-window < reason, so with these shares the
// median query falls a quarter of the way into the pid scans and the
// 99th percentile inside the reason scans, each well away from a
// boundary between two kinds, where it would jump with the seed.
const (
	qSince  = 4
	qPID    = 16
	qDeny   = 6
	qReason = 2
	qGet    = 6
	qCount  = 2
)

// reasons are the decision reasons the history uses; substrings of
// them are queried.
var reasons = []string{
	monitor.ReasonWithinDelta,
	monitor.ReasonNoInteraction,
	monitor.ReasonNoSuchProcess,
	"stale interaction: 2.4s past threshold 2s",
	"stale interaction: 9.8s past threshold 2s",
	"stale interaction: 41s past threshold 2s",
}

var reasonProbes = []string{"stale", "no recorded", "proximity", "no such"}

var ops = []monitor.Op{monitor.OpMic, monitor.OpCam, monitor.OpScreen, monitor.OpPaste, monitor.OpCopy}

// ledger is the generator's own compact copy of the history, the
// oracle every query result is checked against.
type ledger struct {
	time    []int64 // unix ns, nondecreasing
	pid     []int32
	session []uint8
	op      []uint8
	reason  []uint8 // index into reasons; 0 is the only grant reason
	stamp   []int64 // 0 = none
}

func (l *ledger) len() int { return len(l.time) }

func (l *ledger) record(i int) auditstore.Record {
	r := auditstore.Record{
		Seq:     uint64(i + 1),
		Time:    time.Unix(0, l.time[i]).UTC(),
		Session: uint64(l.session[i]) + 1,
		PID:     int(l.pid[i]),
		Op:      string(ops[l.op[i]]),
		Verdict: monitor.VerdictDeny.String(),
		Reason:  reasons[l.reason[i]],
	}
	if l.reason[i] == 0 {
		r.Verdict = monitor.VerdictGrant.String()
	}
	if l.stamp[i] != 0 {
		r.Stamp = time.Unix(0, l.stamp[i]).UTC()
	}
	return r
}

// newLedger generates the seeded history.
func newLedger(seed int64) *ledger {
	rng := rand.New(rand.NewSource(seed))
	l := &ledger{}
	t := fleetEpoch
	for i := 0; i < historyRecords; i++ {
		t += int64(rng.ExpFloat64() * float64(50*time.Millisecond))
		pid := int32(100 + rng.Intn(historyPIDs))
		reason := uint8(0)
		var stamp int64
		switch r := rng.Float64(); {
		case r < 0.6:
			stamp = t - rng.Int63n(int64(2*time.Second))
		case r < 0.75:
			reason = 1
		case r < 0.8:
			reason = 2
		default:
			reason = uint8(3 + rng.Intn(3))
			stamp = t - int64(2*time.Second) - rng.Int63n(int64(40*time.Second))
		}
		l.time = append(l.time, t)
		l.pid = append(l.pid, pid)
		l.session = append(l.session, uint8(rng.Intn(historySessions)))
		l.op = append(l.op, uint8(rng.Intn(len(ops))))
		l.reason = append(l.reason, reason)
		l.stamp = append(l.stamp, stamp)
	}
	return l
}

// writeHistory writes the ledger into a fresh store at dir through
// AppendBatch with default options.
func writeHistory(l *ledger, dir string) error {
	st, err := auditstore.Open(dir, auditstore.Options{})
	if err != nil {
		return err
	}
	batch := make([]auditstore.Record, 0, historyBatch)
	for i := 0; i < l.len(); i++ {
		batch = append(batch, l.record(i))
		if len(batch) == historyBatch || i == l.len()-1 {
			if _, err := st.AppendBatch(batch); err != nil {
				st.Close()
				return err
			}
			batch = batch[:0]
		}
	}
	return st.Close()
}

// openHistory is the cold Open every forensic cycle starts with.
func openHistory(dir string) (*auditstore.FileStore, error) {
	return auditstore.Open(dir, auditstore.Options{})
}

// queryKind is one kind of forensic query.
type queryKind uint8

const (
	qkSince queryKind = iota
	qkPID
	qkDeny
	qkReason
	qkGet
	qkCount
	numQueryKinds
)

var queryNames = [numQueryKinds]string{"scan_since", "scan_pid", "scan_deny", "scan_reason", "get", "count"}

// query is one seeded query and, after it ran, what it returned.
type query struct {
	kind        queryKind
	q           auditstore.Query
	seq         uint64
	count       int
	seqSum      uint64
	rec         auditstore.Record
	found       bool
	lastSeq     uint64
	orderBroken bool
}

// querySet draws one cycle's queries from rng, in seeded order.
func querySet(rng *rand.Rand, l *ledger, out []query) []query {
	out = out[:0]
	n := l.len()
	add := func(k queryKind, times int, mk func(*query)) {
		for i := 0; i < times; i++ {
			q := query{kind: k}
			mk(&q)
			out = append(out, q)
		}
	}
	add(qkSince, qSince, func(q *query) {
		// A window of 0.1–1% of the history, anywhere in it.
		w := n/1000 + rng.Intn(n/100-n/1000)
		lo := rng.Intn(n - w)
		q.q = auditstore.Query{Since: time.Unix(0, l.time[lo]).UTC(), Until: time.Unix(0, l.time[lo+w]).UTC()}
	})
	add(qkPID, qPID, func(q *query) { q.q = auditstore.Query{PID: 100 + rng.Intn(historyPIDs)} })
	add(qkDeny, qDeny, func(q *query) {
		q.q = auditstore.Query{Verdict: monitor.VerdictDeny.String(), Limit: 10 + rng.Intn(91)}
	})
	add(qkReason, qReason, func(q *query) { q.q = auditstore.Query{Reason: reasonProbes[rng.Intn(len(reasonProbes))]} })
	add(qkGet, qGet, func(q *query) { q.seq = uint64(1 + rng.Intn(n)) })
	add(qkCount, qCount, func(*query) {})
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// exec runs q against st through the Store interface, keeping what the
// oracle needs: result count, sum of sequence numbers, and order.
func (q *query) exec(st auditstore.Store) error {
	switch q.kind {
	case qkGet:
		r, ok, err := st.Get(q.seq)
		q.rec, q.found = r, ok
		return err
	case qkCount:
		n, err := st.Count()
		q.count = n
		return err
	}
	return st.Scan(q.q, func(r auditstore.Record) bool {
		if r.Seq <= q.lastSeq {
			q.orderBroken = true
		}
		q.lastSeq = r.Seq
		q.count++
		q.seqSum += r.Seq
		return true
	})
}

// oracle answers queries from the ledger.
type oracle struct {
	l                    *ledger
	pidCount, pidSum     map[int]int
	denySeqPrefix        []int // denySeqPrefix[k] = sum of the first k deny seqs
	probeCount, probeSum map[string]int
}

func newOracle(l *ledger) *oracle {
	o := &oracle{l: l, pidCount: map[int]int{}, pidSum: map[int]int{},
		denySeqPrefix: []int{0}, probeCount: map[string]int{}, probeSum: map[string]int{}}
	for i := 0; i < l.len(); i++ {
		seq := i + 1
		o.pidCount[int(l.pid[i])]++
		o.pidSum[int(l.pid[i])] += seq
		if l.reason[i] != 0 {
			o.denySeqPrefix = append(o.denySeqPrefix, o.denySeqPrefix[len(o.denySeqPrefix)-1]+seq)
		}
		for _, p := range reasonProbes {
			if strings.Contains(reasons[l.reason[i]], p) {
				o.probeCount[p]++
				o.probeSum[p] += seq
			}
		}
	}
	return o
}

// sameRecord compares records field by field, times by instant.
func sameRecord(a, b auditstore.Record) bool {
	return a.Seq == b.Seq && a.Time.Equal(b.Time) && a.Session == b.Session && a.PID == b.PID &&
		a.Op == b.Op && a.Verdict == b.Verdict && a.Reason == b.Reason && a.Stamp.Equal(b.Stamp) &&
		a.Degraded == b.Degraded
}

// verify checks q's result against the ledger.
func (o *oracle) verify(q *query) error {
	l := o.l
	var want, wantSum int
	switch q.kind {
	case qkGet:
		if want := l.record(int(q.seq) - 1); !q.found || !sameRecord(q.rec, want) {
			return fmt.Errorf("Get(%d) = %+v, %v; want %+v", q.seq, q.rec, q.found, want)
		}
		return nil
	case qkCount:
		if q.count != l.len() {
			return fmt.Errorf("Count = %d, want %d", q.count, l.len())
		}
		return nil
	case qkSince:
		since, until := q.q.Since.UnixNano(), q.q.Until.UnixNano()
		lo := sort.Search(l.len(), func(i int) bool { return l.time[i] >= since })
		hi := sort.Search(l.len(), func(i int) bool { return l.time[i] >= until })
		want = hi - lo
		wantSum = (lo + 1 + hi) * (hi - lo) / 2 // seqs lo+1 … hi
	case qkPID:
		want, wantSum = o.pidCount[q.q.PID], o.pidSum[q.q.PID]
	case qkDeny:
		want = min(q.q.Limit, len(o.denySeqPrefix)-1)
		wantSum = o.denySeqPrefix[want]
	case qkReason:
		want, wantSum = o.probeCount[q.q.Reason], o.probeSum[q.q.Reason]
	}
	if q.orderBroken || q.count != want || q.seqSum != uint64(wantSum) {
		return fmt.Errorf("%s %+v: %d records (seq sum %d, ordered %v), want %d (%d)",
			queryNames[q.kind], q.q, q.count, q.seqSum, !q.orderBroken, want, wantSum)
	}
	return nil
}

// runForensics writes the history forensicsSetups times (median is
// setup_s) and runs open → query set → close cycles on the last one
// for d.
func runForensics(cfg runConfig, d time.Duration, tr *tracer) (*phase, error) {
	l := newLedger(cfg.seed)
	var dir string
	var setups []time.Duration
	for i := 0; i < forensicsSetups; i++ {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		dir = filepath.Join(cfg.dir, "history-"+strconv.Itoa(i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		liveHeap()
		t0 := wallNow()
		if err := writeHistory(l, dir); err != nil {
			return nil, fmt.Errorf("history: %w", err)
		}
		setups = append(setups, since(t0))
	}

	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	var ran []query
	var lat [numQueryKinds]samples
	var opens samples
	var qs []query
	var wall time.Duration
	var rates, cycleP50s, cycleP99s []float64
	var cyc samples
	var failed int64
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	liveHeap()
	for cycle := uint64(0); wall < d; cycle++ {
		qs = querySet(rng, l, qs)
		// Each cycle is a fresh forensic session: it starts from a
		// collected heap, as a new process would, not from whatever the
		// last cycle's garbage left behind.
		runtime.GC()
		tr.setOp(cycle)
		t0 := wallNow()
		tr.begin("auditstore.Open")
		st, err := openHistory(dir)
		tr.end()
		opens.add(since(t0))
		if err != nil {
			return nil, fmt.Errorf("open history: %w", err)
		}
		cyc.ns = cyc.ns[:0]
		for i := range qs {
			q := &qs[i]
			tq := wallNow()
			tr.begin("auditstore." + queryNames[q.kind])
			err := q.exec(st)
			tr.end()
			dq := since(tq)
			lat[q.kind].add(dq)
			cyc.add(dq)
			if err != nil {
				fail(err)
			}
		}
		cycleP50s = append(cycleP50s, cyc.us(0.5))
		cycleP99s = append(cycleP99s, cyc.us(0.99))
		tr.begin("auditstore.Close")
		err = st.Close()
		tr.end()
		dt := since(t0)
		wall += dt
		rates = append(rates, float64(len(qs))/dt.Seconds())
		if err != nil {
			fail(err)
		}
		ran = append(ran, qs...)
	}

	o := newOracle(l)
	for i := range ran {
		if err := o.verify(&ran[i]); err != nil {
			fail(err)
		}
	}
	if firstErr != nil {
		fmt.Printf("audit-forensics: %d failed queries, first: %v\n", failed, firstErr)
	}
	// ops_per_s is the calm tenth of the cycles' rates, robust to
	// interference from outside the process.
	p := &phase{attempted: int64(len(ran)), failed: failed, correct: failed == 0, rate: calmRate(rates), metrics: map[string]float64{"setup_s": medianSeconds(setups), "store_open_ms": opens.ms(0.5)}}
	// Latencies are the calm tenth over cycles of each cycle's
	// percentile, as robust to interference as the rate; with 36 queries
	// a cycle, a cycle's p99 is its slowest query, a reason scan.
	p.metrics["op_p50_us"], p.metrics["op_p99_us"] = calm(cycleP50s), calm(cycleP99s)
	if tr != nil {
		for k := range lat {
			p.metrics["auditstore."+queryNames[k]+"_us"] = lat[k].us(0.5)
		}
	}

	// One more cold Open, outside the timed loop, weighs the store.
	base := liveHeap()
	st, err := openHistory(dir)
	if err != nil {
		return nil, err
	}
	after := liveHeap()
	n, err := st.Count()
	if err != nil {
		return nil, err
	}
	sealed, active := st.SegmentCount()
	p.metrics["heap_mb"] = heapMB(base, after)
	p.metrics["auditstore.heap_bytes_per_record"] = float64(after-base) / float64(n)
	p.metrics["auditstore.segments"] = float64(sealed + active)
	if size, err := dirBytes(dir); err == nil {
		p.metrics["auditstore.disk_bytes_per_record"] = float64(size) / float64(n)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	return p, nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}
