package main

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"overhaul/internal/auditstore"
	"overhaul/internal/fleet"
	"overhaul/internal/monitor"
	"overhaul/internal/workload"
)

// The fleet-ingest workload is many desktops' decision traffic landing
// on one durable audit trail: 10k fleet sessions (fleet's demonstrated
// scale, where the session table outgrows the CPU cache), 90% running
// poisson-desks streams and 10% bot-storm streams, offered open loop
// at one fixed rate from one generator goroutine. Every decision goes
// through auditstore.SessionSink into one FileStore (Sync set, other
// options default) behind the durable-ack adapter. SessionSink and not
// BatchSink: a batching sink acknowledges most records in a flush at
// the end of the run, so ack latency would measure the run length.
// Fleet, monitor.Policy and the store's write path do nearly all the
// work; xserver, netlink and kernel do none.
var fleetWorkload = benchWorkload{name: "fleet-ingest", run: runFleet}

const (
	fleetSessions = 10_000
	botShare      = 10 // percent of sessions running bot-storm
	fleetSetups   = 5
	// prefill is the workload time each session's stream is replayed
	// for at set-up, before its audit sink is attached, so the measured
	// traffic meets desks whose users have been at work for a while and
	// sessions whose audit rings exist: otherwise nearly every measured
	// decision would be its session's first, paying the ring's lazy
	// allocation.
	prefill = int64(5 * time.Second)
	// warmShare of the run is driven but not measured: the first
	// fsyncs of a run also flush what set-up left dirty.
	warmShare = 0.15
	// opWindow is the span of scheduled time whose decisions give one
	// p50 and p99, from some 200 events; the run reports the calm tenth
	// over its windows.
	opWindow = 100 * time.Millisecond
	// offeredRate is the events/s the generator offers. On a 2-core
	// virtual machine with ext4 on a virtio disk, where the adapter's
	// two fsyncs per decision are the bottleneck, the highest rate that
	// held a bounded ack backlog was between 2000 and 4000 events/s in a
	// slow period and 16,000 in a fast one (24,000 did not hold), so
	// this is at most half of it.
	offeredRate = 2000.0
)

// fleetEpoch is the workload's time origin. Stamps and op times are
// workload time, so every verdict depends on the seed alone; wall time
// only paces the sends.
var fleetEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano()

// naturalRate is the aggregate events/s the session mixes produce in
// workload time: poisson-desks at its Rate, bot-storm bursts of mean
// BurstLen events at Rate separated by BurstGap idle.
func naturalRate() float64 {
	desks, bots := workload.PoissonDesks(), workload.BotStorm()
	burst := float64(bots.BurstLen)
	botRate := burst / (bots.BurstGap.Seconds() + burst/bots.Rate)
	nBots := float64(fleetSessions * botShare / 100)
	return (fleetSessions-nBots)*desks.Rate + nBots*botRate
}

// wallPerWorkload converts workload time to wall time so the offered
// rate is offeredRate.
func wallPerWorkload() float64 { return naturalRate() / offeredRate }

// fleetSess is one session's generator-side state.
type fleetSess struct {
	s      *fleet.Session
	pid    int
	stream *workload.MixStream
	next   workload.FleetEvent
	at     int64 // workload ns since fleetEpoch of next
}

// sessHeap orders a worker's sessions by next event time.
type sessHeap []*fleetSess

func (h sessHeap) Len() int           { return len(h) }
func (h sessHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h sessHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sessHeap) Push(x any)        { *h = append(*h, x.(*fleetSess)) }
func (h *sessHeap) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// fleetSUT is a booted fleet with its durable store.
type fleetSUT struct {
	f         *fleet.Fleet
	prefilled fleet.FleetStats // after prefill, before the sinks
	log       *durableLog
	sinkStats auditstore.SinkStats
	sessions  sessHeap
}

// bootFleet creates the fleet, an empty store in dir, and the sessions
// with their seeded streams.
func bootFleet(seed int64, dir string, tr *tracer) (*fleetSUT, error) {
	f, err := fleet.New(fleet.Config{Policy: monitor.Policy{Enforce: true}})
	if err != nil {
		return nil, err
	}
	st, err := auditstore.Open(dir, auditstore.Options{Sync: true})
	if err != nil {
		return nil, err
	}
	log, err := newDurableLog(st, tr)
	if err != nil {
		st.Close()
		return nil, err
	}
	sut := &fleetSUT{f: f, log: log}
	desks, bots := workload.PoissonDesks(), workload.BotStorm()
	isBot := rand.New(rand.NewSource(seed)).Perm(fleetSessions)
	for i := 0; i < fleetSessions; i++ {
		s := f.CreateSession()
		pid, err := s.Spawn()
		if err != nil {
			return nil, err
		}
		mix := desks
		if isBot[i] < fleetSessions*botShare/100 {
			mix = bots
		}
		fs := &fleetSess{s: s, pid: pid, stream: mix.Stream(seed*1_000_003 + int64(i))}
		fs.next = fs.stream.Next()
		fs.at = int64(fs.next.Gap)
		for ; fs.at < prefill; fs.at += int64(fs.next.Gap) {
			var err error
			if fs.next.Notify {
				err = s.NotifyNanos(pid, fleetEpoch+fs.at)
			} else {
				_, err = s.DecideNanos(pid, fs.next.Op, fleetEpoch+fs.at)
			}
			if err != nil {
				return nil, err
			}
			fs.next = fs.stream.Next()
		}
		s.SetAuditSink(auditstore.SessionSink(log, s.ID(), &sut.sinkStats))
		sut.sessions = append(sut.sessions, fs)
	}
	heap.Init(&sut.sessions)
	sut.prefilled = f.StatsSnapshot()
	return sut, nil
}

// fleetCounts is the generator's tally.
type fleetCounts struct {
	events, decisions, failed int64
	grants, denies, measured  int64
	op, late                  samples
	opDue                     []time.Time // scheduled instant of each op sample
	dues                      []time.Time // scheduled instant of each appended decision
	firstErr                  error
}

// windowed splits samples by the window of opWindow their scheduled
// instants fall in, counted from origin, and returns the calm tenth
// over windows of each window's p50 and p99 in microseconds. A burst of
// interference from outside the process then moves a window, not the
// result.
func windowed(s *samples, at []time.Time, origin time.Time, window time.Duration) (p50, p99 float64) {
	var p50s, p99s []float64
	var w samples
	for i := 0; i < len(s.ns); {
		idx := at[i].Sub(origin) / window
		w.ns = w.ns[:0]
		for ; i < len(s.ns) && at[i].Sub(origin)/window == idx; i++ {
			w.ns = append(w.ns, s.ns[i])
		}
		p50s = append(p50s, w.us(0.5))
		p99s = append(p99s, w.us(0.99))
	}
	return calm(p50s), calm(p99s)
}

// drive runs the events with workload time before horizon, each sent
// at start + its workload time since prefill, scaled to wall time.
// Latency is measured from that scheduled instant, so a stall shows in
// every event it delays. Events due before measureFrom run and are
// checked but not measured.
func (sut *fleetSUT) drive(start, measureFrom time.Time, horizon int64, scale float64, tr *tracer) *fleetCounts {
	c := &fleetCounts{}
	h := &sut.sessions
	var op, late *samples
	for h.Len() > 0 {
		fs := (*h)[0]
		if fs.at >= horizon {
			break
		}
		due := start.Add(time.Duration(float64(fs.at-prefill) * scale))
		if op == nil && !due.Before(measureFrom) {
			op, late = &c.op, &c.late
		}
		lateness := waitUntil(due)
		if late != nil {
			late.add(lateness)
			c.measured++
		}
		ev := fs.next
		t := fleetEpoch + fs.at
		tr.setOp(uint64(c.events))
		var err error
		if ev.Notify {
			tr.begin("fleet.NotifyNanos")
			err = fs.s.NotifyNanos(fs.pid, t)
			tr.end()
		} else {
			queued := sut.log.queued
			tr.begin("fleet.DecideNanos")
			var v monitor.Verdict
			v, err = fs.s.DecideNanos(fs.pid, ev.Op, t)
			tr.end()
			done := wallNow()
			if sut.log.queued > queued {
				sut.log.wake()
				c.dues = append(c.dues, due)
			}
			c.decisions++
			if op != nil {
				op.add(done.Sub(due))
				c.opDue = append(c.opDue, due)
			}
			if v == monitor.VerdictGrant {
				c.grants++
			} else {
				c.denies++
			}
		}
		c.events++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
		}
		fs.next = fs.stream.Next()
		fs.at += int64(fs.next.Gap)
		heap.Fix(h, 0)
	}
	return c
}

// runFleet boots the fleet fleetSetups times (median is setup_s) and
// offers the last one d of open-loop load.
func runFleet(cfg runConfig, d time.Duration, tr *tracer) (*phase, error) {
	base := liveHeap()
	var sut *fleetSUT
	var setups []time.Duration
	for i := 0; i < fleetSetups; i++ {
		if sut != nil {
			if err := sut.log.Close(); err != nil {
				return nil, err
			}
			sut = nil
		}
		dir := filepath.Join(cfg.dir, "fleet-"+strconv.Itoa(i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		liveHeap()
		t0 := wallNow()
		var err error
		if sut, err = bootFleet(cfg.seed, dir, tr); err != nil {
			return nil, fmt.Errorf("fleet setup: %w", err)
		}
		setups = append(setups, since(t0))
	}
	liveHeap()

	scale := wallPerWorkload()
	warm := time.Duration(float64(d) * warmShare)
	horizon := prefill + int64(float64(d+warm)/scale)
	wchar0, _ := procWriteBytes()
	start := wallNow().Add(20 * time.Millisecond)
	measureFrom := start.Add(warm)
	c := sut.drive(start, measureFrom, horizon, scale, tr)
	// The wall ends when the last record is durable, so ops_per_s
	// counts only events whose decisions reached the disk, and a store
	// that falls behind lowers it by its backlog. The store stays open
	// for the oracle.
	closeErr := sut.log.awaitAcks()
	wall := since(measureFrom)
	wchar1, _ := procWriteBytes()

	var ack samples
	acks := sut.log.acks
	for i, due := range c.dues {
		if i < len(acks) && !due.Before(measureFrom) {
			ack.add(acks[i].Sub(due))
		}
	}
	// A decision whose append failed was counted by SessionSink; one
	// appended but never made durable is failed here.
	sinkErrs := int64(sut.sinkStats.Errors.Load())
	c.failed += sinkErrs + int64(len(c.dues)-len(acks))
	correct, checkErr := sut.check(c)
	if closeErr != nil && checkErr == nil {
		correct, checkErr = false, closeErr
	}
	if c.firstErr != nil || checkErr != nil {
		fmt.Printf("fleet-ingest: %d failed events (%d sink errors), first: %v; store check: %v\n",
			c.failed, sinkErrs, c.firstErr, checkErr)
	}

	p := &phase{attempted: c.events, failed: c.failed, correct: correct, rate: float64(c.measured) / wall.Seconds(),
		metrics: map[string]float64{"setup_s": medianSeconds(setups)}}
	p.metrics["op_p50_us"], p.metrics["op_p99_us"] = windowed(&c.op, c.opDue, measureFrom, opWindow)
	p.metrics["ack_p50_ms"] = ack.ms(0.5)
	p.metrics["ack_p99_ms"] = ack.ms(0.99)
	p.metrics["gen.lateness_p50_us"] = c.late.us(0.5)
	p.metrics["gen.lateness_p99_us"] = c.late.us(0.99)
	bs := sut.log.fs.BatchStats()
	if bs.Batches > 0 {
		p.metrics["auditstore.records_per_commit"] = float64(bs.Records) / float64(bs.Batches)
	}
	p.metrics["auditstore.fsyncs"] = float64(sut.log.fsyncs)
	p.metrics["auditstore.compactions"] = float64(sut.log.compacts)
	p.metrics["auditstore.compact_stall_ms"] = float64(sut.log.stallNanos) / 1e6
	if enc, err := encodedBytes(sut.log.fs); err == nil && enc > 0 && wchar1 > wchar0 {
		p.metrics["auditstore.write_amp"] = float64(wchar1-wchar0) / float64(enc)
	}
	if tr != nil {
		appendT, fsyncT := tr.selfTime("auditstore.Append"), tr.selfTime("adapter.fsync")
		p.metrics["auditstore.append_p50_us"] = appendT.us(0.5)
		p.metrics["auditstore.append_p99_us"] = appendT.us(0.99)
		p.metrics["auditstore.fsync_p50_us"] = fsyncT.us(0.5)
		p.metrics["auditstore.fsync_p99_us"] = fsyncT.us(0.99)
		p.metrics["fleet.decide_us"] = tr.selfTime("fleet.DecideNanos").us(0.5)
		p.metrics["fleet.notify_us"] = tr.selfTime("fleet.NotifyNanos").us(0.5)
	}

	// Weigh the fleet and its store without the generator's streams.
	sut.sessions, c = nil, nil
	p.metrics["heap_mb"] = heapMB(base, liveHeap())
	if err := sut.log.fs.Close(); err != nil {
		return nil, err
	}
	return p, nil
}

// check is fleet-ingest's oracle: the store holds exactly one record
// per decision made since the sinks were attached, and its grant and
// deny counts equal both the generator's and fleet.StatsSnapshot's
// over that span.
func (sut *fleetSUT) check(c *fleetCounts) (bool, error) {
	n, err := sut.log.fs.Count()
	if err != nil {
		return false, err
	}
	if int64(n) != c.decisions {
		return false, fmt.Errorf("store holds %d records for %d decisions", n, c.decisions)
	}
	var grants, denies int64
	err = sut.log.fs.Scan(auditstore.Query{}, func(r auditstore.Record) bool {
		if r.Verdict == monitor.VerdictGrant.String() {
			grants++
		} else {
			denies++
		}
		return true
	})
	if err != nil {
		return false, err
	}
	fst := sut.f.StatsSnapshot()
	fg, fd := fst.Grants-sut.prefilled.Grants, fst.Denials-sut.prefilled.Denials
	if grants != c.grants || denies != c.denies || uint64(grants) != fg || uint64(denies) != fd {
		return false, fmt.Errorf("grants/denies: store %d/%d, generator %d/%d, fleet %d/%d",
			grants, denies, c.grants, c.denies, fg, fd)
	}
	return true, nil
}

// encodedBytes is the size of the store's records in the segment
// encoding: the bytes an ideal log would have written for them.
func encodedBytes(st *auditstore.FileStore) (int64, error) {
	var enc auditstore.FrameEncoder
	var buf []byte
	var total int64
	var encErr error
	err := st.Scan(auditstore.Query{}, func(r auditstore.Record) bool {
		buf, encErr = enc.AppendRecord(buf[:0], &r)
		total += int64(len(buf))
		return encErr == nil
	})
	if err == nil {
		err = encErr
	}
	return total, err
}

// procWriteBytes is the bytes this process has passed to write calls
// (wchar in /proc/self/io); it fails where procfs is absent.
func procWriteBytes() (int64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	i := bytes.Index(b, []byte("wchar:"))
	if i < 0 {
		return 0, errors.New("no wchar in /proc/self/io")
	}
	var v int64
	_, err = fmt.Sscanf(string(b[i:]), "wchar: %d", &v)
	return v, err
}
