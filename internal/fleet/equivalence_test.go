package fleet

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
	"overhaul/internal/telemetry"
)

// scriptOp is one step of a deterministic session script. The same
// script is replayed against a shared-Tables fleet session, a
// duplicated-Tables standalone session, and a single-desktop Monitor;
// every observable output must match byte for byte.
type scriptOp struct {
	kind  int // 0 spawn, 1 fork, 2 exit, 3 notify, 4 decide, 5 degrade, 6 undegrade
	proc  int // index into the script's pid list (fork parent / exit / notify / decide target)
	op    monitor.Op
	nanos int64
}

// genScript builds a reproducible random script that exercises every
// verdict path: fresh grants, stale denials, never-stamped denials,
// missing processes, fork inheritance, and degraded-mode fail-closed.
func genScript(rng *rand.Rand, steps int) []scriptOp {
	t := base.UnixNano()
	ops := []monitor.Op{monitor.OpMic, monitor.OpCam, monitor.OpPaste, monitor.OpScreen, monitor.OpOther}
	script := []scriptOp{{kind: 0}} // always start with one spawn
	pids := 1
	for i := 0; i < steps; i++ {
		// Time advances by a random 0–1.5s per step, so op/stamp gaps
		// straddle the 2s threshold in both directions.
		t += rng.Int63n(int64(1500 * time.Millisecond))
		switch r := rng.Intn(100); {
		case r < 10:
			script = append(script, scriptOp{kind: 0})
			pids++
		case r < 18 && pids > 0:
			script = append(script, scriptOp{kind: 1, proc: rng.Intn(pids)})
			pids++
		case r < 24 && pids > 1:
			script = append(script, scriptOp{kind: 2, proc: rng.Intn(pids)})
		case r < 50 && pids > 0:
			script = append(script, scriptOp{kind: 3, proc: rng.Intn(pids), nanos: t})
		case r < 94 && pids > 0:
			// Decide sometimes targets a pid index past what was ever
			// spawned, covering the no-such-process path.
			proc := rng.Intn(pids + 2)
			script = append(script, scriptOp{kind: 4, proc: proc, op: ops[rng.Intn(len(ops))], nanos: t})
		case r < 97:
			script = append(script, scriptOp{kind: 5})
		default:
			script = append(script, scriptOp{kind: 6})
		}
	}
	return script
}

// sessionTrace is everything observable about a replay: the exact
// verdict/error sequence, the final audit ring, and the counters.
type sessionTrace struct {
	verdicts []monitor.Verdict
	errs     []string
	audit    []byte // JSON-encoded audit ring
	stats    SessionStats
}

// replayTarget is what a script drives: a fleet *Session, or a
// monitorTarget wrapping the single-desktop Monitor.
type replayTarget interface {
	Spawn() (int, error)
	Fork(parent int) (int, error)
	Exit(pid int) error
	NotifyNanos(pid int, nanos int64) error
	DecideNanos(pid int, op monitor.Op, nanos int64) (monitor.Verdict, error)
	SetDegraded(reason string)
	ClearDegraded()
	Audit() []monitor.Decision
	StatsSnapshot() SessionStats
}

// replay runs a script against one target and records its trace. It
// panics rather than taking a *testing.T so it is safe to run from
// spawned goroutines (Fatal is main-goroutine-only).
func replay(s replayTarget, script []scriptOp) sessionTrace {
	var tr sessionTrace
	var pids []int
	pidAt := func(i int) int {
		if i < len(pids) {
			return pids[i]
		}
		return 1 << 30 // never-spawned pid: exercises ErrNoSuchProcess
	}
	for _, op := range script {
		switch op.kind {
		case 0:
			pid, err := s.Spawn()
			if err != nil {
				panic(err)
			}
			pids = append(pids, pid)
		case 1:
			pid, err := s.Fork(pidAt(op.proc))
			tr.errs = append(tr.errs, errString(err))
			if err == nil {
				pids = append(pids, pid)
			}
		case 2:
			tr.errs = append(tr.errs, errString(s.Exit(pidAt(op.proc))))
		case 3:
			tr.errs = append(tr.errs, errString(s.NotifyNanos(pidAt(op.proc), op.nanos)))
		case 4:
			v, err := s.DecideNanos(pidAt(op.proc), op.op, op.nanos)
			tr.verdicts = append(tr.verdicts, v)
			tr.errs = append(tr.errs, errString(err))
		case 5:
			s.SetDegraded("scripted degradation")
		case 6:
			s.ClearDegraded()
		}
	}
	audit, err := json.Marshal(s.Audit())
	if err != nil {
		panic(err)
	}
	tr.audit = audit
	tr.stats = s.StatsSnapshot()
	return tr
}

// fakeTable is a minimal monitor.TaskTable with session semantics:
// pids count up from 1, stamps live in kernel.StampSlots (the cell a
// session uses), fork copies the parent's stamp (P1), and no process
// is ever ptraced.
type fakeTable struct {
	next  int
	procs map[int]*kernel.StampSlot
}

func (f *fakeTable) InteractionView(pid int) (time.Time, telemetry.SpanContext, bool, bool) {
	p, ok := f.procs[pid]
	if !ok {
		return time.Time{}, telemetry.SpanContext{}, false, false
	}
	return p.Time(), p.Span(), false, true
}

func (f *fakeTable) SetInteractionStampSpan(pid int, t time.Time, ctx telemetry.SpanContext) error {
	p, ok := f.procs[pid]
	if !ok {
		return ErrNoSuchProcess
	}
	p.Adopt(t, ctx)
	return nil
}

// monitorTarget drives a Monitor over a fakeTable, with an alert sink
// installed so due alerts are counted.
type monitorTarget struct {
	*monitor.Monitor
	tasks         *fakeTable
	spawns, exits uint64
}

func newMonitorTarget(pol monitor.Policy, auditCap int) *monitorTarget {
	tasks := &fakeTable{procs: make(map[int]*kernel.StampSlot)}
	m, err := monitor.New(clock.NewSimulated(), tasks, monitor.Config{
		Threshold: pol.Threshold, ForceGrant: pol.Force, Enforce: pol.Enforce, AuditCapacity: auditCap,
	})
	if err != nil {
		panic(err)
	}
	m.SetAlertFunc(func(monitor.AlertRequest) {})
	return &monitorTarget{Monitor: m, tasks: tasks}
}

func (t *monitorTarget) Spawn() (int, error) {
	t.tasks.next++
	t.tasks.procs[t.tasks.next] = &kernel.StampSlot{}
	t.spawns++
	return t.tasks.next, nil
}

func (t *monitorTarget) Fork(parent int) (int, error) {
	p, ok := t.tasks.procs[parent]
	if !ok {
		return 0, ErrNoSuchProcess
	}
	pid, _ := t.Spawn()
	t.tasks.procs[pid].Adopt(p.Time(), p.Span())
	return pid, nil
}

func (t *monitorTarget) Exit(pid int) error {
	if _, ok := t.tasks.procs[pid]; !ok {
		return ErrNoSuchProcess
	}
	delete(t.tasks.procs, pid)
	t.exits++
	return nil
}

func (t *monitorTarget) NotifyNanos(pid int, nanos int64) error {
	return t.Notify(pid, time.Unix(0, nanos).UTC())
}

func (t *monitorTarget) DecideNanos(pid int, op monitor.Op, nanos int64) (monitor.Verdict, error) {
	return t.Decide(pid, op, time.Unix(0, nanos).UTC()), nil
}

func (t *monitorTarget) StatsSnapshot() SessionStats {
	st := t.Monitor.StatsSnapshot()
	return SessionStats{
		Notifications: st.Notifications, Grants: st.Grants, Denials: st.Denials, Alerts: st.AlertsSent,
		Spawns: t.spawns, Exits: t.exits, DroppedAudit: t.DroppedAudit(),
	}
}

// errString canonicalizes an error for stream comparison. Session
// errors embed the session ID (which legitimately differs between a
// fleet session and its standalone twin), so compare by sentinel.
func errString(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrNoSuchProcess):
		return "no-such-process"
	case errors.Is(err, ErrSessionClosed):
		return "session-closed"
	default:
		return err.Error()
	}
}

// TestFleetEquivalentToStandalone is the fleet correctness property: a
// fleet of N sessions sharing one copy-on-write Tables snapshot must be
// observably identical — byte-identical audit streams, identical
// verdict/error sequences, identical counters — to N isolated sessions
// each holding a private copy of the tables. If sharing were ever
// visible (a map mutated in place, a policy field aliased mutably),
// this test is what breaks.
func TestFleetEquivalentToStandalone(t *testing.T) {
	const sessions = 32
	const steps = 400

	shared := newTestFleet(t, Config{})
	wideFleet := newTestFleet(t, Config{AuditCapacity: steps})

	for i := 0; i < sessions; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		script := genScript(rng, steps)

		fs := shared.CreateSession()
		iso := shared.NewStandalone()

		got := replay(fs, script)
		want := replay(iso, script)

		if !reflect.DeepEqual(got.verdicts, want.verdicts) {
			t.Fatalf("session %d: verdict streams diverge", i)
		}
		if !reflect.DeepEqual(got.errs, want.errs) {
			t.Fatalf("session %d: error streams diverge", i)
		}
		if string(got.audit) != string(want.audit) {
			t.Fatalf("session %d: audit streams not byte-identical\nfleet:      %s\nstandalone: %s", i, got.audit, want.audit)
		}
		if got.stats != want.stats {
			t.Fatalf("session %d: stats diverge: fleet %+v standalone %+v", i, got.stats, want.stats)
		}

		// The single-desktop Monitor runs the same decision core: a
		// session and a Monitor replaying the script must agree on
		// every verdict, reason, audit record and count — alerts
		// included, which are due on grants and blocked denials alike.
		// Both logs are sized to keep the whole script, because the
		// Monitor stripes its log by pid and so evicts differently.
		wide := wideFleet.CreateSession()
		sess := replay(wide, script)
		mon := replay(newMonitorTarget(wideFleet.Tables().Policy(), steps), script)
		if !reflect.DeepEqual(sess.verdicts, mon.verdicts) || !reflect.DeepEqual(sess.errs, mon.errs) {
			t.Fatalf("session %d: Monitor verdict or error stream diverges from the session's", i)
		}
		if string(sess.audit) != string(mon.audit) {
			t.Fatalf("session %d: Monitor audit stream differs\nsession: %s\nmonitor: %s", i, sess.audit, mon.audit)
		}
		if sess.stats != mon.stats {
			t.Fatalf("session %d: stats diverge: session %+v monitor %+v", i, sess.stats, mon.stats)
		}
	}
}

// TestFleetSessionsAreIndependent replays the same scripts concurrently
// across fleet sessions and checks each trace still matches its
// isolated twin — cross-session interference through the shared
// snapshot or the session table would corrupt some trace.
func TestFleetSessionsAreIndependent(t *testing.T) {
	const sessions = 16
	const steps = 300

	shared := newTestFleet(t, Config{})
	scripts := make([][]scriptOp, sessions)
	want := make([]sessionTrace, sessions)
	for i := range scripts {
		scripts[i] = genScript(rand.New(rand.NewSource(int64(5000+i))), steps)
		want[i] = replay(shared.NewStandalone(), scripts[i])
	}

	got := make([]sessionTrace, sessions)
	done := make(chan int, sessions)
	for i := 0; i < sessions; i++ {
		s := shared.CreateSession()
		go func(i int, s *Session) {
			got[i] = replay(s, scripts[i])
			done <- i
		}(i, s)
	}
	for range scripts {
		<-done
	}
	for i := range scripts {
		if !reflect.DeepEqual(got[i].verdicts, want[i].verdicts) ||
			!reflect.DeepEqual(got[i].errs, want[i].errs) ||
			string(got[i].audit) != string(want[i].audit) ||
			got[i].stats != want[i].stats {
			t.Errorf("session %d diverged from its isolated twin under concurrency", i)
		}
	}
}
