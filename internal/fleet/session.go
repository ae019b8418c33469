package fleet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
	"overhaul/internal/telemetry"
)

// Session is one tenant's Overhaul desktop reduced to its decision
// core: a monitor.Core (the audit ring, the counters, the degraded
// flag and the decision sequence the single-desktop Monitor runs too),
// a private process/stamp table, and an optional private telemetry
// recorder, all evaluated against the fleet's shared immutable Tables.
// It is a plain struct — no goroutine, no channel, no clock — so a
// fleet can hold 100k of them. All methods are safe for concurrent
// use; SetAuditSink and SetTelemetry must be called before traffic
// starts.
//
// Everything mutable is owned by the session (the time-protection
// partitioning rule); the only cross-session state a decision touches
// is the read-only Tables snapshot and the session-table stripe lock
// on the ingress lookup.
type Session struct {
	monitor.Core

	id      uint64
	fleet   *Fleet
	closed  atomic.Bool
	nextPID atomic.Int64
	spawns  atomic.Uint64
	exits   atomic.Uint64

	// tel is the optional per-session recorder's pre-resolved decision
	// counters; nil for the (default) uninstrumented tenant.
	tel *sessionTel

	mu    sync.RWMutex // guards procs
	procs map[int]*sessionProc
}

// sessionProc is a fleet task struct: just the interaction stamp cell.
// The kernel and the fleet share the StampSlot implementation, so the
// newest-wins CAS-max semantics cannot drift between the two paths.
type sessionProc struct {
	slot kernel.StampSlot
}

// sessionTel holds a per-session recorder's pre-resolved handles so an
// instrumented session's Decide stays allocation-free.
type sessionTel struct {
	grants  *telemetry.Counter
	denials *telemetry.Counter
}

// SessionStats is the exported snapshot of one session's counters.
// Alerts counts alerts due: a decision on an op in the alert table
// raises one on a grant and on a (blocked) denial alike.
type SessionStats struct {
	Notifications uint64
	Grants        uint64
	Denials       uint64
	Alerts        uint64
	Spawns        uint64
	Exits         uint64
	DroppedAudit  uint64
}

// ID returns the session identifier.
func (s *Session) ID() uint64 { return s.id }

// Closed reports whether the session has been torn down.
func (s *Session) Closed() bool { return s.closed.Load() }

// SetTelemetry attaches a per-session recorder (nil detaches). Handles
// are resolved here, once, so the decision path never builds a label.
// The recorder is the tenant's own: the fleet never aggregates through
// it, keeping telemetry write traffic partitioned too.
func (s *Session) SetTelemetry(rec *telemetry.Recorder) {
	if !rec.Enabled() {
		s.tel = nil
		return
	}
	s.tel = &sessionTel{
		grants:  rec.Counter("fleet", "decisions", "verdict=grant"),
		denials: rec.Counter("fleet", "decisions", "verdict=deny"),
	}
}

// Spawn creates a fresh process in this session with no interaction
// history and returns its pid (pids are session-local).
func (s *Session) Spawn() (int, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	pid := int(s.nextPID.Add(1))
	s.mu.Lock()
	if s.procs == nil {
		s.procs = make(map[int]*sessionProc)
	}
	s.procs[pid] = &sessionProc{}
	s.mu.Unlock()
	s.spawns.Add(1)
	return pid, nil
}

// Fork duplicates parent into a new process, inheriting its
// interaction stamp and minting span — propagation policy P1, same as
// the kernel's fork.
func (s *Session) Fork(parent int) (int, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	s.mu.RLock()
	pp := s.procs[parent]
	s.mu.RUnlock()
	if pp == nil {
		return 0, fmt.Errorf("session %d fork from pid %d: %w", s.id, parent, ErrNoSuchProcess)
	}
	stamp, span := pp.slot.Time(), pp.slot.Span()
	pid := int(s.nextPID.Add(1))
	child := &sessionProc{}
	child.slot.Adopt(stamp, span)
	s.mu.Lock()
	s.procs[pid] = child
	s.mu.Unlock()
	s.spawns.Add(1)
	return pid, nil
}

// Exit removes a process from the session.
func (s *Session) Exit(pid int) error {
	s.mu.Lock()
	_, ok := s.procs[pid]
	if ok {
		delete(s.procs, pid)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("session %d exit pid %d: %w", s.id, pid, ErrNoSuchProcess)
	}
	s.exits.Add(1)
	return nil
}

// PIDCount returns the number of live processes in the session.
func (s *Session) PIDCount() int {
	s.mu.RLock()
	n := len(s.procs)
	s.mu.RUnlock()
	return n
}

// Notify records an interaction notification N_{A,t} for pid.
func (s *Session) Notify(pid int, t time.Time) error {
	return s.NotifyNanos(pid, t.UnixNano())
}

// NotifyNanos is Notify with the stamp as unix nanoseconds (the wire
// form the ingress carries). The stamp write is the kernel's lock-free
// newest-wins CAS-max.
func (s *Session) NotifyNanos(pid int, nanos int64) error {
	if s.closed.Load() {
		return ErrSessionClosed
	}
	s.mu.RLock()
	p := s.procs[pid]
	s.mu.RUnlock()
	if p == nil {
		return fmt.Errorf("session %d notify pid %d: %w", s.id, pid, ErrNoSuchProcess)
	}
	p.slot.Adopt(time.Unix(0, nanos).UTC(), telemetry.SpanContext{})
	s.CountNotify()
	return nil
}

// Decide answers a permission query Q_{A,t} against the shared Tables
// snapshot and this session's private stamp store, appending to the
// session's audit ring. Verdicts, reasons and counts are exactly the
// Monitor's — both run monitor.Core.Decide — which is what the
// fleet ≡ standalone ≡ Monitor equivalence property pins.
func (s *Session) Decide(pid int, op monitor.Op, opTime time.Time) (monitor.Verdict, error) {
	return s.DecideNanos(pid, op, opTime.UnixNano())
}

// DecideNanos is Decide with the op time as unix nanoseconds. It is
// the fleet's hot path: one atomic Tables load, one striped map read,
// one atomic stamp load, and the core's decision sequence — zero
// allocations in steady state.
func (s *Session) DecideNanos(pid int, op monitor.Op, nanos int64) (monitor.Verdict, error) {
	if s.closed.Load() {
		return 0, ErrSessionClosed
	}
	tables := s.fleet.tables.Load()
	opTime := time.Unix(0, nanos).UTC()

	s.mu.RLock()
	p := s.procs[pid]
	s.mu.RUnlock()

	var stamp time.Time
	if p != nil {
		stamp = p.slot.Time()
	}
	// Sessions carry no ptrace state (Disabled stays false): the guard
	// is a single-desktop debugging defence, and a fleet tenant's
	// debugger lives inside the tenant. A real deployment routes a due
	// alert to the tenant's own display server; the core counts it.
	d := monitor.Decision{PID: pid, Op: op, OpTime: opTime, Stamp: stamp}
	v := s.Core.Decide(tables.policy, &d, p != nil, false, tables.alertOps[op])
	if t := s.tel; t != nil {
		if v == monitor.VerdictGrant {
			t.grants.Add(1)
		} else {
			t.denials.Add(1)
		}
	}
	return v, nil
}

// StatsSnapshot returns a copy of the session counters.
func (s *Session) StatsSnapshot() SessionStats {
	st := s.Core.StatsSnapshot()
	return SessionStats{
		Notifications: st.Notifications,
		Grants:        st.Grants,
		Denials:       st.Denials,
		Alerts:        st.AlertsSent,
		Spawns:        s.spawns.Load(),
		Exits:         s.exits.Load(),
		DroppedAudit:  s.DroppedAudit(),
	}
}
