// Package fleet scales Overhaul from one desktop to a machine hosting
// tens of thousands of concurrent sessions — the ROADMAP's "heavy
// traffic from millions of users" target, approached the way a
// multi-tenant deployment would run it: one orchestrator process, one
// ingress, N independent Overhaul sessions.
//
// The design splits every piece of state along one axis:
//
//   - Immutable, identical across tenants → shared. The decision rule
//     (monitor.Policy), the sensitive-device/alert table, and the
//     application catalog live in a Tables snapshot behind an atomic
//     pointer. Updates copy the whole snapshot and swap the pointer
//     (copy-on-write), so readers never lock and never observe a
//     half-updated table. Sharing is safe precisely because the data
//     never mutates in place: a read-only page cannot become a
//     cross-tenant side channel through its *contents*.
//
//   - Mutable, per-tenant → partitioned. Interaction stamps, the audit
//     ring, activity counters, the degraded flag and the optional
//     telemetry recorder are owned by their Session and touched by no
//     other. This is the "time protection" rule (Ge et al., PAPERS.md):
//     shared *writable* state is a timing probe between tenants, so one
//     tenant hammering its decision path must not dirty a cache line
//     another tenant's decision latency depends on.
//
// A Session is a monitor.Core — the decision core the single-desktop
// Monitor runs too: Policy.Evaluate, counters, audit ring, degraded
// flag — plus a private process map. Sessions are plain structs — no
// goroutine, no channel, no clock — so booting 100k of them costs only
// memory (256 bytes each until the first decision allocates the audit
// ring). Traffic enters through Fleet.Dispatch, which routes by session
// ID across a lock-striped session table.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"overhaul/internal/monitor"
	"overhaul/internal/probe"
	"overhaul/internal/workload"
)

// Sentinel errors.
var (
	ErrNoSuchSession = errors.New("fleet: no such session")
	ErrSessionClosed = errors.New("fleet: session closed")
	ErrNoSuchProcess = monitor.ErrNoSuchProcess
)

// Tables is one immutable copy-on-write snapshot of everything all
// sessions share: the decision policy, the alert-op table, and the
// application catalog. A Tables value is never mutated after
// construction — Fleet.UpdateTables builds a fresh copy and swaps the
// pointer — so any number of sessions may read it concurrently without
// coordination.
type Tables struct {
	policy   monitor.Policy
	alertOps map[monitor.Op]bool
	apps     map[string]workload.AppSpec
	gen      uint64 // snapshot generation, bumped on every swap
}

// Policy returns the shared decision rule.
func (t *Tables) Policy() monitor.Policy { return t.policy }

// Generation returns the snapshot's generation number.
func (t *Tables) Generation() uint64 { return t.gen }

// AlertOp reports whether a decision on op raises a visual alert.
func (t *Tables) AlertOp(op monitor.Op) bool { return t.alertOps[op] }

// App looks up an application spec in the shared catalog.
func (t *Tables) App(name string) (workload.AppSpec, bool) {
	s, ok := t.apps[name]
	return s, ok
}

// clone deep-copies the snapshot so a draft can be edited without
// touching the published version.
func (t *Tables) clone() *Tables {
	nt := &Tables{policy: t.policy, gen: t.gen}
	nt.alertOps = make(map[monitor.Op]bool, len(t.alertOps))
	for k, v := range t.alertOps {
		nt.alertOps[k] = v
	}
	nt.apps = make(map[string]workload.AppSpec, len(t.apps))
	for k, v := range t.apps {
		nt.apps[k] = v
	}
	return nt
}

// TablesDraft is a mutable copy handed to UpdateTables mutators.
type TablesDraft struct {
	// Policy is the decision rule to publish.
	Policy monitor.Policy
	// AlertOps is the op → raises-alert table.
	AlertOps map[monitor.Op]bool
	// Apps is the application catalog.
	Apps map[string]workload.AppSpec
}

// Config parameterises a Fleet.
type Config struct {
	// Policy is the shared decision rule. A zero Threshold selects
	// monitor.DefaultThreshold.
	Policy monitor.Policy
	// AlertOps lists ops whose decisions raise alerts; nil selects the
	// monitor's kernel-side default (mic, cam, other devices).
	AlertOps []monitor.Op
	// Apps seeds the shared application catalog; nil selects
	// workload.DevicePool().
	Apps []workload.AppSpec
	// AuditCapacity bounds each session's audit ring. Sessions are
	// numerous, so the default is deliberately small: 64 records.
	AuditCapacity int
	// Probes, when non-nil, arms the fleet.dispatch attach point,
	// fired for every ingress request routed to a session.
	Probes *probe.Registry
}

// DefaultAuditCapacity is the per-session audit ring size. 64 records
// × ~10k sessions ≈ tens of MB worst case, and a session is one
// desktop: its recent decision history, not a datacenter log.
const DefaultAuditCapacity = 64

// sessionShards stripes the session table. Power of two; 64 stripes
// keep create/destroy of unrelated sessions off each other's locks
// even with hundreds of concurrent tenants churning.
const sessionShards = 64

type sessionShard struct {
	mu sync.RWMutex
	m  map[uint64]*Session
}

// Fleet is the orchestrator: the shared Tables snapshot, the session
// table, and the ingress. Safe for concurrent use.
type Fleet struct {
	tables   atomic.Pointer[Tables]
	auditCap int // immutable after New
	// probeDispatch is the fleet.dispatch attach point, resolved once
	// at New; one atomic load per ingress request while unattached.
	probeDispatch *probe.Hook

	shards [sessionShards]sessionShard
	nextID atomic.Uint64
	live   atomic.Int64

	// updateMu serializes UpdateTables writers only; every read of the
	// snapshot goes through the atomic pointer, never this lock.
	updateMu sync.Mutex
}

// New boots an empty fleet.
func New(cfg Config) (*Fleet, error) {
	pol := cfg.Policy
	if pol.Threshold == 0 {
		pol.Threshold = monitor.DefaultThreshold
	}
	if pol.Threshold < 0 {
		return nil, fmt.Errorf("fleet: negative threshold %v", pol.Threshold)
	}
	appList := cfg.Apps
	if appList == nil {
		appList = workload.DevicePool()
	}
	apps := make(map[string]workload.AppSpec, len(appList))
	for _, s := range appList {
		apps[s.Name] = s
	}
	auditCap := cfg.AuditCapacity
	if auditCap == 0 {
		auditCap = DefaultAuditCapacity
	}
	if auditCap < 0 {
		return nil, fmt.Errorf("fleet: negative audit capacity %d", auditCap)
	}
	f := &Fleet{auditCap: auditCap}
	f.probeDispatch = cfg.Probes.Hook(probe.HookFleetDispatch)
	f.tables.Store(&Tables{policy: pol, alertOps: monitor.AlertOpSet(cfg.AlertOps), apps: apps, gen: 1})
	for i := range f.shards {
		f.shards[i].m = make(map[uint64]*Session)
	}
	return f, nil
}

// Tables returns the current shared snapshot. The pointer is safe to
// hold: the snapshot it addresses never changes, it only stops being
// current.
func (f *Fleet) Tables() *Tables { return f.tables.Load() }

// UpdateTables publishes a new shared snapshot: mutate receives a deep
// copy of the current tables as a draft, and the edited draft replaces
// the snapshot atomically. Sessions pick it up on their next decision;
// in-flight decisions finish against the snapshot they started with —
// the copy-on-write rule that makes a policy rollout safe under load.
func (f *Fleet) UpdateTables(mutate func(*TablesDraft)) {
	f.updateMu.Lock()
	defer f.updateMu.Unlock()
	cur := f.tables.Load()
	c := cur.clone()
	draft := TablesDraft{Policy: c.policy, AlertOps: c.alertOps, Apps: c.apps}
	mutate(&draft)
	next := &Tables{
		policy:   draft.Policy,
		alertOps: draft.AlertOps,
		apps:     draft.Apps,
		gen:      cur.gen + 1,
	}
	f.tables.Store(next)
}

func (f *Fleet) shard(id uint64) *sessionShard {
	return &f.shards[id&(sessionShards-1)]
}

// CreateSession boots one new session and returns it. Cost: one struct
// allocation and one striped-map insert — no goroutine, no clock, no
// pre-sized buffers.
func (f *Fleet) CreateSession() *Session {
	s := &Session{id: f.nextID.Add(1), fleet: f}
	s.Init(f.auditCap)
	sh := f.shard(s.id)
	sh.mu.Lock()
	sh.m[s.id] = s
	sh.mu.Unlock()
	f.live.Add(1)
	return s
}

// Session resolves a live session by ID.
func (f *Fleet) Session(id uint64) (*Session, bool) {
	sh := f.shard(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	return s, ok
}

// CloseSession tears a session down: it is removed from the ingress
// and every subsequent operation on it fails with ErrSessionClosed.
// Its partitioned state goes away with it — nothing a departed tenant
// wrote survives where a future tenant could read it.
func (f *Fleet) CloseSession(id uint64) error {
	sh := f.shard(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if !ok {
		return fmt.Errorf("close session %d: %w", id, ErrNoSuchSession)
	}
	s.closed.Store(true)
	f.live.Add(-1)
	return nil
}

// Size returns the number of live sessions.
func (f *Fleet) Size() int { return int(f.live.Load()) }

// SessionIDs returns the live session IDs in unspecified order.
func (f *Fleet) SessionIDs() []uint64 {
	out := make([]uint64, 0, f.Size())
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		for id := range sh.m {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	return out
}

// ForEachSession visits every live session. The visit runs without the
// shard lock held, so visitors may call back into the fleet.
func (f *Fleet) ForEachSession(visit func(*Session)) {
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		batch := make([]*Session, 0, len(sh.m))
		for _, s := range sh.m {
			batch = append(batch, s)
		}
		sh.mu.RUnlock()
		for _, s := range batch {
			visit(s)
		}
	}
}

// FleetStats aggregates activity across every live session.
type FleetStats struct {
	Sessions      int
	Notifications uint64
	Grants        uint64
	Denials       uint64
	Spawns        uint64
	Exits         uint64
	DroppedAudit  uint64
}

// StatsSnapshot sums the per-session counters into a fleet-wide view.
func (f *Fleet) StatsSnapshot() FleetStats {
	out := FleetStats{Sessions: f.Size()}
	f.ForEachSession(func(s *Session) {
		st := s.StatsSnapshot()
		out.Notifications += st.Notifications
		out.Grants += st.Grants
		out.Denials += st.Denials
		out.Spawns += st.Spawns
		out.Exits += st.Exits
		out.DroppedAudit += st.DroppedAudit
	})
	return out
}

// NewStandalone boots a fresh single-session fleet whose Tables are a
// private deep copy of f's current snapshot, and returns its one
// session. This is the "duplicated-tables" twin of a shared-snapshot
// session: the equivalence property test drives both with the same
// script and requires byte-identical audit and decision streams, which
// is what proves the copy-on-write sharing is semantically invisible.
func (f *Fleet) NewStandalone() *Session {
	nf := &Fleet{auditCap: f.auditCap}
	nf.tables.Store(f.tables.Load().clone())
	for i := range nf.shards {
		nf.shards[i].m = make(map[uint64]*Session)
	}
	return nf.CreateSession()
}

// RequestKind selects the ingress operation.
type RequestKind int

// Ingress operations: the two message classes of the netlink protocol,
// N_{A,t} and Q_{A,t}, addressed by session.
const (
	RequestNotify RequestKind = iota + 1
	RequestDecide
)

// Request is one unit of ingress traffic, routed by SessionID.
type Request struct {
	SessionID uint64
	Kind      RequestKind
	PID       int
	Op        monitor.Op
	Time      int64 // unix nanoseconds (stamp time for Notify, op time for Decide)
}

// Dispatch routes one request to its session: the fleet's single
// ingress. Decide requests return the verdict; Notify requests return
// verdict 0. Dispatch performs no allocation on the Decide hot path,
// which is what BenchmarkFleetDecide pins.
func (f *Fleet) Dispatch(req Request) (monitor.Verdict, error) {
	s, ok := f.Session(req.SessionID)
	if !ok {
		return 0, ErrNoSuchSession
	}
	var (
		v   monitor.Verdict
		err error
	)
	switch req.Kind {
	case RequestNotify:
		err = s.NotifyNanos(req.PID, req.Time)
	case RequestDecide:
		v, err = s.DecideNanos(req.PID, req.Op, req.Time)
	default:
		return 0, fmt.Errorf("fleet: unknown request kind %d", req.Kind)
	}
	if f.probeDispatch.Wants(int64(req.PID)) {
		ev := probe.Event{
			TimeNanos: req.Time,
			Session:   req.SessionID,
			PID:       int64(req.PID),
			Kind:      probe.KindDispatch,
			Dev:       probe.DevOf(string(req.Op)),
		}
		switch v {
		case monitor.VerdictGrant:
			ev.Verdict = probe.VerdictGrant
		case monitor.VerdictDeny:
			ev.Verdict = probe.VerdictDeny
		}
		f.probeDispatch.Emit(ev)
	}
	return v, err
}
