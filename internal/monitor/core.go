package monitor

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Core is the one decision core: everything that happens to a
// permission query after the task store has been read. It owns the
// fail-closed degraded flag, the activity counters, and the audit log
// (bounded drop-oldest rings filled in place, with an optional sink),
// and it runs the one decision sequence: Policy.Evaluate → count →
// audit append → alert due.
//
// The single-desktop Monitor is a Core plus task-store, telemetry,
// probe and alert-routing glue; a fleet session (internal/fleet) is a
// Core plus its private process map. Each core's mutable state is its
// own: two cores share nothing but the read-only Policy they are
// handed.
//
// A Core is used in place (it holds locks): embed it, call Init once,
// and never copy it afterwards. All other methods are safe for
// concurrent use.
type Core struct {
	capacity int            // slots per ring
	sink     func(Decision) // nil: ring only
	degraded atomic.Pointer[string]
	stats    coreStats
	// rings is the audit log: one ring (one[:]) for a fleet session,
	// auditShards pid-striped rings for the Monitor. Its length is a
	// power of two so a pid picks its ring with a mask.
	rings []auditRing
	one   [1]auditRing
}

// coreStats are the activity counters, all atomics so the decision
// path never locks to count. Grants are not counted separately: every
// query resolves to exactly one of grant or deny, so they are derived
// at snapshot time, and the query count doubles as the audit log's
// merge order — a granted decision pays one atomic increment.
type coreStats struct {
	notifications   atomic.Uint64
	queries         atomic.Uint64
	denials         atomic.Uint64
	alerts          atomic.Uint64
	degradedDenials atomic.Uint64
}

// auditRing is one bounded audit ring: capacity Decision slots,
// allocated on the first append and then filled in place, oldest
// record dropped when full.
type auditRing struct {
	mu      sync.Mutex
	recs    []Decision
	seqs    []uint64 // per-slot merge order; nil on a single-ring core
	head    int      // index of the oldest record
	n       int
	dropped uint64
}

// Init readies a zero Core with one audit ring of capacity records.
func (c *Core) Init(capacity int) {
	c.capacity = capacity
	c.rings = c.one[:]
}

// SetAuditSink attaches a callback that receives every decision the
// core audits, in audit order — the bridge from the bounded ring to a
// durable store (auditstore.SessionSink). Nil detaches. It must be set
// before traffic starts; the callback runs inside the audit critical
// section and must not block or call back into the core.
func (c *Core) SetAuditSink(fn func(Decision)) { c.sink = fn }

// SetDegraded switches the core into fail-closed degraded mode: every
// subsequent decision of an enforcing policy denies with a distinct
// "protection degraded" reason until ClearDegraded.
func (c *Core) SetDegraded(reason string) {
	if reason == "" {
		reason = "trusted component failure"
	}
	c.degraded.Store(&reason)
}

// ClearDegraded returns the core to normal operation.
func (c *Core) ClearDegraded() { c.degraded.Store(nil) }

// DegradedReason returns the degradation reason and whether the core
// is currently degraded.
func (c *Core) DegradedReason() (string, bool) {
	if p := c.degraded.Load(); p != nil {
		return *p, true
	}
	return "", false
}

// CountNotify counts one accepted interaction notification.
func (c *Core) CountNotify() { c.stats.notifications.Add(1) }

// Decide runs the decision sequence on d, whose PID, Op, OpTime and
// Stamp the caller has read from its task store (exists and disabled
// complete that view): Policy.Evaluate under pol and the core's
// degraded flag sets d's verdict, reason and degraded mark, then the
// decision is counted and audited. alertOp says the op is in the
// caller's alert set: an alert is then due whatever the verdict — a
// grant is announced, a denial is reported as blocked (§V-B) — and is
// counted here; routing it is the caller's job. Decide returns d's
// verdict. d is filled in place rather than returned: the Decision is
// wide enough that the copies show up on the decision path.
func (c *Core) Decide(pol Policy, d *Decision, exists, disabled, alertOp bool) Verdict {
	degraded, _ := c.DegradedReason()
	d.Verdict, d.Reason = pol.Evaluate(Query{OpTime: d.OpTime, Stamp: d.Stamp, Degraded: degraded, Exists: exists, Disabled: disabled})
	d.Degraded = pol.DegradedDenial(degraded)
	c.record(d, alertOp)
	return d.Verdict
}

// record counts and audits one decision.
func (c *Core) record(d *Decision, alertOp bool) {
	seq := c.stats.queries.Add(1)
	if d.Verdict != VerdictGrant {
		c.stats.denials.Add(1)
		if d.Degraded {
			c.stats.degradedDenials.Add(1)
		}
	}
	if alertOp {
		c.stats.alerts.Add(1)
	}
	r := &c.rings[uint(d.PID)&uint(len(c.rings)-1)]
	r.mu.Lock()
	if r.recs == nil {
		// Allocated once, on first use: a core that never decides
		// costs no ring, and the hot path never churns the allocator.
		r.recs = make([]Decision, c.capacity)
		if len(c.rings) > 1 {
			r.seqs = make([]uint64, c.capacity)
		}
	}
	i := r.head
	if r.n == c.capacity {
		r.head = (r.head + 1) % c.capacity
		r.dropped++
	} else {
		i = (r.head + r.n) % c.capacity
		r.n++
	}
	// Filled in place: the Decision is wide enough that an extra
	// construct-then-copy shows up in profiles.
	r.recs[i] = *d
	if r.seqs != nil {
		r.seqs[i] = seq
	}
	if c.sink != nil {
		// Under r.mu: the sink sees decisions in exactly ring order.
		c.sink(*d)
	}
	r.mu.Unlock()
}

// Audit returns a copy of the audit log in decision order, oldest
// first (nil when empty).
func (c *Core) Audit() []Decision {
	type entry struct {
		seq uint64
		d   Decision
	}
	var all []entry
	for i := range c.rings {
		r := &c.rings[i]
		r.mu.Lock()
		for j := 0; j < r.n; j++ {
			k := (r.head + j) % c.capacity
			e := entry{d: r.recs[k]}
			if r.seqs != nil {
				e.seq = r.seqs[k]
			}
			all = append(all, e)
		}
		r.mu.Unlock()
	}
	if len(all) == 0 {
		return nil
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	out := make([]Decision, len(all))
	for i := range all {
		out[i] = all[i].d
	}
	return out
}

// DroppedAudit reports how many audit records were evicted.
func (c *Core) DroppedAudit() uint64 {
	var total uint64
	for i := range c.rings {
		r := &c.rings[i]
		r.mu.Lock()
		total += r.dropped
		r.mu.Unlock()
	}
	return total
}

// StatsSnapshot returns a copy of the activity counters.
func (c *Core) StatsSnapshot() Stats {
	// Denials first: a denial bumps queries before denials, so this
	// order never sees more denials than queries.
	denials := c.stats.denials.Load()
	queries := c.stats.queries.Load()
	return Stats{
		Notifications:   c.stats.notifications.Load(),
		Queries:         queries,
		Grants:          queries - denials,
		Denials:         denials,
		AlertsSent:      c.stats.alerts.Load(),
		DegradedDenials: c.stats.degradedDenials.Load(),
	}
}
