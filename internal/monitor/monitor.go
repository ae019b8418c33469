// Package monitor implements Overhaul's kernel permission monitor.
//
// The permission monitor (paper §III-B, §IV-B) is the component that
// makes every access-control decision. It records *interaction
// notifications* — "process P received authentic hardware input at time
// T" — pushed by the display manager over the authenticated channel, and
// answers *permission queries* by correlating a privileged operation's
// timestamp with the target process's most recent interaction: the
// operation is granted iff it falls within a configurable temporal
// proximity threshold δ of the interaction (the paper empirically
// settles on δ = 2 s).
//
// Following the paper's implementation, interaction timestamps live in
// the process table itself (the task_struct analogue): the monitor
// reads and writes them through the kernel's TaskTable. Everything
// after the table read is the decision Core — Policy.Evaluate, the
// activity counters, the audit log and the degraded flag — which is
// the same code a fleet session (internal/fleet) runs, so the
// single-desktop Monitor is a one-session fleet plus kernel glue:
// telemetry, probes and alert routing.
//
// The monitor is built to scale across cores: it holds no global lock.
// Mode flags (degraded, alert sink) and activity counters are atomics,
// the audit log is lock-striped by pid (auditShards rings), and all
// telemetry on the decision path flows through pre-resolved handles, so
// concurrent Decide calls on different processes share no contended
// cache line beyond the counters and the telemetry rings.
package monitor

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/probe"
	"overhaul/internal/telemetry"
)

// DefaultThreshold is δ, the temporal proximity window. The paper found
// <1 s causes false denials while 2 s never broke legitimate programs
// over a 21-day deployment.
const DefaultThreshold = 2 * time.Second

// Op names a privileged operation class, matching the paper's
// op ∈ {copy, paste, scr, mic, cam}.
type Op string

// Privileged operations mediated by Overhaul.
const (
	OpCopy   Op = "copy"
	OpPaste  Op = "paste"
	OpScreen Op = "scr"
	OpMic    Op = "mic"
	OpCam    Op = "cam"
	OpOther  Op = "dev" // any other sensitive device class
)

// knownOps enumerates the operation classes above; the monitor
// pre-resolves telemetry handles for each so the decision path never
// builds a label string.
var knownOps = []Op{OpCopy, OpPaste, OpScreen, OpMic, OpCam, OpOther}

// Verdict is the outcome of a permission query.
type Verdict int

// Verdicts. Enums start at one so the zero value is invalid.
const (
	VerdictGrant Verdict = iota + 1
	VerdictDeny
)

// String returns "grant" or "deny".
func (v Verdict) String() string {
	switch v {
	case VerdictGrant:
		return "grant"
	case VerdictDeny:
		return "deny"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// TaskTable is the kernel-side process table view the monitor needs:
// where interaction stamps live, the span that minted each, and the
// ptrace guard. The kernel's sharded process table answers a view with
// a handful of atomic loads, so Decide takes no lock at all.
type TaskTable interface {
	// InteractionView returns pid's most recent authentic-interaction
	// stamp, the span that minted it, and whether its permissions are
	// force-disabled (it is being ptraced). ok is false if the process
	// does not exist.
	InteractionView(pid int) (stamp time.Time, ctx telemetry.SpanContext, disabled bool, ok bool)
	// SetInteractionStampSpan records an interaction time for pid
	// together with the span that delivered it, only if newer than the
	// currently stored stamp (stamp and span are one newest-wins unit).
	SetInteractionStampSpan(pid int, t time.Time, ctx telemetry.SpanContext) error
}

// AlertRequest asks the display manager to show a trusted-output visual
// alert: "process PID performed Op" (V_{A,op} in the paper), or — for
// Blocked requests — that an undesired access attempt was stopped (the
// §V-B user-study scenario: a hidden camera access is blocked *and* the
// user is alerted). Degraded requests carry the distinct
// protection-degraded wording: the denial happened because the
// mediation path itself is broken, not because the stamp was stale.
type AlertRequest struct {
	PID      int
	Op       Op
	Time     time.Time
	Blocked  bool
	Degraded bool
	// Ctx is the decision span that raised the alert; the display
	// manager parents the render span on it so one trace covers input →
	// decision → alert. Zero when telemetry is disabled.
	Ctx telemetry.SpanContext
}

// AlertFunc delivers an AlertRequest to the display manager. It is
// called synchronously from Decide; implementations route it over the
// authenticated netlink channel.
type AlertFunc func(AlertRequest)

// Decision records one permission query and its outcome.
type Decision struct {
	PID     int
	Op      Op
	OpTime  time.Time
	Stamp   time.Time // interaction stamp consulted (zero if none)
	Verdict Verdict
	Reason  string
	// Degraded marks denials issued while the monitor was in degraded
	// (fail-closed) mode rather than by the temporal-proximity rule.
	Degraded bool
}

// ErrNoSuchProcess is returned by Notify for unknown PIDs.
var ErrNoSuchProcess = errors.New("no such process")

// Config parameterises the monitor.
type Config struct {
	// Threshold is δ. Zero means DefaultThreshold.
	Threshold time.Duration
	// ForceGrant short-circuits every decision to grant while still
	// exercising the full decision path. The paper enables this mode
	// for the Table I performance measurements so that benchmarks
	// measure the complete grant path without real user input.
	ForceGrant bool
	// Enforce controls whether deny verdicts are produced at all.
	// When false the monitor runs in observe-only mode: decisions and
	// audit records are produced but everything is granted. Used by
	// the unprotected baseline machine in the §V-D experiment.
	Enforce bool
	// AlertOps lists operations whose decisions raise a visual alert
	// *from the kernel side* (V_{A,op} over the netlink channel; a
	// denial's alert is marked Blocked).
	// That covers kernel-mediated hardware devices; for
	// display-manager-mediated resources the display manager raises
	// the alert itself (screen capture) or stays silent by design
	// (clipboard — usability, §V-C). Nil selects that default.
	AlertOps []Op
	// AuditCapacity bounds each audit shard's ring (oldest entries are
	// dropped). Decisions are striped across auditShards rings by pid,
	// so records for one process always compete with each other — and
	// with any pid sharing its shard — for the same AuditCapacity
	// slots. Zero means 1024 per shard.
	AuditCapacity int
	// Telemetry, when non-nil, receives metrics, decision spans, and
	// flight-recorder events. Nil disables instrumentation entirely
	// (zero allocations on the Decide hot path).
	Telemetry *telemetry.Recorder
	// Probes, when non-nil, arms the monitor's probe attach points
	// (monitor.evaluate, monitor.audit, kernel.decide). Nil leaves the
	// hooks unresolved; each attach point then costs a single nil check
	// on the decision path.
	Probes *probe.Registry
}

// AlertOpSet builds an alert-op table from a configured list; nil
// selects the kernel-mediated device operations. Screen capture alerts
// are raised by the display manager directly (it can identify the
// requesting process without kernel assistance, §III-C), and clipboard
// operations are silent but logged.
func AlertOpSet(ops []Op) map[Op]bool {
	if ops == nil {
		ops = []Op{OpMic, OpCam, OpOther}
	}
	set := make(map[Op]bool, len(ops))
	for _, op := range ops {
		set[op] = true
	}
	return set
}

// auditShards stripes the Monitor's audit log by pid. Power of two so
// the ring index is a mask; 8 shards keep contention negligible at the
// core counts the ROADMAP targets while costing 8 small rings.
const auditShards = 8

// opIndex maps a known op to its dense index in knownOps order, -1
// for unknown ops. The decision path indexes its pre-resolved handle
// arrays with it: a string switch compiles to a length bucket plus a
// constant compare, which profiles measurably cheaper than hashing the
// op into a map on every decision.
func opIndex(op Op) int {
	switch op {
	case OpCopy:
		return 0
	case OpPaste:
		return 1
	case OpScreen:
		return 2
	case OpMic:
		return 3
	case OpCam:
		return 4
	case OpOther:
		return 5
	}
	return -1
}

// Monitor is the kernel permission monitor. It is safe for concurrent
// use and holds no global lock: see the package comment.
type Monitor struct {
	core     Core
	tasks    TaskTable
	pol      Policy
	alertOps map[Op]bool // read-only after New
	// alertFast mirrors alertOps indexed by opIndex: the decision path
	// tests membership without hashing the op string.
	alertFast [6]bool
	tel       *telemetry.Recorder // nil-safe; nil means disabled

	// Probe attach points, resolved once at construction. Each costs
	// one atomic load per decision while unattached (nil when the
	// monitor was built without a probe registry: one nil check).
	probeEval   *probe.Hook // monitor.evaluate
	probeAudit  *probe.Hook // monitor.audit
	probeDecide *probe.Hook // kernel.decide

	alertFn atomic.Value // AlertFunc (typed nil disables)

	// Pre-resolved telemetry handles (nil handles no-op when telemetry
	// is disabled; decisionCounters/stampAge are read-only after New).
	mNotifications   *telemetry.Counter
	mNotifyErrors    *telemetry.Counter
	mAuditAppends    *telemetry.Counter
	mDegradations    *telemetry.Counter
	mDenialsRecorded *telemetry.Counter
	// Indexed [opIndex(op)][verdict]; verdicts start at 1, so row
	// length is 3 with slot 0 unused.
	decisionCounters [][3]*telemetry.Counter
	stampAge         []*telemetry.Histogram // indexed by opIndex(op)
}

// Stats aggregates monitor activity. AlertsSent counts alerts due: a
// decision on an op in the alert set raises one on a grant and on a
// denial alike (a denial's is marked Blocked). The Monitor counts them
// only while an alert sink is installed.
type Stats struct {
	Notifications   uint64
	Queries         uint64
	Grants          uint64
	Denials         uint64
	AlertsSent      uint64
	DegradedDenials uint64
}

// New constructs a Monitor over the given task table.
func New(clk clock.Clock, tasks TaskTable, cfg Config) (*Monitor, error) {
	if clk == nil {
		return nil, errors.New("monitor: nil clock")
	}
	if tasks == nil {
		return nil, errors.New("monitor: nil task table")
	}
	threshold := cfg.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	if threshold < 0 {
		return nil, fmt.Errorf("monitor: negative threshold %v", threshold)
	}
	auditCap := cfg.AuditCapacity
	if auditCap == 0 {
		auditCap = 1024
	}
	m := &Monitor{
		tasks:    tasks,
		pol:      Policy{Threshold: threshold, Force: cfg.ForceGrant, Enforce: cfg.Enforce},
		alertOps: AlertOpSet(cfg.AlertOps),
		tel:      cfg.Telemetry,
	}
	m.core.Init(auditCap)
	m.core.rings = make([]auditRing, auditShards)
	for op := range m.alertOps {
		if i := opIndex(op); i >= 0 {
			m.alertFast[i] = true
		}
	}
	m.probeEval = cfg.Probes.Hook(probe.HookMonitorEvaluate)
	m.probeAudit = cfg.Probes.Hook(probe.HookMonitorAudit)
	m.probeDecide = cfg.Probes.Hook(probe.HookKernelDecide)
	if tel := cfg.Telemetry; tel.Enabled() {
		// Resolve every handle the decision path can hit once, here.
		// Never-updated handles stay invisible in snapshots, so this
		// does not surface zero-valued series.
		m.mNotifications = tel.Counter("monitor", "notifications", "")
		m.mNotifyErrors = tel.Counter("monitor", "notify_errors", "")
		m.mAuditAppends = tel.Counter("monitor", "audit_appends", "")
		m.mDegradations = tel.Counter("monitor", "degradations", "")
		m.mDenialsRecorded = tel.Counter("monitor", "denials_recorded", "")
		m.decisionCounters = make([][3]*telemetry.Counter, len(knownOps))
		m.stampAge = make([]*telemetry.Histogram, len(knownOps))
		for _, op := range knownOps {
			i := opIndex(op)
			for _, v := range []Verdict{VerdictGrant, VerdictDeny} {
				m.decisionCounters[i][v] =
					tel.Counter("monitor", "decisions", "op="+string(op)+" verdict="+v.String())
			}
			m.stampAge[i] = tel.Histogram("monitor", "stamp_age", "op="+string(op))
		}
	}
	return m, nil
}

// Threshold returns δ.
func (m *Monitor) Threshold() time.Duration { return m.pol.Threshold }

// SetAlertFunc installs the trusted-output alert sink. Passing nil
// disables alert dispatch.
func (m *Monitor) SetAlertFunc(fn AlertFunc) {
	m.alertFn.Store(fn)
}

// alertSink returns the installed alert sink, or nil.
func (m *Monitor) alertSink() AlertFunc {
	fn, _ := m.alertFn.Load().(AlertFunc)
	return fn
}

// countDecision bumps the per-(op, verdict) decision counter; unknown
// op classes fall back to the string-keyed registry.
func (m *Monitor) countDecision(op Op, v Verdict) {
	if i := opIndex(op); i >= 0 && v > 0 && int(v) < 3 && m.decisionCounters != nil {
		if c := m.decisionCounters[i][v]; c != nil {
			c.Add(1)
			return
		}
	}
	m.tel.Add("monitor", "decisions", "op="+string(op)+" verdict="+v.String(), 1)
}

// observeStampAge records the stamp-age observation for op, like
// countDecision.
func (m *Monitor) observeStampAge(op Op, age time.Duration) {
	if i := opIndex(op); i >= 0 && m.stampAge != nil {
		if h := m.stampAge[i]; h != nil {
			h.Observe(age)
			return
		}
	}
	m.tel.Observe("monitor", "stamp_age", "op="+string(op), age)
}

// Notify records an interaction notification N_{A,t}: authentic user
// input was delivered to pid at time t. Only the display manager may
// invoke this (enforced by channel authentication one layer up).
func (m *Monitor) Notify(pid int, t time.Time) error {
	return m.NotifyCtx(telemetry.SpanContext{}, pid, t)
}

// NotifyCtx is Notify carrying the trace context of the input event
// that caused the notification. The notify span is stored in the task
// struct alongside the stamp it mints, so a later permission query
// within δ links back to this interaction.
//
// Against the kernel's sharded table the stamp write is a lock-free
// CAS-max; this method itself takes no lock either.
func (m *Monitor) NotifyCtx(ctx telemetry.SpanContext, pid int, t time.Time) error {
	span := m.tel.StartSpan(ctx, "monitor", "notify")
	defer span.End()
	if err := m.tasks.SetInteractionStampSpan(pid, t, span.Context()); err != nil {
		if m.tel.Enabled() {
			span.Annotate("error", err.Error())
			m.mNotifyErrors.Add(1)
		}
		return fmt.Errorf("monitor notify pid %d: %w", pid, err)
	}
	m.core.CountNotify()
	if m.tel.Enabled() {
		span.AnnotateInt("pid", int64(pid))
		m.mNotifications.Add(1)
	}
	return nil
}

// SetDegraded switches the monitor into fail-closed degraded mode:
// every subsequent decision denies with a distinct
// "protection degraded" reason until ClearDegraded. The core flips
// this when a trusted component the decision path depends on — in
// practice the netlink channel — is detected dead: a monitor that
// cannot reach its sensors' user must block the sensors.
func (m *Monitor) SetDegraded(reason string) {
	m.core.SetDegraded(reason)
	if m.tel.Enabled() {
		reason, _ = m.core.DegradedReason()
		m.mDegradations.Add(1)
		// A degradation is a flight-recorder trip: snapshot the ring so
		// the events leading up to the trusted-component failure are
		// preserved even if the ring keeps rolling afterwards.
		m.tel.TripFlight(telemetry.SpanContext{}, "monitor", "protection degraded: "+reason)
	}
}

// ClearDegraded returns the monitor to normal operation (the channel
// was re-established).
func (m *Monitor) ClearDegraded() {
	m.core.ClearDegraded()
	m.tel.RecordEvent(telemetry.SpanContext{}, "monitor", "recovery", "degraded mode cleared")
}

// DegradedReason returns the degradation reason and whether the
// monitor is currently degraded.
func (m *Monitor) DegradedReason() (string, bool) { return m.core.DegradedReason() }

// probeDevs maps opIndex to the probe-layer device class.
var probeDevs = [6]probe.Dev{
	probe.DevCopy, probe.DevPaste, probe.DevScreen,
	probe.DevMic, probe.DevCam, probe.DevOther,
}

// probeEvent flattens a decision into a probe event. Reasons are
// interned to codes; dynamic reason text (staleness, δ) is
// reconstructable from TimeNanos/StampNanos and the threshold, so the
// event stays fixed-size and the emission allocation-free.
func probeEvent(kind probe.Kind, d *Decision) probe.Event {
	ev := probe.Event{
		TimeNanos: d.OpTime.UnixNano(),
		PID:       int64(d.PID),
		Kind:      kind,
		Reason:    probe.ReasonOf(d.Reason),
	}
	if !d.Stamp.IsZero() {
		ev.StampNanos = d.Stamp.UnixNano()
	}
	if i := opIndex(d.Op); i >= 0 {
		ev.Dev = probeDevs[i]
	}
	switch d.Verdict {
	case VerdictGrant:
		ev.Verdict = probe.VerdictGrant
	case VerdictDeny:
		ev.Verdict = probe.VerdictDeny
	}
	return ev
}

// audited fires the audit and decide attach points for a decision the
// core has just audited. Every audit append is mirrored to a telemetry
// counter so the audit log and overhaul-top can never silently
// disagree.
func (m *Monitor) audited(d *Decision) {
	if m.probeAudit.Wants(int64(d.PID)) {
		m.probeAudit.Emit(probeEvent(probe.KindAudit, d))
	}
	m.mAuditAppends.Add(1)
	if m.probeDecide.Wants(int64(d.PID)) {
		m.probeDecide.Emit(probeEvent(probe.KindDecide, d))
	}
}

// Decide answers a permission query Q_{A,t}: may pid perform op at
// opTime? It consults the process's interaction stamp, applies the
// temporal-proximity rule, appends an audit record, and — for
// operations in the alert set — dispatches a visual alert request
// (marked Blocked on a denial). While the monitor is degraded, every
// query denies (fail closed) with the distinct protection-degraded
// reason.
func (m *Monitor) Decide(pid int, op Op, opTime time.Time) Verdict {
	return m.DecideCtx(telemetry.SpanContext{}, pid, op, opTime)
}

// DecideCtx is Decide carrying the trace context of the event that
// triggered the query (typically the kernel open span, itself parented
// on the interaction that minted the process's stamp). With telemetry
// disabled it is exactly the Decide hot path: zero extra allocations,
// verified by BenchmarkDecideTelemetryDisabled; with telemetry enabled
// the only allocation is the retained decision span.
func (m *Monitor) DecideCtx(ctx telemetry.SpanContext, pid int, op Op, opTime time.Time) Verdict {
	stamp, sc, disabled, exists := m.tasks.InteractionView(pid)
	if m.tel.Enabled() && !ctx.Valid() {
		// No explicit parent: join the trace of the interaction that
		// minted the process's current stamp. This is what connects a
		// bare Decide to its enabling input.
		ctx = sc
	}
	span := m.tel.StartSpan(ctx, "monitor", "decide")
	defer span.End()

	alertFn := m.alertSink()
	oi := opIndex(op)
	alertOp := alertFn != nil && (oi >= 0 && m.alertFast[oi] || oi < 0 && m.alertOps[op])
	d := Decision{PID: pid, Op: op, OpTime: opTime, Stamp: stamp}
	verdict := m.core.Decide(m.pol, &d, exists, disabled, alertOp)
	if m.probeEval.Wants(int64(pid)) {
		m.probeEval.Emit(probeEvent(probe.KindEvaluate, &d))
	}
	m.audited(&d)

	if m.tel.Enabled() {
		span.AnnotateDecision(int64(pid), string(op), verdict.String(), d.Reason)
		m.countDecision(op, verdict)
		if !stamp.IsZero() {
			// Distribution of stamp ages at decision time: the paper's δ
			// sweep (§V-A) in histogram form.
			m.observeStampAge(op, opTime.Sub(stamp))
		}
		m.tel.RecordDecision(span.Context(), "monitor", pid, string(op), verdict.String(), d.Reason)
		if verdict == VerdictDeny {
			// Every denial trips the flight recorder: the dump's final
			// events carry the deny reason plus whatever preceded it
			// (injected faults, channel loss, stale stamps).
			m.tel.TripFlight(span.Context(), "monitor",
				"deny pid="+strconv.Itoa(pid)+" op="+string(op)+": "+d.Reason)
		}
	}

	if alertOp {
		alertFn(AlertRequest{PID: pid, Op: op, Time: opTime, Blocked: verdict == VerdictDeny, Degraded: d.Degraded, Ctx: span.Context()})
	}
	return verdict
}

// RecordDenial appends an audit record for a denial decided *outside*
// the monitor — e.g. a sensitive-device open aborted by a transient
// kernel error. The fail-closed policy turns such failures into
// denials, and this method keeps them from being silent: every denial
// along the decision path leaves an audit record.
func (m *Monitor) RecordDenial(pid int, op Op, opTime time.Time, reason string) {
	m.RecordDenialCtx(telemetry.SpanContext{}, pid, op, opTime, reason)
}

// RecordDenialCtx is RecordDenial carrying the trace context of the
// failed operation.
func (m *Monitor) RecordDenialCtx(ctx telemetry.SpanContext, pid int, op Op, opTime time.Time, reason string) {
	stamp, _, _, _ := m.tasks.InteractionView(pid)
	d := Decision{PID: pid, Op: op, OpTime: opTime, Stamp: stamp, Verdict: VerdictDeny, Reason: reason}
	m.core.record(&d, false)
	m.audited(&d)
	if m.tel.Enabled() {
		m.countDecision(op, VerdictDeny)
		m.mDenialsRecorded.Add(1)
		m.tel.TripFlight(ctx, "monitor",
			"deny pid="+strconv.Itoa(pid)+" op="+string(op)+": "+reason)
	}
}

// Audit returns a merged copy of the audit log, oldest first.
func (m *Monitor) Audit() []Decision { return m.core.Audit() }

// DroppedAudit reports how many audit records were evicted, summed
// across shards.
func (m *Monitor) DroppedAudit() uint64 { return m.core.DroppedAudit() }

// StatsSnapshot returns a copy of the activity counters.
func (m *Monitor) StatsSnapshot() Stats { return m.core.StatsSnapshot() }
