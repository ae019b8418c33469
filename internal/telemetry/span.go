package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one causally connected decision path (e.g. one
// user interaction and every enforcement step it enables). IDs are
// sequential from 1, never random, so traces are stable across runs.
type TraceID uint64

// SpanID identifies one span. IDs are sequential from 1 in creation
// order across all traces.
type SpanID uint64

// SpanContext is the propagation token: enough to link a child span to
// its parent across a process, channel, or IPC boundary. The zero value
// means "no context" and starts a fresh trace.
//
// Contexts ride the same paths interaction timestamps do: the netlink
// message structs carry one alongside the stamp time, the kernel's
// task struct stores the context that minted the current stamp
// (inherited on fork, P1), and the IPC carriers embed it next to the
// stamp they propagate (P2).
type SpanContext struct {
	Trace TraceID `json:"trace"`
	Span  SpanID  `json:"span"`
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// maxSpanAttrs bounds per-span annotations. Fixed-size storage keeps
// Annotate allocation-free; the decision path uses four and no caller
// in the tree uses more than five, so six leaves headroom while
// keeping the Span small enough that recycling it stays cache-friendly.
const maxSpanAttrs = 6

// attrSlot is fixed-size annotation storage. Integer values are kept as
// numbers and rendered only when the span is snapshot, so annotating a
// pid costs no strconv allocation on the hot path.
type attrSlot struct {
	key   string
	str   string
	num   int64
	isNum bool
}

// tracerStore is the span ring. The mutex guards ID allocation and the
// ring slots; span contents after creation are immutable or atomic, so
// Annotate/End never take it.
type tracerStore struct {
	mu       sync.Mutex
	traceSeq uint64
	spanSeq  uint64
	ring     []*Span // creation order: ring[(head+i)%cap], bounded by spanCap
	head     int
	n        int
	dropped  uint64
	free     []*Span // recycled span storage, see StartSpan
}

// Span is one timed step on a decision path. Spans are created by
// Recorder.StartSpan and must be closed with End on every return path
// (the spancheck analyzer enforces this mechanically). All methods are
// no-ops on a nil receiver, so instrumented code needs no nil checks
// when telemetry is disabled.
//
// Identity, start time, and naming are fixed at creation; the end time
// and the annotations are atomics, so a span in the ring can be
// snapshot while its owner is still annotating it. Annotation slots are
// published with a per-slot ready flag: a writer reserves a slot,
// fills it, then flips the flag, and snapshots take the ready prefix.
type Span struct {
	rec       *Recorder
	ctx       SpanContext
	parent    SpanID
	subsystem string
	name      string
	start     time.Time

	endNanos    atomic.Int64 // 0 = still open
	attrReserve atomic.Int32
	attrReady   [maxSpanAttrs]atomic.Bool
	attrs       [maxSpanAttrs]attrSlot
}

// reset prepares recycled storage for a new span. Only the ready flags
// are lowered — snapshots read the published prefix, so stale slot
// contents behind a lowered flag are unobservable. The slots
// themselves are left as-is: they hold interned keys and short static
// values, so the retention until overwrite is bounded and tiny, and
// skipping the zeroing keeps the hot path short.
func (s *Span) reset(r *Recorder, parent SpanContext, subsystem, name string) {
	n := int(s.attrReserve.Load())
	if n > maxSpanAttrs {
		n = maxSpanAttrs
	}
	for i := 0; i < n; i++ {
		s.attrReady[i].Store(false)
	}
	s.attrReserve.Store(0)
	s.endNanos.Store(0)
	s.rec = r
	s.parent = parent.Span
	s.subsystem = subsystem
	s.name = name
	s.start = r.now()
}

// StartSpan opens a span under parent. A zero parent starts a new
// trace. Returns nil (a usable no-op span) on a nil recorder.
//
// Span storage is recycled through a free list owned by the tracer
// mutex: a span becomes eligible for reuse only once it is both ended
// and evicted from the ring, at which point it is unobservable
// (snapshots copy, nothing retains the pointer). An unended span at
// eviction is left for the garbage collector instead — its owner may
// still be annotating it. Once the ring has cycled, every StartSpan is
// served from the free list, so the steady-state decision path
// allocates nothing (a sync.Pool would reach the same steady state
// only between GC cycles; the explicit list survives them).
func (r *Recorder) StartSpan(parent SpanContext, subsystem, name string) *Span {
	if r == nil {
		return nil
	}
	t := &r.tracer
	t.mu.Lock()
	var s *Span
	if n := len(t.free); n > 0 {
		s = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	} else {
		s = new(Span)
	}
	// Reset under the lock: the span is visible to snapshots the moment
	// it enters the ring, so its fields must be settled first.
	s.reset(r, parent, subsystem, name)
	t.spanSeq++
	trace := parent.Trace
	if trace == 0 {
		t.traceSeq++
		trace = TraceID(t.traceSeq)
	}
	s.ctx = SpanContext{Trace: trace, Span: SpanID(t.spanSeq)}
	if t.ring == nil {
		t.ring = make([]*Span, r.spanCap)
	}
	if t.n == r.spanCap {
		// Drop-oldest keeps the recorder bounded; the drop is counted so
		// a truncated trace is distinguishable from a complete one.
		if old := t.ring[t.head]; old.endNanos.Load() != 0 {
			t.free = append(t.free, old)
		}
		t.ring[t.head] = s
		t.head = (t.head + 1) % r.spanCap
		t.dropped++
	} else {
		t.ring[(t.head+t.n)%r.spanCap] = s
		t.n++
	}
	t.mu.Unlock()
	return s
}

// Context returns the span's propagation token (zero on nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// annotateSlot reserves the next attribute slot and publishes it.
// Annotations beyond maxSpanAttrs are dropped.
func (s *Span) annotateSlot(a attrSlot) {
	i := s.attrReserve.Add(1) - 1
	if int(i) >= maxSpanAttrs {
		return
	}
	s.attrs[i] = a
	s.attrReady[i].Store(true)
}

// Annotate attaches a key/value attribute to the span. Lock-free.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.annotateSlot(attrSlot{key: key, str: value})
}

// AnnotateInt attaches an integer attribute. The value is rendered in
// decimal only when the span is snapshot, keeping the caller
// allocation-free.
func (s *Span) AnnotateInt(key string, value int64) {
	if s == nil {
		return
	}
	s.annotateSlot(attrSlot{key: key, num: value, isNum: true})
}

// AnnotateDecision attaches the four canonical decision attributes —
// pid, op, verdict, reason — with a single slot reservation. It is
// the batched form of four Annotate calls for the decision hot path:
// one atomic reservation instead of four, same published-prefix
// visibility rules. Dropped whole if fewer than four slots remain.
func (s *Span) AnnotateDecision(pid int64, op, verdict, reason string) {
	if s == nil {
		return
	}
	i := int(s.attrReserve.Add(4)) - 4
	if i+4 > maxSpanAttrs {
		return
	}
	s.attrs[i] = attrSlot{key: "pid", num: pid, isNum: true}
	s.attrReady[i].Store(true)
	s.attrs[i+1] = attrSlot{key: "op", str: op}
	s.attrReady[i+1].Store(true)
	s.attrs[i+2] = attrSlot{key: "verdict", str: verdict}
	s.attrReady[i+2].Store(true)
	s.attrs[i+3] = attrSlot{key: "reason", str: reason}
	s.attrReady[i+3].Store(true)
}

// End closes the span at the recorder's current instant. Ending twice
// keeps the first end time.
//
// A span is dead after End: once it has ended, a later StartSpan on any
// goroutine may recycle it, so the caller must not touch it again — take
// its Context before End if the trace continues past it.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endNanos.CompareAndSwap(0, s.rec.nowNanos())
}

// SpanRecord is the immutable snapshot form of a span.
type SpanRecord struct {
	Trace     TraceID   `json:"trace"`
	ID        SpanID    `json:"id"`
	Parent    SpanID    `json:"parent,omitempty"`
	Subsystem string    `json:"subsystem"`
	Name      string    `json:"name"`
	Start     time.Time `json:"start"`
	End       time.Time `json:"end,omitempty"`
	Ended     bool      `json:"ended"`
	Attrs     []Attr    `json:"attrs,omitempty"`
}

// record snapshots one span. Safe to call concurrently with Annotate
// and End: it reads the published prefix of the attribute slots.
func (s *Span) record() SpanRecord {
	n := int(s.attrReserve.Load())
	if n > maxSpanAttrs {
		n = maxSpanAttrs
	}
	var attrs []Attr
	if n > 0 {
		attrs = make([]Attr, 0, n)
		for i := 0; i < n; i++ {
			if !s.attrReady[i].Load() {
				break
			}
			a := &s.attrs[i]
			v := a.str
			if a.isNum {
				v = strconv.FormatInt(a.num, 10)
			}
			attrs = append(attrs, Attr{Key: a.key, Value: v})
		}
	}
	rec := SpanRecord{
		Trace:     s.ctx.Trace,
		ID:        s.ctx.Span,
		Parent:    s.parent,
		Subsystem: s.subsystem,
		Name:      s.name,
		Start:     s.start,
		Attrs:     attrs,
	}
	if end := s.endNanos.Load(); end != 0 {
		rec.End = time.Unix(0, end).UTC()
		rec.Ended = true
	}
	return rec
}

// spansLocked appends a record for every retained span matching keep.
// Requires t.mu held.
func (t *tracerStore) spansLocked(ringCap int, keep func(*Span) bool) []SpanRecord {
	out := make([]SpanRecord, 0, t.n)
	for i := 0; i < t.n; i++ {
		s := t.ring[(t.head+i)%ringCap]
		if keep == nil || keep(s) {
			out = append(out, s.record())
		}
	}
	return out
}

// Spans returns every retained span in creation order.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	t := &r.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spansLocked(r.spanCap, nil)
}

// SpansDropped reports how many spans were evicted by the bound.
func (r *Recorder) SpansDropped() uint64 {
	if r == nil {
		return 0
	}
	t := &r.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// TraceOf resolves the trace a span belongs to.
func (r *Recorder) TraceOf(id SpanID) (TraceID, bool) {
	if r == nil {
		return 0, false
	}
	t := &r.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < t.n; i++ {
		if s := t.ring[(t.head+i)%r.spanCap]; s.ctx.Span == id {
			return s.ctx.Trace, true
		}
	}
	return 0, false
}

// TraceSpans returns the retained spans of one trace, in creation
// order (which is also causal order: parents are created before their
// children).
func (r *Recorder) TraceSpans(tr TraceID) []SpanRecord {
	if r == nil {
		return nil
	}
	t := &r.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spansLocked(r.spanCap, func(s *Span) bool { return s.ctx.Trace == tr })
	if len(out) == 0 {
		return nil
	}
	return out
}

// Subsystems returns the distinct subsystems appearing in the given
// records, sorted (diagnostics and acceptance checks).
func Subsystems(spans []SpanRecord) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range spans {
		if !seen[s.Subsystem] {
			seen[s.Subsystem] = true
			out = append(out, s.Subsystem)
		}
	}
	// Insertion order is creation order; sort for set semantics.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
