package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// maxDumpSpans bounds how many spans a run keeps for the dump; self
// times are aggregated from every span regardless.
const maxDumpSpans = 1 << 17

// selfTimed names the spans whose self times a metric reads. Self times
// of other spans are not kept: the dump holds what they cover.
var selfTimed = []string{"fleet.DecideNanos", "fleet.NotifyNanos", "auditstore.Append", "adapter.fsync"}

// span is one recorded call into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index in the dump, -1 for a root
	Op     uint64 `json:"op"`
}

// frame is an open span on a goroutine's stack.
type frame struct {
	name  string
	start time.Time
	child time.Duration // covered by closed children
	index int32         // dump index, -1 when not kept
}

// tracer records spans for one goroutine. A nil *tracer records
// nothing, so untraced passes pay one nil check per call site. Spans
// of one op share its id; a span's self time is its duration minus its
// children's, aggregated per span name for the names in selfTimed.
type tracer struct {
	origin time.Time
	op     uint64
	stack  []frame
	spans  []span
	self   map[string]*samples

	// children are the tracers forked for other goroutines; their spans
	// and self times merge into this one when read, after those
	// goroutines have finished.
	children []*tracer
}

func newTracer() *tracer {
	return &tracer{origin: wallNow(), self: selfMap()}
}

func selfMap() map[string]*samples {
	m := make(map[string]*samples, len(selfTimed))
	for _, n := range selfTimed {
		m[n] = &samples{}
	}
	return m
}

// fork returns a tracer for another goroutine sharing t's origin, or
// nil when t is nil.
func (t *tracer) fork() *tracer {
	if t == nil {
		return nil
	}
	c := &tracer{origin: t.origin, self: selfMap()}
	t.children = append(t.children, c)
	return c
}

// setOp sets the op id the next spans carry.
func (t *tracer) setOp(op uint64) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span named name under the innermost open span.
func (t *tracer) begin(name string) {
	if t != nil {
		t.push(name)
	}
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t != nil {
		t.pop()
	}
}

func (t *tracer) push(name string) {
	idx := int32(-1)
	if len(t.spans) < maxDumpSpans {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].index
		}
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	}
	t.stack = append(t.stack, frame{name: name, start: wallNow(), index: idx})
}

func (t *tracer) pop() {
	now := wallNow()
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now.Sub(f.start)
	if f.index >= 0 {
		s := &t.spans[f.index]
		s.Start = int64(f.start.Sub(t.origin))
		s.End = int64(now.Sub(t.origin))
	}
	if n > 0 {
		t.stack[n-1].child += d
	}
	if s := t.self[f.name]; s != nil {
		s.add(d - f.child)
	}
}

// selfTime returns the merged self-time samples of spans named name,
// one of selfTimed, across t and its forks (empty when nothing was
// recorded).
func (t *tracer) selfTime(name string) *samples {
	out := &samples{}
	if t == nil {
		return out
	}
	for _, tr := range append([]*tracer{t}, t.children...) {
		if s := tr.self[name]; s != nil {
			out.merge(s)
		}
	}
	return out
}

// dump writes the kept spans as JSON lines to path.
func (t *tracer) dump(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for g, tr := range append([]*tracer{t}, t.children...) {
		for _, s := range tr.spans {
			rec := struct {
				Goroutine int `json:"goroutine"`
				span
			}{g, s}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
