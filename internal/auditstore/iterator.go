package auditstore

import (
	"sort"
	"strings"
)

// Iterable is the optional streaming-scan interface both backends
// implement: an Iterator yields records into a caller-owned Record, so
// steady-state iteration performs no allocation.
type Iterable interface {
	Iter(q Query) (*Iterator, error)
}

// Iterator streams records matching a query in ascending sequence
// order over an immutable snapshot of the store: records appended
// after Iter are not seen, records in the snapshot are never lost,
// and Next never blocks appenders. Like Scan, the narrowest
// applicable index drives iteration — a pid or verdict posting list
// when the query pins one, their galloping-merge intersection when it
// pins both — and a Since/Until window over a time-ordered stream
// seeks both ends instead of scanning to them.
//
// An Iterator is not safe for concurrent use; create one per
// goroutine.
type Iterator struct {
	recs []Record
	q    Query

	// Iteration plan. postA drives posting iteration; postB, when
	// non-nil, is galloping-merge intersected with it.
	postA, postB []int
	usePost      bool
	i, j         int // cursors into postA/postB, or recs position in sequence mode

	// Precomputed filter flags: which Query fields still need checking
	// per candidate (posting lists already pin pid/verdict).
	checkPID, checkVerdict, checkSince, checkUntil, checkReason, checkSession bool

	// Reason-substring memo: audit streams intern their reason strings
	// (the policy evaluator hands out cached reasons), so consecutive
	// candidates usually carry the *same* string header and Go's string
	// equality short-circuits on the data pointer. One remembered
	// verdict then answers most Contains checks in O(1).
	lastReason   string
	lastReasonOK bool
	haveReason   bool

	matched int
	done    bool
}

// Iter implements Iterable over the in-memory index. The snapshot is
// taken under the read lock; iteration itself is lock-free (the record
// slice and posting lists are append-only, so their captured prefixes
// are immutable).
func (m *MemStore) Iter(q Query) (*Iterator, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return nil, ErrClosed
	}
	it := &Iterator{q: q}
	m.planLocked(q, it)
	return it, nil
}

// planLocked fills in the iteration plan for q. Callers hold at least
// the read lock.
func (m *MemStore) planLocked(q Query, it *Iterator) {
	it.recs = m.recs
	it.checkSince = !q.Since.IsZero()
	it.checkUntil = !q.Until.IsZero()
	it.checkReason = q.Reason != ""
	it.checkSession = q.Session != 0

	// Time window: on a time-ordered stream the candidate positions
	// [start, end) are found by binary search, not by scanning, and
	// the iteration never walks past the Until bound.
	start, end := 0, len(m.recs)
	if m.timeOrdered {
		if it.checkSince {
			start = sort.Search(len(m.recs), func(i int) bool {
				return !m.recs[i].Time.Before(q.Since)
			})
			it.checkSince = false // everything from start on passes
		}
		if it.checkUntil {
			end = start + sort.Search(len(m.recs)-start, func(i int) bool {
				return !m.recs[start+i].Time.Before(q.Until)
			})
			it.checkUntil = false // everything before end passes
			it.recs = m.recs[:end]
		}
	}

	var pid, ver []int
	havePID, haveVer := false, false
	if q.PID != 0 {
		pid, havePID = m.byPID[q.PID], true
	}
	if q.Verdict != "" {
		ver, haveVer = m.byVerdict[q.Verdict], true
	}
	if end < len(m.recs) {
		pid = pid[:sort.SearchInts(pid, end)]
		ver = ver[:sort.SearchInts(ver, end)]
	}
	switch {
	case havePID && haveVer:
		it.usePost = true
		it.postA, it.postB = pid, ver
		if len(ver) < len(pid) {
			it.postA, it.postB = ver, pid
		}
		it.i = sort.SearchInts(it.postA, start)
		it.j = sort.SearchInts(it.postB, start)
	case havePID:
		it.usePost = true
		it.postA = pid
		it.checkVerdict = false
		it.i = sort.SearchInts(pid, start)
	case haveVer:
		it.usePost = true
		it.postA = ver
		it.i = sort.SearchInts(ver, start)
	default:
		it.i = start
	}
	// Posting lists pin their own field; the sequence path re-checks
	// both (cheaply — they are zero in this branch anyway).
	it.checkPID = !havePID && q.PID != 0
	it.checkVerdict = havePID && !haveVer && q.Verdict != ""
}

// match applies the residual filters to a candidate. It is written to
// stay under the inlining budget: the only call in the hot path is the
// outlined reason check, and that is a memoized pointer comparison in
// the common interned-reason case.
func (it *Iterator) match(r *Record) bool {
	if it.checkSince && r.Time.Before(it.q.Since) {
		return false
	}
	if it.checkUntil && !r.Time.Before(it.q.Until) {
		return false
	}
	if it.checkPID && r.PID != it.q.PID {
		return false
	}
	if it.checkVerdict && r.Verdict != it.q.Verdict {
		return false
	}
	if it.checkReason && !it.reasonOK(r.Reason) {
		return false
	}
	if it.checkSession && r.Session != it.q.Session {
		return false
	}
	return true
}

// reasonOK reports whether s contains the query's reason substring,
// memoizing the last answer keyed on the string itself — Go's string
// equality short-circuits on the data pointer, so interned reasons
// (which the policy evaluator's reason cache hands out) answer in O(1).
func (it *Iterator) reasonOK(s string) bool {
	if it.haveReason && s == it.lastReason {
		return it.lastReasonOK
	}
	it.lastReason = s
	it.haveReason = true
	it.lastReasonOK = strings.Contains(s, it.q.Reason)
	return it.lastReasonOK
}

// drain runs the iteration to completion through yield, the engine
// behind both backends' Scan. The common audit-triage shapes — one
// posting list or the plain sequence, with at most a reason-substring
// residual — get a hand-inlined loop (match costs ~3× the inlining
// budget, so the compiler cannot do this for us); everything else goes
// through the general nextRef path.
func (it *Iterator) drain(yield func(Record) bool) {
	recs := it.recs
	limit := it.q.Limit
	if !it.checkSince && !it.checkUntil && !it.checkPID &&
		!it.checkVerdict && !it.checkSession && it.postB == nil && limit == 0 {
		// Unlimited fast shapes keep the live state across the opaque
		// yield call as small as possible: every extra local is a spill
		// and reload per record, and at ~12 ns/record those dominate.
		seq := recs[it.i:]
		if it.usePost {
			seq = nil
		}
		if !it.checkReason {
			if it.usePost {
				for _, a := range it.postA[it.i:] {
					if !yield(recs[a]) {
						return
					}
				}
				return
			}
			for i := range seq {
				if !yield(seq[i]) {
					return
				}
			}
			return
		}
		// Reason-residual loops: the memo needs no "seen" flag — its
		// zero state (lastReason == "", lastOK == false) is already the
		// right answer for an empty-reason record, because a set query
		// reason is never the empty string.
		qReason := it.q.Reason
		var lastReason string
		lastOK := false
		if it.usePost {
			for _, a := range it.postA[it.i:] {
				r := &recs[a]
				if r.Reason != lastReason {
					lastReason = r.Reason
					lastOK = strings.Contains(r.Reason, qReason)
				}
				if lastOK && !yield(*r) {
					return
				}
			}
			return
		}
		for i := range seq {
			r := &seq[i]
			if r.Reason != lastReason {
				lastReason = r.Reason
				lastOK = strings.Contains(r.Reason, qReason)
			}
			if lastOK && !yield(*r) {
				return
			}
		}
		return
	}
	for {
		r := it.nextRef()
		if r == nil {
			return
		}
		if !yield(*r) {
			return
		}
	}
}

// nextRef returns a pointer to the next matching record in the
// snapshot, or nil when the iteration is exhausted. The pointee is
// immutable; callers must copy it to retain it.
func (it *Iterator) nextRef() *Record {
	if it.done || (it.q.Limit > 0 && it.matched >= it.q.Limit) {
		it.done = true
		return nil
	}
	if it.usePost {
		if it.postB != nil {
			for it.i < len(it.postA) && it.j < len(it.postB) {
				a, b := it.postA[it.i], it.postB[it.j]
				switch {
				case a == b:
					it.i++
					it.j++
					if r := &it.recs[a]; it.match(r) {
						it.matched++
						return r
					}
				case a < b:
					it.i = gallopTo(it.postA, it.i+1, b)
				default:
					it.j = gallopTo(it.postB, it.j+1, a)
				}
			}
			it.done = true
			return nil
		}
		for it.i < len(it.postA) {
			r := &it.recs[it.postA[it.i]]
			it.i++
			if it.match(r) {
				it.matched++
				return r
			}
		}
		it.done = true
		return nil
	}
	for it.i < len(it.recs) {
		r := &it.recs[it.i]
		it.i++
		if it.match(r) {
			it.matched++
			return r
		}
	}
	it.done = true
	return nil
}

// Next copies the next matching record into the caller-owned out and
// reports whether one was found. It allocates nothing.
func (it *Iterator) Next(out *Record) bool {
	r := it.nextRef()
	if r == nil {
		return false
	}
	*out = *r
	return true
}

// gallopTo returns the first index >= from with list[index] >= target,
// by exponential probing followed by binary search — O(log d) in the
// distance d advanced, which is what makes intersecting a short
// posting list with a long one cheap.
func gallopTo(list []int, from, target int) int {
	if from >= len(list) || list[from] >= target {
		return from
	}
	step := 1
	lo := from
	hi := from + step
	for hi < len(list) && list[hi] < target {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > len(list) {
		hi = len(list)
	}
	// Invariant: list[lo] < target, list[hi] >= target (or hi == len).
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if list[mid] < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}
