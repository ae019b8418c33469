package main

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"overhaul/internal/workload"
)

// desktopCounts runs rounds of the seed's script on a fresh desktop and
// returns the steps and per-kind grant/deny counts.
func desktopCounts(t *testing.T, seed int64, rounds int) ([]step, [numKinds]int64, [numKinds]int64) {
	t.Helper()
	ds, err := bootDesktop()
	if err != nil {
		t.Fatal(err)
	}
	steps := newScriptModel(seed).chunk(nil, rounds)
	var tally desktopTally
	ds.runSteps(steps, &tally, nil, 0)
	if tally.failed != 0 {
		t.Fatalf("seed %d: %d failed steps, first: %v", seed, tally.failed, tally.firstErr)
	}
	return steps, tally.grants, tally.denies
}

func TestDesktopSeedDeterminism(t *testing.T) {
	const rounds = 300
	s1, g1, d1 := desktopCounts(t, 7, rounds)
	s2, g2, d2 := desktopCounts(t, 7, rounds)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("same seed produced different scripts")
	}
	if g1 != g2 || d1 != d2 {
		t.Errorf("same seed produced different verdict counts: %v/%v vs %v/%v", g1, d1, g2, d2)
	}
	s3, g3, d3 := desktopCounts(t, 8, rounds)
	if reflect.DeepEqual(s1, s3) || (g1 == g3 && d1 == d3) {
		t.Error("a different seed produced the same script or verdict counts")
	}
	// The oracle must see both verdicts on every mediated path.
	for _, k := range []stepKind{kOpen, kCapture, kForkOpen, kPipeOpen} {
		if g1[k] == 0 || d1[k] == 0 {
			t.Errorf("%s: %d grants, %d denies; want both", kindNames[k], g1[k], d1[k])
		}
	}
}

// fleetEvent is one scheduled event as the generator would send it.
type fleetEvent struct {
	session uint64
	at      int64
	ev      workload.FleetEvent
}

// fleetEvents boots the seed's fleet and returns its first n events.
func fleetEvents(t *testing.T, seed int64, n int) []fleetEvent {
	t.Helper()
	sut, err := bootFleet(seed, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sut.log.Close()
	var out []fleetEvent
	h := &sut.sessions
	for len(out) < n {
		fs := (*h)[0]
		out = append(out, fleetEvent{fs.s.ID(), fs.at, fs.next})
		fs.next = fs.stream.Next()
		fs.at += int64(fs.next.Gap)
		heap.Fix(h, 0)
	}
	return out
}

// fleetDecisions boots the seed's fleet, drives span of workload time
// as fast as it will go, and returns the decision counts.
func fleetDecisions(t *testing.T, seed int64, span time.Duration) (decisions, grants, denies int64) {
	t.Helper()
	sut, err := bootFleet(seed, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := wallNow()
	c := sut.drive(now, now, prefill+int64(span), 1e-9, nil)
	if err := sut.log.awaitAcks(); err != nil {
		t.Fatal(err)
	}
	defer sut.log.fs.Close()
	if c.failed != 0 || c.firstErr != nil {
		t.Fatalf("seed %d: %d failed events: %v", seed, c.failed, c.firstErr)
	}
	if ok, err := sut.check(c); !ok {
		t.Fatalf("seed %d: store check: %v", seed, err)
	}
	if len(sut.log.acks) != len(c.dues) {
		t.Fatalf("seed %d: %d acks for %d appended decisions", seed, len(sut.log.acks), len(c.dues))
	}
	return c.decisions, c.grants, c.denies
}

func TestFleetSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 10k-session fleets")
	}
	e1, e2, e3 := fleetEvents(t, 3, 2000), fleetEvents(t, 3, 2000), fleetEvents(t, 4, 2000)
	if !reflect.DeepEqual(e1, e2) {
		t.Error("same seed produced different event streams")
	}
	if reflect.DeepEqual(e1, e3) {
		t.Error("a different seed produced the same event stream")
	}
	const span = 100 * time.Millisecond
	n1, g1, d1 := fleetDecisions(t, 3, span)
	n2, g2, d2 := fleetDecisions(t, 3, span)
	n3, g3, d3 := fleetDecisions(t, 4, span)
	if n1 == 0 || g1 == 0 || d1 == 0 {
		t.Fatalf("degenerate run: %d decisions, %d grants, %d denies", n1, g1, d1)
	}
	if n1 != n2 || g1 != g2 || d1 != d2 {
		t.Errorf("same seed: %d/%d/%d vs %d/%d/%d decisions/grants/denies", n1, g1, d1, n2, g2, d2)
	}
	if n1 == n3 && g1 == g3 && d1 == d3 {
		t.Error("a different seed produced the same decision counts")
	}
}

// forensicResults writes the seed's history and runs cycles of its query
// set, returning the queries with their verified results.
func forensicResults(t *testing.T, seed int64, dir string, cycles int) []query {
	t.Helper()
	l := newLedger(seed)
	if err := writeHistory(l, dir); err != nil {
		t.Fatal(err)
	}
	st, err := openHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	o := newOracle(l)
	var out []query
	for c := 0; c < cycles; c++ {
		qs := querySet(rng, l, nil)
		for i := range qs {
			if err := qs[i].exec(st); err != nil {
				t.Fatal(err)
			}
			if err := o.verify(&qs[i]); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, qs...)
	}
	return out
}

func TestForensicsSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 10^5-record histories")
	}
	q1 := forensicResults(t, 5, t.TempDir(), 3)
	q2 := forensicResults(t, 5, t.TempDir(), 3)
	q3 := forensicResults(t, 6, t.TempDir(), 3)
	if !reflect.DeepEqual(q1, q2) {
		t.Error("same seed produced different queries or results")
	}
	if reflect.DeepEqual(q1, q3) {
		t.Error("a different seed produced the same queries and results")
	}
}
