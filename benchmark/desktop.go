package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"overhaul/internal/core"
	"overhaul/internal/devfs"
	"overhaul/internal/fs"
	"overhaul/internal/ipc"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
	"overhaul/internal/xserver"
)

// The desktop workload is Table I's critical paths end to end, closed
// loop: one seeded user script, one client, each step waiting for its
// result. It runs the whole chain X provenance → netlink → kernel
// stamp → open → Policy.Evaluate → alert, and never touches fleet or
// auditstore. The Table I cost models (DeviceInitRounds, WireWork,
// StorageRounds) stay off: they pad both sides of the paper's
// comparison and would hide a change in the layers.
var desktopWorkload = benchWorkload{name: "desktop", run: runDesktop, rungs: desktopRungs}

const (
	desktopApps   = 8
	readerApp     = desktopApps // index of the headless pipe reader in the model
	desktopSetups = 2001        // about 0.25 s of boots, not one 12 ms moment of the host
	// desktopWarmRounds of the script run before the desktop is
	// weighed and timed.
	desktopWarmRounds = 8192
	windowBytes       = 1 << 10 // content drawn into each window; root captures copy all of it
	shmPages          = 16
	shmWritesPerOp    = 64
	roundsPerChunk    = 64
	settleVisible     = 1500 * time.Millisecond // past the server's 1 s visibility threshold
	pipePayloadSize   = 64
)

// stepKind is one kind of script step.
type stepKind uint8

const (
	kInput      stepKind = iota // hardware click or key, consumed by the app
	kOpen                       // sensitive-device open
	kCopy                       // SetSelection
	kPaste                      // full paste protocol round
	kCapture                    // root GetImage
	kForkOpen                   // fork, then open from the child (P1)
	kPipeOpen                   // pipe write/read, then open by the reader (P2)
	kShm                        // shared-memory writes
	kCreate                     // regular-file create (Bonnie++ create phase)
	kStatUnlink                 // stat and unlink of that file
	numKinds
)

var kindNames = [numKinds]string{
	"input", "dev_open", "copy", "paste", "capture", "fork_open", "pipe_open", "shm", "create", "stat_unlink",
}

// step is one scripted user action. Expect is the verdict the oracle
// fixed for steps that carry one.
type step struct {
	kind    stepKind
	advance time.Duration // simulated think time before the step
	app     uint8         // acting app
	key     bool          // input: key press instead of click
	cam     bool          // device: camera instead of microphone
	verdict bool          // the step carries a verdict
	expect  bool          // expected verdict: grant
}

// scriptModel generates the user script and, alongside, the verdict
// each step must get: it mirrors every rule that moves an interaction
// stamp (input, P1 inheritance, P2 pipe and shared-memory propagation,
// newest-wins) on simulated time, so expectations are exact.
type scriptModel struct {
	rng   *rand.Rand
	delta int64
	now   int64                  // simulated ns since the script started
	stamp [desktopApps + 1]int64 // last interaction; 0 = none
	// pipe and shm carry the newest stamp ever embedded in them.
	pipe, shm int64
	disarm    [desktopApps]int64 // per-mapping end of the shm wait window
	shmWait   int64
}

func newScriptModel(seed int64) *scriptModel {
	return &scriptModel{
		rng:     rand.New(rand.NewSource(seed)),
		delta:   int64(monitor.DefaultThreshold),
		now:     1, // stamps are compared as differences; 0 means none
		shmWait: int64(ipc.DefaultShmWait),
	}
}

func (m *scriptModel) fresh(app int) bool {
	return m.stamp[app] != 0 && m.now-m.stamp[app] < m.delta
}

func (m *scriptModel) uniform(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(m.rng.Int63n(int64(hi-lo)))
}

// pickOther returns a random app other than a and c, preferring stale
// ones when stale is set.
func (m *scriptModel) pickOther(a, c int, stale bool) int {
	var cands [desktopApps]int
	n := 0
	for i := 0; i < desktopApps; i++ {
		if i != a && i != c && (!stale || !m.fresh(i)) {
			cands[n] = i
			n++
		}
	}
	if n == 0 {
		return m.pickOther(a, c, false)
	}
	return cands[m.rng.Intn(n)]
}

// round appends one round of the script: two inputs (app A, then C),
// then in seeded order two opens by the fresh apps, one open by a stale
// app, copy A → paste C, a capture, a fork-open, a pipe-open,
// shared-memory writes, and a file create → stat/unlink pair. The
// capture, fork and pipe actors are fresh 80–85% of the time, so
// verdict counts depend on the seed while the step mix does not.
func (m *scriptModel) round(out []step) []step {
	a := m.rng.Intn(desktopApps)
	c := (a + 1 + m.rng.Intn(desktopApps-1)) % desktopApps
	gap := m.uniform(300*time.Millisecond, 900*time.Millisecond)

	emit := func(s step) {
		if s.advance == 0 {
			s.advance = m.uniform(time.Millisecond, 40*time.Millisecond)
		}
		m.now += int64(s.advance)
		m.apply(&s)
		out = append(out, s)
	}
	emit(step{kind: kInput, advance: gap, app: uint8(a), key: m.rng.Intn(2) == 0})
	emit(step{kind: kInput, app: uint8(c), key: m.rng.Intn(2) == 0})

	freshOr := func(p float64) int {
		if m.rng.Float64() < p {
			if m.rng.Intn(2) == 0 {
				return a
			}
			return c
		}
		return m.pickOther(a, c, true)
	}
	// Each block is a closure so its actor is chosen at its own time.
	blocks := []func(){
		func() { emit(step{kind: kOpen, app: uint8(a), cam: m.rng.Intn(2) == 0}) },
		func() { emit(step{kind: kOpen, app: uint8(c), cam: m.rng.Intn(2) == 0}) },
		func() { emit(step{kind: kOpen, app: uint8(m.pickOther(a, c, true)), cam: m.rng.Intn(2) == 0}) },
		func() {
			emit(step{kind: kCopy, app: uint8(a)})
			emit(step{kind: kPaste, app: uint8(c)})
		},
		func() { emit(step{kind: kCapture, app: uint8(freshOr(0.85))}) },
		func() { emit(step{kind: kForkOpen, app: uint8(freshOr(0.8)), cam: m.rng.Intn(2) == 0}) },
		func() { emit(step{kind: kPipeOpen, app: uint8(freshOr(0.8)), cam: m.rng.Intn(2) == 0}) },
		func() { emit(step{kind: kShm, app: uint8(a)}) },
		func() {
			emit(step{kind: kCreate, app: uint8(a)})
			emit(step{kind: kStatUnlink, app: uint8(a)})
		},
	}
	m.rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	for _, b := range blocks {
		b()
	}
	return out
}

// apply fixes s's expected verdict at the model's current time and
// applies its effect on stamps.
func (m *scriptModel) apply(s *step) {
	app := int(s.app)
	switch s.kind {
	case kInput:
		m.stamp[app] = m.now
	case kOpen, kCopy, kPaste, kCapture:
		s.verdict, s.expect = true, m.fresh(app)
	case kForkOpen:
		s.verdict, s.expect = true, m.fresh(app) // the child inherits the stamp
	case kPipeOpen:
		m.pipe = max(m.pipe, m.stamp[app])
		m.stamp[readerApp] = max(m.stamp[readerApp], m.pipe)
		s.verdict, s.expect = true, m.fresh(readerApp)
	case kShm:
		// Only the first write of a step can fault: the rest fall in
		// the wait window it opens.
		if m.now >= m.disarm[app] {
			m.disarm[app] = m.now + m.shmWait
			m.shm = max(m.shm, m.stamp[app])
			m.stamp[app] = max(m.stamp[app], m.shm)
		}
	}
}

// chunk generates the next n rounds into buf.
func (m *scriptModel) chunk(buf []step, n int) []step {
	buf = buf[:0]
	for i := 0; i < n; i++ {
		buf = m.round(buf)
	}
	return buf
}

// desktop is the booted system the script drives.
type desktop struct {
	sys      *core.System
	apps     [desktopApps]*core.App
	reader   *kernel.Process
	mic, cam string
	pipe     *ipc.Pipe
	maps     [desktopApps]*ipc.Mapping
	shmSize  int
	owner    int // current CLIPBOARD owner
	files    int
	payload  []byte
	buf      []byte
	capBytes int
}

func bootDesktop() (*desktop, error) {
	sys, err := core.Boot(core.Options{Enforce: true, AlertSecret: "bench"})
	if err != nil {
		return nil, err
	}
	d := &desktop{sys: sys, payload: make([]byte, pipePayloadSize), buf: make([]byte, pipePayloadSize)}
	if d.mic, err = sys.AttachDevice(devfs.ClassMicrophone); err != nil {
		return nil, err
	}
	if d.cam, err = sys.AttachDevice(devfs.ClassCamera); err != nil {
		return nil, err
	}
	content := make([]byte, windowBytes)
	for i := range d.apps {
		app, err := sys.LaunchAt("app"+strconv.Itoa(i), i*220, 0, 200, 200)
		if err != nil {
			return nil, err
		}
		if err := app.Client.Draw(app.Win, content); err != nil {
			return nil, err
		}
		d.apps[i] = app
	}
	d.capBytes = desktopApps * windowBytes
	if d.reader, err = sys.LaunchHeadless("reader"); err != nil {
		return nil, err
	}
	d.pipe = sys.Kernel.NewPipe()
	shm, err := sys.Kernel.NewSharedMem(shmPages)
	if err != nil {
		return nil, err
	}
	d.shmSize = shm.Size()
	for i, app := range d.apps {
		d.maps[i] = shm.Map(app.Proc.PID())
	}
	if err := sys.FS.MkdirAll("/tmp/bench", 0o777, fs.Root); err != nil {
		return nil, err
	}
	sys.Settle(settleVisible)
	// The first owner takes the selection while it may: its input
	// stamp is then older than δ before the script starts.
	if err := d.apps[0].Click(); err != nil {
		return nil, err
	}
	if err := d.apps[0].Client.SetSelection("CLIPBOARD", d.apps[0].Win); err != nil {
		return nil, err
	}
	d.apps[0].Client.DrainEvents()
	sys.Settle(3 * time.Second)
	return d, nil
}

func (d *desktop) device(cam bool) string {
	if cam {
		return d.cam
	}
	return d.mic
}

// verdictOf maps a mediated call's error to a verdict; any error other
// than the mediation's own denial is returned as unexpected.
func verdictOf(err, denied error) (grant bool, unexpected error) {
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, denied):
		return false, nil
	default:
		return false, err
	}
}

// open opens a device for p and reports the verdict.
func (d *desktop) open(tr *tracer, p *kernel.Process, dev string) (bool, error) {
	tr.begin("kernel.Open")
	h, err := d.sys.Kernel.Open(p, dev, fs.AccessRead)
	tr.end()
	if err == nil {
		tr.begin("fs.Handle.Close")
		err = h.Close()
		tr.end()
		if err != nil {
			return false, err
		}
	}
	return verdictOf(err, kernel.ErrAccessDenied)
}

// exec runs one step and returns its verdict (for verdict steps).
func (d *desktop) exec(s *step, tr *tracer) (bool, error) {
	app := d.apps[s.app%desktopApps]
	switch s.kind {
	case kInput:
		var got xserver.WindowID
		if s.key {
			tr.begin("xserver.SetFocus")
			err := app.Client.SetFocus(app.Win)
			tr.end()
			if err != nil {
				return false, err
			}
			tr.begin("xserver.HardwareKey")
			got = d.sys.X.HardwareKey("k")
			tr.end()
		} else {
			tr.begin("xserver.HardwareClick")
			got = d.sys.X.HardwareClick(int(s.app)*220, 0)
			tr.end()
		}
		tr.begin("xserver.DrainEvents")
		app.Client.DrainEvents()
		tr.end()
		if got != app.Win {
			return false, fmt.Errorf("input for app%d landed on window %d", s.app, got)
		}
		return false, nil
	case kOpen:
		return d.open(tr, app.Proc, d.device(s.cam))
	case kCopy:
		tr.begin("xserver.SetSelection")
		err := app.Client.SetSelection("CLIPBOARD", app.Win)
		tr.end()
		grant, err := verdictOf(err, xserver.ErrBadAccess)
		if grant {
			d.owner = int(s.app)
		}
		return grant, err
	case kPaste:
		return pasteRound(tr, d.apps[d.owner].Client, app.Client, app.Win, d.payload)
	case kCapture:
		tr.begin("xserver.GetImage")
		img, err := app.Client.GetImage(xserver.Root)
		tr.end()
		grant, err := verdictOf(err, xserver.ErrBadAccess)
		if grant && len(img) != d.capBytes {
			return grant, fmt.Errorf("root capture returned %d bytes, want %d", len(img), d.capBytes)
		}
		return grant, err
	case kForkOpen:
		tr.begin("kernel.Fork")
		child, err := app.Proc.Fork()
		tr.end()
		if err != nil {
			return false, err
		}
		grant, err := d.open(tr, child, d.device(s.cam))
		tr.begin("kernel.Exit")
		if xerr := child.Exit(); err == nil {
			err = xerr
		}
		tr.end()
		return grant, err
	case kPipeOpen:
		tr.begin("ipc.Pipe.Write")
		_, err := d.pipe.Write(app.Proc.PID(), d.payload)
		tr.end()
		if err != nil {
			return false, err
		}
		tr.begin("ipc.Pipe.Read")
		n, err := d.pipe.Read(d.reader.PID(), d.buf)
		tr.end()
		if err != nil || n != len(d.payload) {
			return false, fmt.Errorf("pipe read %d bytes: %v", n, err)
		}
		return d.open(tr, d.reader, d.device(s.cam))
	case kShm:
		m := d.maps[s.app%desktopApps]
		tr.begin("ipc.Mapping.Write")
		for i := 0; i < shmWritesPerOp; i++ {
			if err := m.Write((i*61)%(d.shmSize-len(d.payload)), d.payload[:8]); err != nil {
				tr.end()
				return false, err
			}
		}
		tr.end()
		return false, nil
	case kCreate:
		d.files++
		tr.begin("kernel.Create")
		h, err := d.sys.Kernel.Create(app.Proc, d.filePath(), 0o644)
		tr.end()
		if err != nil {
			return false, err
		}
		tr.begin("fs.Handle.Close")
		err = h.Close()
		tr.end()
		return false, err
	case kStatUnlink:
		path := d.filePath()
		tr.begin("kernel.Stat")
		_, err := d.sys.Kernel.Stat(app.Proc, path)
		tr.end()
		if err != nil {
			return false, err
		}
		tr.begin("kernel.Unlink")
		err = d.sys.Kernel.Unlink(app.Proc, path)
		tr.end()
		return false, err
	}
	return false, fmt.Errorf("unknown step kind %d", s.kind)
}

func (d *desktop) filePath() string { return "/tmp/bench/f" + strconv.Itoa(d.files) }

// pasteRound runs one complete paste protocol round: the target asks
// for the selection, the owner answers with the data, the target reads
// and deletes it. A denied ConvertSelection is a deny verdict.
func pasteRound(tr *tracer, owner, tgt *xserver.Client, tgtWin xserver.WindowID, payload []byte) (bool, error) {
	tr.begin("xserver.ConvertSelection")
	err := tgt.ConvertSelection("CLIPBOARD", "UTF8_STRING", "XSEL_DATA", tgtWin)
	tr.end()
	if grant, err := verdictOf(err, xserver.ErrBadAccess); !grant {
		return false, err
	}
	tr.begin("xserver.NextEvent")
	req, ok := owner.NextEvent()
	for ok && req.Type != xserver.SelectionRequest {
		req, ok = owner.NextEvent()
	}
	tr.end()
	if !ok {
		return true, errors.New("paste: no SelectionRequest delivered")
	}
	tr.begin("xserver.ChangeProperty")
	err = owner.ChangeProperty(req.Requestor, req.Property, payload)
	tr.end()
	if err != nil {
		return true, err
	}
	tr.begin("xserver.SendEvent")
	err = owner.SendEvent(req.Requestor, xserver.Event{
		Type: xserver.SelectionNotify, Selection: "CLIPBOARD", Target: req.Target, Property: req.Property,
	})
	tr.end()
	if err != nil {
		return true, err
	}
	tr.begin("xserver.NextEvent")
	ev, ok := tgt.NextEvent()
	for ok && ev.Type != xserver.SelectionNotify {
		ev, ok = tgt.NextEvent()
	}
	tr.end()
	if !ok {
		return true, errors.New("paste: no SelectionNotify delivered")
	}
	tr.begin("xserver.GetProperty")
	data, err := tgt.GetProperty(req.Requestor, req.Property)
	tr.end()
	if err != nil {
		return true, err
	}
	if len(data) != len(payload) {
		return true, fmt.Errorf("paste: got %d bytes, want %d", len(data), len(payload))
	}
	tr.begin("xserver.DeleteProperty")
	err = tgt.DeleteProperty(req.Requestor, req.Property)
	tr.end()
	return true, err
}

// desktopTally is what running script steps produced.
type desktopTally struct {
	steps, failed int64
	grants        [numKinds]int64
	denies        [numKinds]int64
	firstErr      error
	count         [numKinds]int64
	// lat holds the current chunk's step latencies; the caller reduces
	// and empties it after each chunk, so memory stays flat.
	lat [numKinds]samples
	// Traced passes only: netlink messages and monitor calls per kind.
	netlink, queries, notifies [numKinds]uint64
}

// runSteps executes steps against d, checking each verdict against
// the script's expectation. Each step is timed from after its
// simulated think time to its result.
func (d *desktop) runSteps(steps []step, t *desktopTally, tr *tracer, opBase uint64) {
	var hub0, hub1 uint64
	var mon0, mon1 monitor.Stats
	for i := range steps {
		s := &steps[i]
		d.sys.Settle(s.advance)
		if tr != nil {
			tr.setOp(opBase + uint64(i))
			hs := d.sys.Hub().StatsSnapshot()
			hub0, mon0 = hs.UserToKernel+hs.KernelToUser, d.sys.Kernel.Monitor().StatsSnapshot()
		}
		t0 := wallNow()
		tr.begin("step." + kindNames[s.kind])
		grant, err := d.exec(s, tr)
		tr.end()
		t.lat[s.kind].add(since(t0))
		t.count[s.kind]++
		if tr != nil {
			hs := d.sys.Hub().StatsSnapshot()
			hub1, mon1 = hs.UserToKernel+hs.KernelToUser, d.sys.Kernel.Monitor().StatsSnapshot()
			t.netlink[s.kind] += hub1 - hub0
			t.queries[s.kind] += mon1.Queries - mon0.Queries
			t.notifies[s.kind] += mon1.Notifications - mon0.Notifications
		}
		t.steps++
		switch {
		case err != nil:
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("step %s: %w", kindNames[s.kind], err)
			}
		case s.verdict && grant != s.expect:
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("step %s by app%d: grant=%v, oracle expects %v", kindNames[s.kind], s.app, grant, s.expect)
			}
		case s.verdict && grant:
			t.grants[s.kind]++
		case s.verdict:
			t.denies[s.kind]++
		}
	}
}

// runDesktop boots the desktop desktopSetups times (the median is
// setup_s), weighs it after desktopWarmRounds of the script, and then
// drives it for d. Steps run in chunks of roundsPerChunk rounds, about
// 2 ms each; every rate and percentile reported is the calm tenth of
// its per-chunk values (see calmQuantile), and the benchmark's own
// memory stays flat instead of growing a sample per step.
func runDesktop(cfg runConfig, d time.Duration, tr *tracer) (*phase, error) {
	buf := make([]step, 0, roundsPerChunk*16)
	base := liveHeap()
	var ds *desktop
	var setups []time.Duration
	for i := 0; i < desktopSetups; i++ {
		t0 := wallNow()
		var err error
		if ds, err = bootDesktop(); err != nil {
			return nil, fmt.Errorf("desktop setup: %w", err)
		}
		setups = append(setups, since(t0))
	}

	// A fixed amount of work before weighing, so heap_mb does not
	// depend on how many steps the timed loop gets through.
	m := newScriptModel(cfg.seed)
	var warm desktopTally
	for r := 0; r < desktopWarmRounds; r += roundsPerChunk {
		buf = m.chunk(buf, roundsPerChunk)
		ds.runSteps(buf, &warm, nil, 0)
	}
	if warm.failed != 0 {
		fmt.Printf("desktop: %d failed warm-up steps, first: %v\n", warm.failed, warm.firstErr)
	}
	heap := heapMB(base, liveHeap())

	var t desktopTally
	var wall time.Duration
	var rates, p50s, p99s []float64
	var kindP50s [numKinds][]float64
	var chunk samples
	var op uint64
	for wall < d {
		buf = m.chunk(buf, roundsPerChunk)
		t0 := wallNow()
		ds.runSteps(buf, &t, tr, op)
		dt := since(t0)
		wall += dt
		op += uint64(len(buf))
		rates = append(rates, float64(len(buf))/dt.Seconds())
		chunk.ns = chunk.ns[:0]
		for k := range t.lat {
			chunk.ns = append(chunk.ns, t.lat[k].ns...)
			if t.lat[k].n() > 0 {
				kindP50s[k] = append(kindP50s[k], t.lat[k].us(0.5))
			}
			t.lat[k].ns = t.lat[k].ns[:0]
		}
		p50s = append(p50s, chunk.us(0.5))
		p99s = append(p99s, chunk.us(0.99))
	}
	if t.firstErr != nil {
		fmt.Printf("desktop: %d failed steps, first: %v\n", t.failed, t.firstErr)
	}

	p := &phase{attempted: warm.steps + t.steps, failed: warm.failed + t.failed, correct: warm.failed+t.failed == 0,
		rate: calmRate(rates),
		metrics: map[string]float64{"setup_s": medianSeconds(setups), "heap_mb": heap,
			"op_p50_us": calm(p50s), "op_p99_us": calm(p99s)}}
	for k := range kindP50s {
		p.metrics["step_p50_us."+kindNames[k]] = calm(kindP50s[k])
	}
	p.metrics["dev_open_p50_us"] = p.metrics["step_p50_us.dev_open"]
	p.metrics["paste_p50_us"] = p.metrics["step_p50_us.paste"]
	p.metrics["capture_p50_us"] = p.metrics["step_p50_us.capture"]
	p.metrics["create_p50_us"] = p.metrics["step_p50_us.create"]
	if tr != nil {
		var msgs uint64
		for k := range t.netlink {
			msgs += t.netlink[k]
			if n := t.count[k]; n > 0 {
				p.metrics["netlink_calls."+kindNames[k]] = float64(t.netlink[k]) / float64(n)
				p.metrics["monitor_queries."+kindNames[k]] = float64(t.queries[k]) / float64(n)
				p.metrics["monitor_notifies."+kindNames[k]] = float64(t.notifies[k]) / float64(n)
			}
		}
		p.metrics["netlink.calls_per_step"] = float64(msgs) / float64(t.steps)
	}
	return p, nil
}
