package main

import (
	"fmt"
	"strconv"
	"time"

	"overhaul/internal/clock"
	"overhaul/internal/fs"
	"overhaul/internal/kernel"
	"overhaul/internal/monitor"
	"overhaul/internal/netlink"
	"overhaul/internal/xserver"
)

// The program nests X → netlink → monitor inside one call, so a span
// around a desktop step cannot split its time between layers. The
// rungs replay each step kind against the layers in isolation, built
// from their public constructors with no policy attached; what a full
// step costs beyond the sum of its rungs is core.glue_us.

// timeRung calls op until budget is spent (at least minRungOps times)
// and returns the median time of one call in microseconds. after, when
// not nil, runs untimed after each call.
func timeRung(budget time.Duration, op, after func() error) (float64, error) {
	const minRungOps = 200
	var s samples
	end := wallNow().Add(budget)
	for i := 0; i < minRungOps || wallNow().Before(end); i++ {
		t0 := wallNow()
		if err := op(); err != nil {
			return 0, err
		}
		s.add(since(t0))
		if after != nil {
			if err := after(); err != nil {
				return 0, err
			}
		}
	}
	return s.us(0.5), nil
}

// bareX is a display server with no Overhaul policy, the desktop's
// windows and content, and a selection owner for the paste rung.
type bareX struct {
	srv  *xserver.Server
	apps [desktopApps]*xserver.Client
	wins [desktopApps]xserver.WindowID
}

func newBareX() (*bareX, error) {
	srv, err := xserver.NewServer(clock.NewSimulated(), nil, xserver.Config{})
	if err != nil {
		return nil, err
	}
	b := &bareX{srv: srv}
	content := make([]byte, windowBytes)
	for i := range b.apps {
		c, err := srv.Connect(9000+i, "app"+strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		w, err := c.CreateWindow(i*220, 0, 200, 200)
		if err != nil {
			return nil, err
		}
		if err := c.MapWindow(w); err != nil {
			return nil, err
		}
		if err := c.Draw(w, content); err != nil {
			return nil, err
		}
		b.apps[i], b.wins[i] = c, w
	}
	return b, b.apps[0].SetSelection("CLIPBOARD", b.wins[0])
}

// bareKernel is a kernel with no enforcing monitor and the desktop's
// device node present but unregistered, as on a stock machine.
type bareKernel struct {
	k          *kernel.Kernel
	fsys       *fs.FS
	procA      *kernel.Process
	procB      *kernel.Process
	dev        string
	shmPayload []byte
}

func newBareKernel() (*bareKernel, error) {
	clk := clock.NewSimulated()
	fsys := fs.New(clk)
	k, err := kernel.New(clk, fsys, kernel.Config{Monitor: monitor.Config{Enforce: false}})
	if err != nil {
		return nil, err
	}
	b := &bareKernel{k: k, fsys: fsys, dev: "/dev/snd/pcmC0D0c", shmPayload: make([]byte, 8)}
	if err := fsys.MkdirAll("/dev/snd", 0o755, fs.Root); err != nil {
		return nil, err
	}
	if err := fsys.Mknod(b.dev, "microphone", 0o666, fs.Root); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll("/tmp/bench", 0o777, fs.Root); err != nil {
		return nil, err
	}
	cred := fs.Cred{UID: 1000, GID: 1000}
	if b.procA, err = k.Spawn(kernel.SpawnSpec{Name: "a", Exe: "/usr/bin/a", Cred: cred}); err != nil {
		return nil, err
	}
	if b.procB, err = k.Spawn(kernel.SpawnSpec{Name: "b", Exe: "/usr/bin/b", Cred: cred}); err != nil {
		return nil, err
	}
	return b, nil
}

// desktopRungs measures every isolated rung within budget and derives
// core.glue_us per step kind from the untraced pass's step medians and
// the traced pass's per-step netlink and monitor call counts (in out).
func desktopRungs(budget time.Duration, plain *phase, out map[string]float64) error {
	per := budget / 12
	bx, err := newBareX()
	if err != nil {
		return fmt.Errorf("bare X: %w", err)
	}
	bk, err := newBareKernel()
	if err != nil {
		return fmt.Errorf("bare kernel: %w", err)
	}
	ds, err := bootDesktop()
	if err != nil {
		return fmt.Errorf("desktop rung system: %w", err)
	}

	i := 0
	rungs := []struct {
		name      string
		op, after func() error
	}{
		{"xserver.input_us", func() error {
			// The desktop's input step without a policy: half clicks,
			// half focus + key, each consumed by the app.
			i++
			a := i % desktopApps
			var got xserver.WindowID
			if i%2 == 0 {
				if err := bx.apps[a].SetFocus(bx.wins[a]); err != nil {
					return err
				}
				got = bx.srv.HardwareKey("k")
			} else {
				got = bx.srv.HardwareClick(a*220, 0)
			}
			bx.apps[a].DrainEvents()
			if got != bx.wins[a] {
				return fmt.Errorf("bare input landed on window %d", got)
			}
			return nil
		}, nil},
		{"xserver.paste_us", func() error {
			_, err := pasteRound(nil, bx.apps[0], bx.apps[1], bx.wins[1], ds.payload)
			return err
		}, nil},
		{"xserver.capture_us", func() error {
			img, err := bx.apps[1].GetImage(xserver.Root)
			if err == nil && len(img) != desktopApps*windowBytes {
				err = fmt.Errorf("bare capture returned %d bytes", len(img))
			}
			return err
		}, nil},
		{"netlink.call_us", netlinkRung(), nil},
		{"monitor.decide_us", monitorDecideRung(ds), nil},
		{"monitor.notify_us", func() error {
			return ds.sys.Kernel.Monitor().Notify(ds.apps[2].Proc.PID(), ds.sys.Clock.Now())
		}, nil},
		{"kernel.open_us", func() error {
			h, err := bk.k.Open(bk.procA, bk.dev, fs.AccessRead)
			if err != nil {
				return err
			}
			return h.Close()
		}, nil},
		{"kernel.create_us", func() error {
			i++
			h, err := bk.k.Create(bk.procA, "/tmp/bench/r"+strconv.Itoa(i), 0o644)
			if err != nil {
				return err
			}
			return h.Close()
		}, func() error {
			// Keep the directory small, as the desktop's stat/unlink does.
			return bk.fsys.Unlink("/tmp/bench/r"+strconv.Itoa(i), fs.Root)
		}},
		{"kernel.fork_us", func() error {
			child, err := bk.procA.Fork()
			if err != nil {
				return err
			}
			return child.Exit()
		}, nil},
		{"ipc.pipe_us", pipeRung(bk, ds.payload), nil},
	}
	for _, r := range rungs {
		v, err := timeRung(per, r.op, r.after)
		if err != nil {
			return fmt.Errorf("rung %s: %w", r.name, err)
		}
		out[r.name] = v
	}
	if out["ipc.shm_write_ns"], err = shmRung(bk, per); err != nil {
		return fmt.Errorf("rung ipc.shm_write_ns: %w", err)
	}

	// glue = full step − Σ rungs, with netlink and monitor rungs
	// weighted by how many calls the traced pass saw per step.
	calls := func(kind string) float64 {
		return out["netlink_calls."+kind]*out["netlink.call_us"] +
			out["monitor_queries."+kind]*out["monitor.decide_us"] +
			out["monitor_notifies."+kind]*out["monitor.notify_us"]
	}
	step := func(kind string) float64 { return plain.metrics["step_p50_us."+kind] }
	out["core.glue_us"] = step("dev_open") - out["kernel.open_us"] - calls("dev_open")
	out["core.glue_us.input"] = step("input") - out["xserver.input_us"] - calls("input")
	out["core.glue_us.paste"] = step("paste") - out["xserver.paste_us"] - calls("paste")
	out["core.glue_us.capture"] = step("capture") - out["xserver.capture_us"] - calls("capture")
	out["core.glue_us.create"] = step("create") - out["kernel.create_us"] - calls("create")
	out["core.glue_us.fork_open"] = step("fork_open") - out["kernel.fork_us"] - out["kernel.open_us"] - calls("fork_open")
	out["core.glue_us.pipe_open"] = step("pipe_open") - out["ipc.pipe_us"] - out["kernel.open_us"] - calls("pipe_open")
	out["core.glue_us.shm"] = step("shm") - out["ipc.shm_write_ns"]*shmWritesPerOp/1e3 - calls("shm")
	return nil
}

// netlinkRung is a Conn.Call round trip on a bare hub whose kernel
// handler does nothing.
func netlinkRung() func() error {
	hub, err := netlink.NewHub(netlink.AuthenticatorFunc(func(int) error { return nil }))
	if err != nil {
		return func() error { return err }
	}
	hub.SetKernelHandler(func(any) (any, error) { return nil, nil })
	conn, err := hub.Connect(1, func(any) (any, error) { return nil, nil })
	if err != nil {
		return func() error { return err }
	}
	msg := &struct{}{}
	return func() error {
		_, err := conn.Call(msg)
		return err
	}
}

// monitorDecideRung decides clipboard ops (which raise no alert, so no
// netlink call nests inside) on the booted desktop's monitor, two fresh
// to one stale like the desktop's device opens. The fresh app is
// notified once, before timing: the simulated clock does not move
// during the rungs, so its stamp stays within δ and the rung times
// Decide alone.
func monitorDecideRung(ds *desktop) func() error {
	mon := ds.sys.Kernel.Monitor()
	fresh, stale := ds.apps[3].Proc.PID(), ds.apps[4].Proc.PID()
	if err := mon.Notify(fresh, ds.sys.Clock.Now()); err != nil {
		return func() error { return err }
	}
	n := 0
	return func() error {
		now := ds.sys.Clock.Now()
		n++
		pid, want := fresh, monitor.VerdictGrant
		if n%3 == 0 {
			pid, want = stale, monitor.VerdictDeny
		}
		if v := mon.Decide(pid, monitor.OpPaste, now); v != want {
			return fmt.Errorf("bare decide for pid %d = %v, want %v", pid, v, want)
		}
		return nil
	}
}

// pipeRung is a pipe write and read with stamp propagation between two
// processes of the bare kernel.
func pipeRung(bk *bareKernel, payload []byte) func() error {
	p := bk.k.NewPipe()
	buf := make([]byte, len(payload))
	return func() error {
		if _, err := p.Write(bk.procA.PID(), payload); err != nil {
			return err
		}
		_, err := p.Read(bk.procB.PID(), buf)
		return err
	}
}

// shmRung times shared-memory writes on the bare kernel in batches of
// shmWritesPerOp and returns the median per-write time in ns.
func shmRung(bk *bareKernel, budget time.Duration) (float64, error) {
	seg, err := bk.k.NewSharedMem(shmPages)
	if err != nil {
		return 0, err
	}
	m := seg.Map(bk.procA.PID())
	size := seg.Size()
	us, err := timeRung(budget, func() error {
		for i := 0; i < shmWritesPerOp; i++ {
			if err := m.Write((i*61)%(size-len(bk.shmPayload)), bk.shmPayload); err != nil {
				return err
			}
		}
		return nil
	}, nil)
	return us * 1e3 / shmWritesPerOp, err
}
