package kernel

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"overhaul/internal/fs"
)

func TestProcStatusRendersOverhaulStamp(t *testing.T) {
	e := newEnv(t, enforcing())
	p := e.spawnUser(t, "editor")

	out, err := e.k.ReadProc("/proc/" + itoa(p.PID()) + "/status")
	if err != nil {
		t.Fatalf("ReadProc: %v", err)
	}
	s := string(out)
	for _, want := range []string{"Name:\teditor", "State:\tR (running)", "OverhaulStamp:\t-"} {
		if !strings.Contains(s, want) {
			t.Fatalf("status missing %q:\n%s", want, s)
		}
	}

	e.interact(t, p)
	out, err = e.k.ReadProc("/proc/" + itoa(p.PID()) + "/status")
	if err != nil {
		t.Fatalf("ReadProc: %v", err)
	}
	if strings.Contains(string(out), "OverhaulStamp:\t-") {
		t.Fatalf("stamp not rendered after interaction:\n%s", out)
	}
}

func TestProcComm(t *testing.T) {
	e := newEnv(t, enforcing())
	p := e.spawnUser(t, "firefox")
	out, err := e.k.ReadProc("/proc/" + itoa(p.PID()) + "/comm")
	if err != nil || string(out) != "firefox\n" {
		t.Fatalf("comm = %q, %v", out, err)
	}
}

func TestProcListing(t *testing.T) {
	e := newEnv(t, enforcing())
	a := e.spawnUser(t, "a")
	b := e.spawnUser(t, "b")
	out, err := e.k.ReadProc("/proc")
	if err != nil {
		t.Fatalf("ReadProc: %v", err)
	}
	for _, p := range []*Process{a, b} {
		if !strings.Contains(string(out), itoa(p.PID())+"\n") {
			t.Fatalf("listing missing pid %d:\n%s", p.PID(), out)
		}
	}
}

func TestProcPtraceGuardNode(t *testing.T) {
	e := newEnv(t, enforcing())
	out, err := e.k.ReadProc(ProcPtraceGuardPath)
	if err != nil || string(out) != "1\n" {
		t.Fatalf("guard node = %q, %v; want 1", out, err)
	}
	// Non-root writes rejected.
	if err := e.k.WriteProc(ProcPtraceGuardPath, []byte("0"), fs.Cred{UID: 1000}); !errors.Is(err, ErrNotPermitted) {
		t.Fatalf("non-root write = %v", err)
	}
	// Root toggles.
	if err := e.k.WriteProc(ProcPtraceGuardPath, []byte("0\n"), fs.Root); err != nil {
		t.Fatalf("root write: %v", err)
	}
	out, err = e.k.ReadProc(ProcPtraceGuardPath)
	if err != nil || string(out) != "0\n" {
		t.Fatalf("guard node = %q, %v; want 0", out, err)
	}
	// Garbage rejected.
	if err := e.k.WriteProc(ProcPtraceGuardPath, []byte("maybe"), fs.Root); err == nil {
		t.Fatal("garbage accepted")
	}
	// Other paths are not writable.
	if err := e.k.WriteProc("/proc/1/status", []byte("1"), fs.Root); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("write to status = %v", err)
	}
}

func TestProcBadPaths(t *testing.T) {
	e := newEnv(t, enforcing())
	for _, p := range []string{"/proc/999/status", "/proc/abc/status", "/proc/1/maps", "/etc/passwd", "/proc/1/2/3"} {
		if _, err := e.k.ReadProc(p); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("ReadProc(%s) = %v, want ErrNotExist", p, err)
		}
	}
}

func TestProcStatusShowsTracer(t *testing.T) {
	e := newEnv(t, enforcing())
	parent := e.spawnUser(t, "dbg")
	child, err := parent.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if err := parent.PtraceAttach(child); err != nil {
		t.Fatalf("PtraceAttach: %v", err)
	}
	out, err := e.k.ReadProc("/proc/" + itoa(child.PID()) + "/status")
	if err != nil {
		t.Fatalf("ReadProc: %v", err)
	}
	if !strings.Contains(string(out), "TracerPid:\t"+itoa(parent.PID())) {
		t.Fatalf("status missing tracer:\n%s", out)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// TestExitLeavesParentChildren pins that an exited child leaves its
// parent's children list: a long-lived app that forks per operation
// must not grow that list, or its /proc Children: line, without bound.
func TestExitLeavesParentChildren(t *testing.T) {
	e := newEnv(t, enforcing())
	app := e.spawnUser(t, "app")
	for i := 0; i < 10_000; i++ {
		child, err := app.Fork()
		if err != nil {
			t.Fatalf("Fork %d: %v", i, err)
		}
		if err := child.Exit(); err != nil {
			t.Fatalf("Exit %d: %v", i, err)
		}
	}
	if kids := app.Children(); len(kids) != 0 {
		t.Fatalf("%d children listed after every child exited", len(kids))
	}
	out, err := e.k.ReadProc("/proc/" + itoa(app.PID()) + "/status")
	if err != nil {
		t.Fatalf("ReadProc: %v", err)
	}
	if !strings.Contains(string(out), "Children:\t\n") {
		t.Fatalf("status lists exited children:\n%s", out)
	}

	// A live child stays listed while its sibling's exit is recorded.
	live, err := app.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	gone, err := app.Fork()
	if err != nil {
		t.Fatalf("Fork: %v", err)
	}
	if err := gone.Exit(); err != nil {
		t.Fatalf("Exit: %v", err)
	}
	if kids := app.Children(); len(kids) != 1 || kids[0] != live.PID() {
		t.Fatalf("children = %v, want [%d]", kids, live.PID())
	}
}
