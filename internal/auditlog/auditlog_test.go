package auditlog

import (
	"errors"
	"strings"
	"testing"
	"time"

	"overhaul/internal/core"
	"overhaul/internal/devfs"
	"overhaul/internal/fs"
	"overhaul/internal/xserver"
)

func bootWithLog(t *testing.T) (*core.System, *Writer, string) {
	t.Helper()
	sys, err := core.Boot(core.Options{Enforce: true, AlertSecret: "a"})
	if err != nil {
		t.Fatalf("Boot: %v", err)
	}
	mic, err := sys.Helper.Attach(devfs.ClassMicrophone)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	w, err := NewWriter(sys.FS, sys.Kernel.Monitor())
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	return sys, w, mic
}

func TestFlushAndRead(t *testing.T) {
	sys, w, mic := bootWithLog(t)
	app, err := sys.Launch("app")
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	sys.Settle(2 * xserver.DefaultVisibilityThreshold)

	// One denial, one grant.
	if _, err := app.OpenDevice(mic); err == nil {
		t.Fatal("expected denial")
	}
	if err := app.Click(); err != nil {
		t.Fatalf("Click: %v", err)
	}
	sys.Settle(100 * time.Millisecond)
	if _, err := app.OpenDevice(mic); err != nil {
		t.Fatalf("OpenDevice: %v", err)
	}

	n, err := w.Flush()
	if err != nil || n != 2 {
		t.Fatalf("Flush = %d, %v", n, err)
	}
	lines, err := w.Read(fs.Cred{UID: 1000, GID: 1000})
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %v", lines)
	}
	if !strings.Contains(lines[0], "verdict=deny") || !strings.Contains(lines[1], "verdict=grant") {
		t.Fatalf("log content wrong:\n%s\n%s", lines[0], lines[1])
	}
	if !strings.Contains(lines[0], "op=mic") {
		t.Fatalf("log missing op: %s", lines[0])
	}
}

func TestGrep(t *testing.T) {
	sys, w, mic := bootWithLog(t)
	spy, err := sys.LaunchHeadless("spy")
	if err != nil {
		t.Fatalf("LaunchHeadless: %v", err)
	}
	for i := 0; i < 3; i++ {
		_, _ = sys.Kernel.Open(spy, mic, fs.AccessRead)
	}
	if _, err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	hits, err := w.Grep(fs.Root, "verdict=deny")
	if err != nil || len(hits) != 3 {
		t.Fatalf("Grep = %d hits, %v", len(hits), err)
	}
	none, err := w.Grep(fs.Root, "verdict=grant")
	if err != nil || len(none) != 0 {
		t.Fatalf("Grep grant = %v, %v", none, err)
	}
}

func TestFlushReplacesContent(t *testing.T) {
	sys, w, mic := bootWithLog(t)
	if n, err := w.Flush(); err != nil || n != 0 {
		t.Fatalf("Flush of an empty log = %d, %v", n, err)
	}
	if lines, err := w.Read(fs.Root); err != nil || lines != nil {
		t.Fatalf("Read = %v, %v; want empty", lines, err)
	}
	spy, err := sys.LaunchHeadless("spy")
	if err != nil {
		t.Fatalf("LaunchHeadless: %v", err)
	}
	// Each flush rewrites the whole log: after two opens and two
	// flushes the file holds two records, not three.
	for want := 1; want <= 2; want++ {
		_, _ = sys.Kernel.Open(spy, mic, fs.AccessRead)
		if n, err := w.Flush(); err != nil || n != want {
			t.Fatalf("Flush = %d, %v; want %d", n, err, want)
		}
		lines, err := w.Read(fs.Root)
		if err != nil || len(lines) != want {
			t.Fatalf("Read = %d lines, %v; want %d", len(lines), err, want)
		}
	}
}

func TestLogFileOwnedByRoot(t *testing.T) {
	sys, w, _ := bootWithLog(t)
	if _, err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st, err := sys.FS.Stat(Path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Owner.UID != 0 || st.Mode != 0o644 {
		t.Fatalf("log file %o owned by %+v, want 644/root", st.Mode, st.Owner)
	}
	// Users cannot overwrite the log.
	err = sys.FS.WriteFile(Path, []byte("tampered"), 0o644, fs.Cred{UID: 1000, GID: 1000})
	if !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("user tampering = %v, want ErrPermission", err)
	}
}

func TestNewWriterValidation(t *testing.T) {
	if _, err := NewWriter(nil, nil); !errors.Is(err, ErrNilArgs) {
		t.Fatalf("NewWriter(nil) = %v", err)
	}
}
