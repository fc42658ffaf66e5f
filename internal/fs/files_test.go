package fs

import "testing"

// TestFilesHandles checks that every table numbers its handles from 1,
// that Get and Close of a handle never opened or already closed answer
// EBADF naming the op, and that a second Close fails.
func TestFilesHandles(t *testing.T) {
	var a, b Files[string]
	for i, want := range []Handle{1, 2, 3} {
		if h := a.Open(string(rune('x' + i))); h != want {
			t.Fatalf("a: handle %d, want %d", h, want)
		}
	}
	if h := b.Open("y"); h != 1 {
		t.Fatalf("b: first handle %d, want 1", h)
	}
	if f, err := a.Get("write", 2); err != nil || f != "y" {
		t.Fatalf("Get(2) = %q, %v; want y", f, err)
	}
	badf := func(what string, err error, op string) {
		t.Helper()
		fe, ok := err.(*Error)
		if !ok || fe.Code != EBADF || fe.Op != op || fe.Path != "" {
			t.Errorf("%s: %v, want %s: EBADF", what, err, op)
		}
	}
	_, err := a.Get("fsync", 9)
	badf("Get of a handle never opened", err, "fsync")
	_, err = a.Close(9)
	badf("Close of a handle never opened", err, "close")
	if f, err := a.Close(2); err != nil || f != "y" {
		t.Fatalf("Close(2) = %q, %v; want y", f, err)
	}
	_, err = a.Get("write", 2)
	badf("Get of a closed handle", err, "write")
	_, err = a.Close(2)
	badf("second Close", err, "close")
	if h := a.Open("z"); h != 4 {
		t.Errorf("handle after a close %d, want 4: handles are never reused", h)
	}
}

// TestBufferDirty checks that any Write, even of zero bytes, leaves the
// buffer dirty until Reset.
func TestBufferDirty(t *testing.T) {
	var b Buffer
	b.Add(0)
	if !b.Dirty || b.Written != 0 {
		t.Fatalf("after Add(0): %+v, want dirty with 0 bytes", b)
	}
	b.Add(100)
	b.Add(28)
	if b.Written != 128 {
		t.Fatalf("Written %d, want 128", b.Written)
	}
	b.Reset()
	if b != (Buffer{}) {
		t.Fatalf("after Reset: %+v, want empty", b)
	}
}

// bufFile is a model's open file as the write-behind helpers see it.
type bufFile struct {
	Buffer
	flushes int
}

// TestBufferedTrio checks that the write-behind helpers flush on Fsync
// and Close exactly when a Write came after the last flush, leave the
// reset to the model's flush, and answer EBADF naming the op for a
// handle that is not open.
func TestBufferedTrio(t *testing.T) {
	var files Files[*bufFile]
	flush := func(f *bufFile) error {
		f.flushes++
		f.Reset()
		return nil
	}
	f := &bufFile{}
	h := files.Open(f)
	if err := FsyncBuffered(&files, h, flush); err != nil || f.flushes != 0 {
		t.Fatalf("Fsync of a clean file: %v, %d flushes; want none", err, f.flushes)
	}
	if err := WriteBuffered(&files, h, 0); err != nil || !f.Dirty {
		t.Fatalf("Write(0): %v, dirty %v; want dirty", err, f.Dirty)
	}
	if err := FsyncBuffered(&files, h, flush); err != nil || f.flushes != 1 {
		t.Fatalf("Fsync after a Write: %v, %d flushes; want 1", err, f.flushes)
	}
	if err := CloseBuffered(&files, h, flush); err != nil || f.flushes != 1 {
		t.Fatalf("Close after Fsync: %v, %d flushes; want still 1", err, f.flushes)
	}
	g := &bufFile{}
	h = files.Open(g)
	if err := WriteBuffered(&files, h, 5); err != nil {
		t.Fatal(err)
	}
	if err := CloseBuffered(&files, h, flush); err != nil || g.flushes != 1 {
		t.Fatalf("Close of a dirty file: %v, %d flushes; want 1", err, g.flushes)
	}
	for op, err := range map[string]error{
		"write": WriteBuffered(&files, h, 1),
		"fsync": FsyncBuffered(&files, h, flush),
		"close": CloseBuffered(&files, h, flush),
	} {
		if fe, ok := err.(*Error); !ok || fe.Code != EBADF || fe.Op != op {
			t.Errorf("%s of a closed handle: %v, want %s: EBADF", op, err, op)
		}
	}
}
