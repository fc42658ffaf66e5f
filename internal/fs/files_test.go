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
