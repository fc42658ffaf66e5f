package fs

import (
	"errors"
	"testing"
)

func TestErrnoStrings(t *testing.T) {
	if ENOENT.String() != "ENOENT" || EEXIST.String() != "EEXIST" {
		t.Fatal("errno names wrong")
	}
	if Errno(999).String() != "Errno(999)" {
		t.Fatal("unknown errno formatting")
	}
}

func TestErrorHelpers(t *testing.T) {
	err := NewError("open", "/x", ENOENT)
	if err.Error() != "open /x: ENOENT" {
		t.Fatalf("error = %q", err.Error())
	}
	if !IsNotExist(err) || IsExist(err) {
		t.Fatal("classification wrong")
	}
	if CodeOf(nil) != OK {
		t.Fatal("nil should be OK")
	}
	if CodeOf(errors.New("other")) != EINVAL {
		t.Fatal("foreign errors should map to EINVAL")
	}
}

func TestOpKindNames(t *testing.T) {
	if OpCreate.String() != "create" || OpDropCaches.String() != "dropcaches" {
		t.Fatal("op names wrong")
	}
	if OpKind(99).String() != "op(99)" {
		t.Fatal("unknown op formatting")
	}
	if NumOpKinds != 12 {
		t.Fatalf("NumOpKinds = %d", NumOpKinds)
	}
}

func TestFileTypeNames(t *testing.T) {
	if TypeRegular.String() != "file" || TypeDirectory.String() != "dir" ||
		TypeSymlink.String() != "symlink" || FileType(9).String() != "unknown" {
		t.Fatal("file type names wrong")
	}
}

// stubClient counts nothing itself; used to drive CountingClient.
type stubClient struct{ created map[string]bool }

func newStub() *stubClient { return &stubClient{created: map[string]bool{}} }

func (s *stubClient) Create(p string) error {
	if s.created[p] {
		return NewError("create", p, EEXIST)
	}
	s.created[p] = true
	return nil
}
func (s *stubClient) Open(p string) (Handle, error) {
	if !s.created[p] {
		return 0, NewError("open", p, ENOENT)
	}
	return 1, nil
}
func (s *stubClient) Close(Handle) error        { return nil }
func (s *stubClient) Write(Handle, int64) error { return nil }
func (s *stubClient) Fsync(Handle) error        { return nil }
func (s *stubClient) Mkdir(string) error        { return nil }
func (s *stubClient) Rmdir(string) error        { return nil }
func (s *stubClient) Unlink(string) error       { return nil }
func (s *stubClient) Rename(_, _ string) error  { return nil }
func (s *stubClient) Stat(p string) (Attr, error) {
	if !s.created[p] {
		return Attr{}, NewError("stat", p, ENOENT)
	}
	return Attr{Type: TypeRegular}, nil
}
func (s *stubClient) ReadDir(string) ([]DirEntry, error) { return nil, nil }
func (s *stubClient) DropCaches()                        {}

func TestCountingClient(t *testing.T) {
	c := NewCountingClient(newStub())
	c.Create("/a")
	c.Create("/b")
	c.Stat("/a")
	c.Unlink("/a")
	c.DropCaches()
	if c.N.Get(OpCreate) != 2 || c.N.Get(OpStat) != 1 || c.N.Get(OpUnlink) != 1 {
		t.Fatalf("counts = %+v", c.N)
	}
	if c.N.Total() != 5 {
		t.Fatalf("total = %d", c.N.Total())
	}
}

func TestCreateHighLevelVsDirect(t *testing.T) {
	// High-level create stats first (like a scripting runtime file
	// object); direct maps 1:1.
	hl := NewCountingClient(newStub())
	if err := CreateHighLevel(hl, "/f"); err != nil {
		t.Fatal(err)
	}
	if hl.N.Get(OpStat) != 1 || hl.N.Get(OpCreate) != 1 {
		t.Fatalf("high-level counts = %+v", hl.N)
	}
	// Creating over an existing file opens and closes it instead.
	if err := CreateHighLevel(hl, "/f"); err != nil {
		t.Fatal(err)
	}
	if hl.N.Get(OpClose) != 1 {
		t.Fatalf("reopen counts = %+v", hl.N)
	}
	d := NewCountingClient(newStub())
	if err := CreateDirect(d, "/f"); err != nil {
		t.Fatal(err)
	}
	if d.N.Total() != 1 {
		t.Fatalf("direct total = %d", d.N.Total())
	}
}

func TestTopComponent(t *testing.T) {
	cases := []struct{ in, want string }{
		{"/a/b/c", "a"},
		{"/a", "a"},
		{"/", ""},
		{"", ""},
		{"rel/path", ""},
		{"/bench/MakeFiles-n8-p16/p000", "bench"},
	}
	for _, c := range cases {
		if got := TopComponent(c.in); got != c.want {
			t.Errorf("TopComponent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}
