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

// stubClient is an in-memory client that counts the calls it receives
// by kind, the way dtrace counts system calls (§4.2.1).
type stubClient struct {
	created map[string]bool
	n       [NumOpKinds]int
}

func newStub() *stubClient { return &stubClient{created: map[string]bool{}} }

func (s *stubClient) Create(p string) error {
	s.n[OpCreate]++
	if s.created[p] {
		return NewError("create", p, EEXIST)
	}
	s.created[p] = true
	return nil
}
func (s *stubClient) Open(p string) (Handle, error) {
	s.n[OpOpen]++
	if !s.created[p] {
		return 0, NewError("open", p, ENOENT)
	}
	return 1, nil
}
func (s *stubClient) Close(Handle) error        { s.n[OpClose]++; return nil }
func (s *stubClient) Write(Handle, int64) error { s.n[OpWrite]++; return nil }
func (s *stubClient) Fsync(Handle) error        { s.n[OpFsync]++; return nil }
func (s *stubClient) Mkdir(string) error        { s.n[OpMkdir]++; return nil }
func (s *stubClient) Rmdir(string) error        { s.n[OpRmdir]++; return nil }
func (s *stubClient) Unlink(string) error       { s.n[OpUnlink]++; return nil }
func (s *stubClient) Rename(_, _ string) error  { s.n[OpRename]++; return nil }
func (s *stubClient) Stat(p string) (Attr, error) {
	s.n[OpStat]++
	if !s.created[p] {
		return Attr{}, NewError("stat", p, ENOENT)
	}
	return Attr{Type: TypeRegular}, nil
}
func (s *stubClient) ReadDir(string) ([]DirEntry, error) { s.n[OpReadDir]++; return nil, nil }
func (s *stubClient) DropCaches()                        { s.n[OpDropCaches]++ }

// total returns the calls the stub received.
func (s *stubClient) total() int {
	t := 0
	for _, n := range s.n {
		t += n
	}
	return t
}

func TestCreateHighLevelVsDirect(t *testing.T) {
	// High-level create stats first (like a scripting runtime file
	// object); direct maps 1:1.
	hl := newStub()
	if err := CreateHighLevel(hl, "/f"); err != nil {
		t.Fatal(err)
	}
	if hl.n[OpStat] != 1 || hl.n[OpOpen] != 1 || hl.n[OpCreate] != 1 || hl.total() != 3 {
		t.Fatalf("high-level counts = %v", hl.n)
	}
	// Creating over an existing file opens and closes it instead.
	if err := CreateHighLevel(hl, "/f"); err != nil {
		t.Fatal(err)
	}
	if hl.n[OpClose] != 1 || hl.n[OpCreate] != 1 || hl.total() != 6 {
		t.Fatalf("reopen counts = %v", hl.n)
	}
	d := newStub()
	if err := CreateDirect(d, "/f"); err != nil {
		t.Fatal(err)
	}
	if d.n[OpCreate] != 1 || d.total() != 1 {
		t.Fatalf("direct counts = %v", d.n)
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
