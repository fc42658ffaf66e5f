package namespace

import (
	"reflect"
	"testing"

	"dmetabench/internal/fs"
)

// parentFixture is the tree the handle table runs against: /a (a
// directory holding the file /a/b) and the file /f.
func parentFixture() *Namespace {
	ns := New()
	ns.Mkdir("/a", 0o755, 0)
	ns.Create("/a/b", 0o644, 0)
	ns.Create("/f", 0o644, 0)
	return ns
}

// errOf flattens an error for comparison; nil stays nil.
func errOf(err error) *fs.Error {
	if err == nil {
		return nil
	}
	return err.(*fs.Error)
}

// TestParentHandleOddPaths pins a handle on odd paths to the path API:
// Dir to Lookup(fs.ParentDir(p)), Stat to Lookup(p), and Create and
// Unlink to the outcome the path methods had before they were built on
// the handle, errors included. Every method runs after Dir, so the rows
// also cover a handle reusing its resolution.
func TestParentHandleOddPaths(t *testing.T) {
	for _, tc := range []struct {
		path         string
		create       *fs.Error // nil: succeeds
		unlink       *fs.Error // nil: succeeds
		createsUnder string    // directory that gains the created entry
	}{
		{path: "/",
			create: fs.NewError("create", "/", fs.EINVAL),
			unlink: fs.NewError("unlink", "/", fs.EINVAL)},
		{path: "/a/",
			create: fs.NewError("create", "/a/", fs.EEXIST),
			unlink: fs.NewError("unlink", "/a/", fs.EISDIR)},
		{path: "/a/.",
			create: fs.NewError("create", "/a/.", fs.EINVAL),
			unlink: fs.NewError("unlink", "/a/.", fs.EINVAL)},
		{path: "/a/..",
			create: fs.NewError("create", "/a/..", fs.EINVAL),
			unlink: fs.NewError("unlink", "/a/..", fs.EINVAL)},
		{path: "a/b",
			create: fs.NewError("create", "a/b", fs.EEXIST)},
		{path: "//a//b",
			create: fs.NewError("create", "//a//b", fs.EEXIST)},
		{path: "/a/new", createsUnder: "/a",
			unlink: fs.NewError("unlink", "/a/new", fs.ENOENT)},
		{path: "/f/x", // a file as parent
			create: fs.NewError("create", "/f/x", fs.ENOTDIR),
			unlink: fs.NewError("unlink", "/f/x", fs.ENOTDIR)},
		{path: "/missing/x",
			create: fs.NewError("walk", "/missing/x", fs.ENOENT),
			unlink: fs.NewError("walk", "/missing/x", fs.ENOENT)},
	} {
		t.Run(tc.path, func(t *testing.T) {
			ns := parentFixture()
			h := ns.Parent(tc.path)
			want, _ := ns.Lookup(fs.ParentDir(tc.path))
			if got := h.Dir(); got != want {
				t.Fatalf("Dir = %v, Lookup(ParentDir) = %v", got, want)
			}
			wantEntries := 0
			if want != nil {
				wantEntries = ns.NumChildren(want)
			}
			if got := h.Entries(); got != wantEntries {
				t.Errorf("Entries = %d, want %d", got, wantEntries)
			}
			checkStat(t, ns, &h, tc.path)

			_, err := h.Create(0o644, 0)
			if !reflect.DeepEqual(errOf(err), tc.create) {
				t.Errorf("Create: %v, want %v", err, tc.create)
			}
			if tc.create == nil {
				dir, _ := ns.Lookup(tc.createsUnder)
				if ns.NumChildren(dir) != 2 {
					t.Errorf("Create left %s with %d entries, want 2", tc.createsUnder, ns.NumChildren(dir))
				}
			}
			checkStat(t, ns, &h, tc.path)

			// The path methods answer what the handle answers.
			ns2 := parentFixture()
			_, err = ns2.Create(tc.path, 0o644, 0)
			if !reflect.DeepEqual(errOf(err), tc.create) {
				t.Errorf("ns.Create: %v, want %v", err, tc.create)
			}
			if tc.create == nil {
				// Unlink the entry just made; the table's unlink
				// outcome is for the fixture as built.
				if err := h.Unlink(0); err != nil {
					t.Errorf("Unlink of created entry: %v", err)
				}
			}

			ns, ns2 = parentFixture(), parentFixture()
			h = ns.Parent(tc.path)
			h.Dir()
			if err := h.Unlink(0); !reflect.DeepEqual(errOf(err), tc.unlink) {
				t.Errorf("Unlink: %v, want %v", err, tc.unlink)
			}
			if err := ns2.Unlink(tc.path, 0); !reflect.DeepEqual(errOf(err), tc.unlink) {
				t.Errorf("ns.Unlink: %v, want %v", err, tc.unlink)
			}
			checkStat(t, ns, &h, tc.path)
			if problems := ns.Check(); len(problems) != 0 {
				t.Errorf("fsck after the row: %v", problems)
			}
		})
	}
}

// checkStat compares h.Stat and ns.Stat with Lookup(path).
func checkStat(t *testing.T, ns *Namespace, h *Parent, path string) {
	t.Helper()
	var want fs.Attr
	node, werr := ns.Lookup(path)
	if werr == nil {
		want = node.Attr()
	}
	for name, stat := range map[string]func() (fs.Attr, error){
		"h.Stat":  h.Stat,
		"ns.Stat": func() (fs.Attr, error) { return ns.Stat(path) },
	} {
		got, err := stat()
		if !reflect.DeepEqual(errOf(err), errOf(werr)) || got != want {
			t.Errorf("%s = %+v, %v; Lookup gives %+v, %v", name, got, err, want, werr)
		}
	}
}

// TestParentHandleParentRenamedAway takes a handle, renames its parent
// directory away and makes a new one under the old name: the handle
// must follow the name, not the directory it first resolved. A handle
// that ignored the namespace generation would still answer for the
// moved directory.
func TestParentHandleParentRenamedAway(t *testing.T) {
	ns := parentFixture()
	h := ns.Parent("/a/b")
	old := h.Dir()
	if a, err := h.Stat(); err != nil || a.Type != fs.TypeRegular {
		t.Fatalf("Stat before rename = %+v, %v", a, err)
	}
	if err := ns.Rename("/a", "/moved", 0); err != nil {
		t.Fatal(err)
	}
	if d := h.Dir(); d != nil {
		t.Fatalf("Dir after the parent moved = inode %d, want nil", d.Ino)
	}
	if _, err := h.Stat(); fs.CodeOf(err) != fs.ENOENT {
		t.Fatalf("Stat after the parent moved: %v, want ENOENT", err)
	}
	if _, err := h.Create(0o644, 0); fs.CodeOf(err) != fs.ENOENT {
		t.Fatalf("Create after the parent moved: %v, want ENOENT", err)
	}
	if _, err := ns.Mkdir("/a", 0o755, 0); err != nil {
		t.Fatal(err)
	}
	if d := h.Dir(); d == nil || d == old {
		t.Fatalf("Dir after a new /a = %v, want the new directory", d)
	}
	if _, err := h.Create(0o644, 0); err != nil {
		t.Fatalf("Create in the new /a: %v", err)
	}
	if moved, _ := ns.Lookup("/moved"); ns.NumChildren(moved) != 1 {
		t.Fatalf("the moved directory holds %d entries, want 1", ns.NumChildren(moved))
	}
	if problems := ns.Check(); len(problems) != 0 {
		t.Fatal(problems)
	}
}

// TestParentHandleParentAppears takes handles whose parent does not
// resolve to a directory, then makes it one without starting a new
// generation (Mkdir; Unlink of a file then Mkdir): the next Create must
// succeed. A handle that kept a failed resolution, or one that ended at
// a file, would fail it.
func TestParentHandleParentAppears(t *testing.T) {
	ns := parentFixture()
	missing := ns.Parent("/d/x")
	if _, err := missing.Create(0o644, 0); fs.CodeOf(err) != fs.ENOENT {
		t.Fatalf("Create under a missing parent: %v, want ENOENT", err)
	}
	file := ns.Parent("/f/x")
	if d := file.Dir(); d == nil || d.Type != fs.TypeRegular {
		t.Fatalf("Dir of a file parent = %v, want the file", d)
	}
	if _, err := file.Create(0o644, 0); fs.CodeOf(err) != fs.ENOTDIR {
		t.Fatalf("Create under a file: %v, want ENOTDIR", err)
	}

	if _, err := ns.Mkdir("/d", 0o755, 0); err != nil {
		t.Fatal(err)
	}
	if err := ns.Unlink("/f", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Mkdir("/f", 0o755, 0); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Parent{&missing, &file} {
		if _, err := h.Create(0o644, 0); err != nil {
			t.Fatalf("Create once the parent exists: %v", err)
		}
		if a, err := h.Stat(); err != nil || a.Type != fs.TypeRegular {
			t.Fatalf("Stat of the new file = %+v, %v", a, err)
		}
	}
	if problems := ns.Check(); len(problems) != 0 {
		t.Fatal(problems)
	}
}

// TestParentHandleAllocFree pins the handle's hot path: taking a handle,
// and its Dir, Entries and Stat on an existing entry, allocate nothing.
func TestParentHandleAllocFree(t *testing.T) {
	ns := parentFixture()
	if avg := testing.AllocsPerRun(200, func() {
		h := ns.Parent("/a/b")
		if h.Dir() == nil || h.Entries() != 1 {
			t.Fatal("handle lost /a")
		}
		if _, err := h.Stat(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("handle allocated %.1f objects/op, want 0", avg)
	}
}
