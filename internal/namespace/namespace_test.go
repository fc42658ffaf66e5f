package namespace

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"dmetabench/internal/fs"
)

func t0() time.Duration { return 0 }

func TestCreateLookupStat(t *testing.T) {
	ns := New()
	if _, err := ns.Mkdir("/dir", 0o755, t0()); err != nil {
		t.Fatal(err)
	}
	ino, err := ns.Create("/dir/file", 0o644, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ns.Stat("/dir/file")
	if err != nil {
		t.Fatal(err)
	}
	if a.Ino != ino.Ino || a.Type != fs.TypeRegular || a.Nlink != 1 {
		t.Fatalf("attr = %+v", a)
	}
	if a.Mtime != 5*time.Second {
		t.Fatalf("mtime = %v", a.Mtime)
	}
	if ns.NumFiles() != 1 || ns.NumDirs() != 2 {
		t.Fatalf("files=%d dirs=%d", ns.NumFiles(), ns.NumDirs())
	}
}

func TestCreateErrors(t *testing.T) {
	ns := New()
	if _, err := ns.Create("/f", 0o644, t0()); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Create("/f", 0o644, t0()); fs.CodeOf(err) != fs.EEXIST {
		t.Fatalf("dup create err = %v, want EEXIST", err)
	}
	if _, err := ns.Create("/nodir/f", 0o644, t0()); fs.CodeOf(err) != fs.ENOENT {
		t.Fatalf("err = %v, want ENOENT", err)
	}
	if _, err := ns.Create("/f/under-file", 0o644, t0()); fs.CodeOf(err) != fs.ENOTDIR {
		t.Fatalf("err = %v, want ENOTDIR", err)
	}
	if _, err := ns.Create("/", 0o644, t0()); fs.CodeOf(err) != fs.EINVAL {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

func TestMkdirRmdir(t *testing.T) {
	ns := New()
	if _, err := ns.Mkdir("/a", 0o755, t0()); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Mkdir("/a/b", 0o755, t0()); err != nil {
		t.Fatal(err)
	}
	// Root nlink: 2 + 1 subdir = 3; /a nlink: 2 + 1 = 3.
	root, _ := ns.Lookup("/")
	if root.Nlink != 3 {
		t.Fatalf("root nlink = %d, want 3", root.Nlink)
	}
	if err := ns.Rmdir("/a", t0()); fs.CodeOf(err) != fs.ENOTEMPTY {
		t.Fatalf("rmdir non-empty = %v, want ENOTEMPTY", err)
	}
	if err := ns.Rmdir("/a/b", t0()); err != nil {
		t.Fatal(err)
	}
	if err := ns.Rmdir("/a", t0()); err != nil {
		t.Fatal(err)
	}
	if root.Nlink != 2 {
		t.Fatalf("root nlink = %d, want 2", root.Nlink)
	}
	if ns.NumDirs() != 1 {
		t.Fatalf("dirs = %d", ns.NumDirs())
	}
}

func TestRenameBasic(t *testing.T) {
	ns := New()
	ns.Mkdir("/a", 0o755, t0())
	ns.Mkdir("/b", 0o755, t0())
	ns.Create("/a/f", 0o644, t0())
	if err := ns.Rename("/a/f", "/b/g", t0()); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Stat("/a/f"); fs.CodeOf(err) != fs.ENOENT {
		t.Fatalf("old path: %v", err)
	}
	if _, err := ns.Stat("/b/g"); err != nil {
		t.Fatalf("new path: %v", err)
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	ns := New()
	src, _ := ns.Create("/src", 0o644, t0())
	ns.Create("/dst", 0o644, t0())
	if err := ns.Rename("/src", "/dst", t0()); err != nil {
		t.Fatal(err)
	}
	a, err := ns.Stat("/dst")
	if err != nil || a.Ino != src.Ino {
		t.Fatalf("dst = %+v, %v; want ino %d", a, err, src.Ino)
	}
	if ns.NumFiles() != 1 {
		t.Fatalf("files = %d, want 1 (old dst freed)", ns.NumFiles())
	}
}

func TestRenameDirRules(t *testing.T) {
	ns := New()
	ns.Mkdir("/a", 0o755, t0())
	ns.Mkdir("/a/b", 0o755, t0())
	ns.Create("/f", 0o644, t0())
	// Move dir into own subtree.
	if err := ns.Rename("/a", "/a/b/c", t0()); fs.CodeOf(err) != fs.EINVAL {
		t.Fatalf("err = %v, want EINVAL", err)
	}
	// File over directory.
	if err := ns.Rename("/f", "/a", t0()); fs.CodeOf(err) != fs.EISDIR {
		t.Fatalf("err = %v, want EISDIR", err)
	}
	// Directory over file.
	if err := ns.Rename("/a", "/f", t0()); fs.CodeOf(err) != fs.ENOTDIR {
		t.Fatalf("err = %v, want ENOTDIR", err)
	}
	// Directory over empty directory works.
	ns.Mkdir("/empty", 0o755, t0())
	if err := ns.Rename("/a/b", "/empty", t0()); err != nil {
		t.Fatal(err)
	}
	// Parent nlink bookkeeping: /a lost its subdir.
	a, _ := ns.Lookup("/a")
	if a.Nlink != 2 {
		t.Fatalf("nlink(/a) = %d, want 2", a.Nlink)
	}
}

func TestRenameSameObjectNoop(t *testing.T) {
	ns := New()
	f, _ := ns.Create("/f", 0o644, t0())
	if err := ns.Rename("/f", "/./f", t0()); err != nil {
		t.Fatal(err)
	}
	// POSIX: the name remains, on the same inode.
	if a, err := ns.Stat("/f"); err != nil || a.Ino != f.Ino || a.Nlink != 1 {
		t.Fatalf("stat /f = %+v, %v; want ino %d, nlink 1", a, err, f.Ino)
	}
}

func TestReadDirSorted(t *testing.T) {
	ns := New()
	ns.Mkdir("/d", 0o755, t0())
	for _, n := range []string{"c", "a", "b"} {
		ns.Create("/d/"+n, 0o644, t0())
	}
	ents, err := ns.ReadDir("/d", t0())
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 || ents[0].Name != "a" || ents[2].Name != "c" {
		t.Fatalf("ents = %v", ents)
	}
}

func TestDotDotWalk(t *testing.T) {
	ns := New()
	ns.Mkdir("/a", 0o755, t0())
	ns.Mkdir("/a/b", 0o755, t0())
	ns.Create("/a/f", 0o644, t0())
	if _, err := ns.Stat("/a/b/../f"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Stat("/../a/f"); err != nil {
		t.Fatal(err) // root's .. is root
	}
	if _, err := ns.Stat("/a/./f"); err != nil {
		t.Fatal(err)
	}
}

func TestSetSize(t *testing.T) {
	ns := New()
	f, _ := ns.Create("/f", 0o644, t0())
	if err := ns.SetSize(f.Ino, 1000, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	a, _ := ns.Stat("/f")
	if a.Size != 1000 || a.Blocks != 2 || a.Mtime != 3*time.Second {
		t.Fatalf("attr = %+v", a)
	}
}

// invariantCheck verifies global invariants that must hold after any
// operation sequence: counts match a full tree walk, nlinks are
// consistent, every child points at a live inode.
func invariantCheck(t *testing.T, ns *Namespace) {
	t.Helper()
	files, dirs := 0, 0
	var walk func(ino fs.Ino)
	seen := map[fs.Ino]int{} // link counting
	walk = func(ino fs.Ino) {
		n := ns.Get(ino)
		if n == nil {
			t.Fatalf("dangling child inode %d", ino)
		}
		if n.Type == fs.TypeDirectory {
			dirs++
			wantNlink := uint32(2)
			for _, c := range ns.children(n) {
				child := ns.Get(c.Ino)
				if child != c {
					t.Fatalf("directory %d has dangling child %d", ino, c.Ino)
				}
				if child.Type == fs.TypeDirectory {
					wantNlink++
					walk(c.Ino)
				} else {
					seen[c.Ino]++
				}
			}
			if n.Nlink != wantNlink {
				t.Fatalf("dir %d nlink = %d, want %d", ino, n.Nlink, wantNlink)
			}
		}
	}
	walk(ns.Root())
	files = len(seen)
	for ino, cnt := range seen {
		n := ns.Get(ino)
		if n.Nlink != uint32(cnt) {
			t.Fatalf("file %d nlink = %d, want %d", ino, n.Nlink, cnt)
		}
	}
	if files != ns.NumFiles() {
		t.Fatalf("NumFiles = %d, walk found %d", ns.NumFiles(), files)
	}
	if dirs != ns.NumDirs() {
		t.Fatalf("NumDirs = %d, walk found %d", ns.NumDirs(), dirs)
	}
	if ns.NumInodes() != files+dirs {
		t.Fatalf("NumInodes = %d, want %d", ns.NumInodes(), files+dirs)
	}
}

// TestRandomOpsInvariants drives the namespace with random operation
// sequences and checks invariants throughout.
func TestRandomOpsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ns := New()
	paths := []string{"/"}
	randPath := func() string { return paths[rng.Intn(len(paths))] }
	newName := func() string { return fmt.Sprintf("n%d", rng.Intn(50)) }
	for i := 0; i < 5000; i++ {
		base := randPath()
		p := base + "/" + newName()
		switch rng.Intn(6) {
		case 0:
			if _, err := ns.Create(p, 0o644, t0()); err == nil {
				paths = append(paths, p)
			}
		case 1:
			if _, err := ns.Mkdir(p, 0o755, t0()); err == nil {
				paths = append(paths, p)
			}
		case 2:
			ns.Unlink(randPath(), t0())
		case 3:
			ns.Rmdir(randPath(), t0())
		case 4:
			ns.Rename(randPath(), base+"/"+newName(), t0())
		case 5:
			ns.Stat(randPath())
		}
		if i%500 == 0 {
			invariantCheck(t, ns)
		}
	}
	invariantCheck(t, ns)
}

// Property: create then unlink always restores the previous file count,
// for arbitrary names.
func TestCreateUnlinkRoundTrip(t *testing.T) {
	f := func(rawName string) bool {
		name := fmt.Sprintf("f%x", []byte(rawName))
		if len(name) > 200 {
			name = name[:200]
		}
		ns := New()
		before := ns.NumInodes()
		if _, err := ns.Create("/"+name, 0o644, t0()); err != nil {
			return false
		}
		if err := ns.Unlink("/"+name, t0()); err != nil {
			return false
		}
		return ns.NumInodes() == before && ns.NumFiles() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: directory entry names are unique — creating n distinct names
// yields n entries; creating any duplicate fails.
func TestUniqueNamesProperty(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ns := New()
		names := map[string]bool{}
		for i := 0; i < int(count); i++ {
			name := fmt.Sprintf("f%d", rng.Intn(40))
			_, err := ns.Create("/"+name, 0o644, t0())
			if names[name] {
				if fs.CodeOf(err) != fs.EEXIST {
					return false
				}
			} else {
				if err != nil {
					return false
				}
				names[name] = true
			}
		}
		ents, err := ns.ReadDir("/", t0())
		return err == nil && len(ents) == len(names)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryCostShapes(t *testing.T) {
	// Linear grows linearly, hash stays near-flat, btree logarithmic.
	lin1, lin2 := IndexLinear.EntryCost(1000), IndexLinear.EntryCost(100000)
	if lin2 < lin1*50 {
		t.Fatalf("linear cost not linear: %f -> %f", lin1, lin2)
	}
	h1, h2 := IndexHash.EntryCost(1000), IndexHash.EntryCost(1000000)
	if h2 > h1*2 {
		t.Fatalf("hash cost grew too fast: %f -> %f", h1, h2)
	}
	b1, b2 := IndexBTree.EntryCost(1000), IndexBTree.EntryCost(1000000)
	if b2 > b1*3 {
		t.Fatalf("btree cost grew too fast: %f -> %f", b1, b2)
	}
	for _, d := range []DirIndex{IndexLinear, IndexHash, IndexBTree} {
		if c := d.EntryCost(0); c != 1 {
			t.Fatalf("%v cost(0) = %f", d, c)
		}
	}
}
