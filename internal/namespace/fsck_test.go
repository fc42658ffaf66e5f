package namespace

import (
	"fmt"
	"math/rand"
	"testing"

	"dmetabench/internal/fs"
)

func TestCheckCleanTree(t *testing.T) {
	ns := New()
	ns.Mkdir("/a", 0o755, 0)
	ns.Mkdir("/a/b", 0o755, 0)
	ns.Create("/a/f", 0o644, 0)
	ns.Link("/a/f", "/a/b/g", 0)
	ns.Symlink("/a/f", "/a/s", 0)
	if problems := ns.Check(); len(problems) != 0 {
		t.Fatalf("clean tree reported: %v", problems)
	}
}

func TestCheckDetectsBadNlink(t *testing.T) {
	ns := New()
	f, _ := ns.Create("/f", 0o644, 0)
	f.Nlink = 7 // corrupt
	problems := ns.Check()
	if len(problems) == 0 {
		t.Fatal("corrupted nlink not detected")
	}
	if problems[0].Kind != "bad-nlink" {
		t.Fatalf("kind = %s", problems[0].Kind)
	}
}

func TestCheckDetectsDanglingEntry(t *testing.T) {
	ns := New()
	ns.Create("/f", 0o644, 0)
	root := ns.Get(ns.Root())
	// corrupt: an entry whose inode is not in the inode table
	ns.children(root)["ghost"] = &Inode{Ino: 9999, Type: fs.TypeRegular, Nlink: 1}
	found := false
	for _, p := range ns.Check() {
		if p.Kind == "dangling" {
			found = true
		}
	}
	if !found {
		t.Fatal("dangling entry not detected")
	}
}

func TestCheckDetectsOrphan(t *testing.T) {
	ns := New()
	ns.Create("/f", 0o644, 0)
	root := ns.Get(ns.Root())
	delete(ns.children(root), "f") // corrupt: inode stays allocated
	found := false
	for _, p := range ns.Check() {
		if p.Kind == "orphan" || p.Kind == "bad-count" {
			found = true
		}
	}
	if !found {
		t.Fatal("orphan not detected")
	}
}

func TestCheckDetectsBadParent(t *testing.T) {
	ns := New()
	ns.Mkdir("/a", 0o755, 0)
	ns.Mkdir("/a/b", 0o755, 0)
	b, _ := ns.Lookup("/a/b")
	ns.ext[b.ext].parent = ns.Root() // corrupt
	found := false
	for _, p := range ns.Check() {
		if p.Kind == "bad-parent" {
			found = true
		}
	}
	if !found {
		t.Fatal("bad parent pointer not detected")
	}
}

// TestCheckDetectsBadExt corrupts the side table two ways: a regular
// file that claims a side-table entry, and two directories that share
// one.
func TestCheckDetectsBadExt(t *testing.T) {
	for name, corrupt := range map[string]func(ns *Namespace){
		"file with an entry": func(ns *Namespace) {
			f, _ := ns.Lookup("/f")
			d, _ := ns.Lookup("/a")
			f.ext = d.ext
		},
		"shared entry": func(ns *Namespace) {
			a, _ := ns.Lookup("/a")
			b, _ := ns.Lookup("/b")
			b.ext = a.ext
		},
	} {
		ns := New()
		ns.Mkdir("/a", 0o755, 0)
		ns.Mkdir("/b", 0o755, 0)
		ns.Create("/f", 0o644, 0)
		corrupt(ns)
		found := false
		for _, p := range ns.Check() {
			if p.Kind == "bad-ext" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: not detected", name)
		}
	}
}

// TestCheckAfterRandomOps replaces manual invariant code: any sequence of
// successful operations must leave a namespace that fsck calls clean.
func TestCheckAfterRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ns := New()
	var paths []string
	paths = append(paths, "/")
	name := func() string { return fmt.Sprintf("x%d", rng.Intn(60)) }
	for i := 0; i < 8000; i++ {
		base := paths[rng.Intn(len(paths))]
		p := base + "/" + name()
		switch rng.Intn(8) {
		case 0:
			if _, err := ns.Create(p, 0o644, 0); err == nil {
				paths = append(paths, p)
			}
		case 1:
			if _, err := ns.Mkdir(p, 0o755, 0); err == nil {
				paths = append(paths, p)
			}
		case 2:
			ns.Unlink(paths[rng.Intn(len(paths))], 0)
		case 3:
			ns.Rmdir(paths[rng.Intn(len(paths))], 0)
		case 4:
			ns.Rename(paths[rng.Intn(len(paths))], base+"/"+name(), 0)
		case 5:
			ns.Link(paths[rng.Intn(len(paths))], base+"/"+name(), 0)
		case 6:
			ns.Symlink(paths[rng.Intn(len(paths))], base+"/"+name(), 0)
		case 7:
			ns.ReadDir(paths[rng.Intn(len(paths))], 0)
		}
		if i%1000 == 0 {
			if problems := ns.Check(); len(problems) != 0 {
				t.Fatalf("iteration %d: %v", i, problems)
			}
		}
	}
	if problems := ns.Check(); len(problems) != 0 {
		t.Fatalf("final check: %v", problems)
	}
	_ = fs.OK
}
