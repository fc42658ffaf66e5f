package namespace

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"dmetabench/internal/fs"
)

// TestInodeTable pins the numbered inode table: NumInodes follows every
// operation that makes or frees an inode, Get answers nil for numbers
// that are free or were never handed out, numbers are never reused, and
// fsck stays clean throughout.
func TestInodeTable(t *testing.T) {
	ns := New()
	if ns.Get(0) != nil {
		t.Fatal("Get(0) returned an inode")
	}
	seen := map[fs.Ino]bool{ns.Root(): true}
	var last fs.Ino = ns.Root()
	// fresh checks that an inode took a number above every earlier one.
	fresh := func(n *Inode, err error) *Inode {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if seen[n.Ino] || n.Ino <= last {
			t.Fatalf("inode number %d reused or out of order (last %d)", n.Ino, last)
		}
		seen[n.Ino], last = true, n.Ino
		return n
	}
	steps := []struct {
		name string
		do   func()
		want int
	}{
		{"mkdir /d", func() { fresh(ns.Mkdir("/d", 0o755, 0)) }, 2},
		{"mkdir /e", func() { fresh(ns.Mkdir("/e", 0o755, 0)) }, 3},
		{"create /d/f", func() { fresh(ns.Create("/d/f", 0o644, 0)) }, 4},
		{"create /d/g", func() { fresh(ns.Create("/d/g", 0o644, 0)) }, 5},
		{"symlink /d/s", func() { fresh(ns.Symlink("/d/f", "/d/s", 0)) }, 6},
		{"link /d/h", func() { must(t, ns.Link("/d/f", "/d/h", 0)) }, 6},
		{"unlink /d/f (a link remains)", func() { must(t, ns.Unlink("/d/f", 0)) }, 6},
		{"unlink /d/s", func() { must(t, ns.Unlink("/d/s", 0)) }, 5},
		{"rename /d/g over /d/h", func() { must(t, ns.Rename("/d/g", "/d/h", 0)) }, 4},
		{"mkdir /e/x", func() { fresh(ns.Mkdir("/e/x", 0o755, 0)) }, 5},
		{"rename /e over empty /d/x", func() {
			fresh(ns.Mkdir("/d/x", 0o755, 0))
			must(t, ns.Rename("/e/x", "/d/x", 0))
		}, 5},
		{"rmdir /e", func() { must(t, ns.Rmdir("/e", 0)) }, 4},
		{"create /d/f again", func() { fresh(ns.Create("/d/f", 0o644, 0)) }, 5},
	}
	for _, s := range steps {
		s.do()
		if got := ns.NumInodes(); got != s.want {
			t.Fatalf("after %s: NumInodes = %d, want %d", s.name, got, s.want)
		}
		if p := ns.Check(); len(p) != 0 {
			t.Fatalf("after %s: fsck: %v", s.name, p)
		}
		// Every number handed out is either live or answers nil, and
		// none past the last exists.
		live := 0
		for ino := range seen {
			if n := ns.Get(ino); n != nil {
				if n.Ino != ino {
					t.Fatalf("after %s: Get(%d) returned inode %d", s.name, ino, n.Ino)
				}
				live++
			}
		}
		if live != s.want {
			t.Fatalf("after %s: %d numbers resolve, want %d", s.name, live, s.want)
		}
		if ns.Get(last+1) != nil || ns.Get(1<<40) != nil {
			t.Fatalf("after %s: Get of a number never allocated returned an inode", s.name)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestInodeLayout pins the inode's size and its pointer-free layout:
// the table's pages then hold no pointer for the collector to scan.
func TestInodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(Inode{}); got != 64 {
		t.Fatalf("Inode is %d bytes, want 64", got)
	}
	typ := reflect.TypeOf(Inode{})
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer, reflect.Struct, reflect.Array:
			t.Errorf("Inode.%s is a %v, which holds a pointer or may", f.Name, f.Type)
		}
	}
}

// TestPageOf checks the page arithmetic against a walk of the page
// sizes: slots run through the pages in order with no gap or overlap.
func TestPageOf(t *testing.T) {
	var slot uint32
	for p := uint32(0); p < pageShift+4; p++ {
		for off := uint32(0); off < pageSize(p); off++ {
			if gp, goff := pageOf(slot); gp != p || goff != off {
				t.Fatalf("pageOf(%d) = (%d, %d), want (%d, %d)", slot, gp, goff, p, off)
			}
			slot++
		}
	}
}

// TestGetAcrossPages checks Get over several pages: every live number
// answers its inode, a freed one nil (also the first and last of a
// page), and so do 0 and numbers never handed out. Pointers taken
// before the table grew still reach the same inodes.
func TestGetAcrossPages(t *testing.T) {
	ns := New()
	n := 3*pageLen + 5
	held := make([]*Inode, 0, n)
	for i := range n {
		node, err := ns.Create(fmt.Sprintf("/f%d", i), 0o644, time.Duration(i))
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, node)
	}
	if len(ns.pages) != pageShift+4 {
		t.Fatalf("%d inodes fill %d pages, want %d", n+1, len(ns.pages), pageShift+4)
	}
	// Free the first and last inode of every page but the root's, and
	// the newest.
	freed := map[fs.Ino]bool{}
	for _, ino := range []fs.Ino{2, 8, 9, 16, 17, 32, 33, 256, 257, 512, 513, 1024, 1025, 1536, 1537, fs.Ino(n + 1)} {
		if err := ns.Unlink(fmt.Sprintf("/f%d", ino-2), 0); err != nil {
			t.Fatal(err)
		}
		freed[ino] = true
	}
	for i, node := range held {
		ino := fs.Ino(i + 2)
		got := ns.Get(ino)
		switch {
		case freed[ino]:
			if got != nil || node.Ino != 0 {
				t.Fatalf("freed %d: Get = %v, slot holds %d", ino, got, node.Ino)
			}
		case got != node || node.Ino != ino || node.Mtime != time.Duration(i):
			t.Fatalf("Get(%d) = %p (ino %d), held %p (ino %d, mtime %v)", ino, got, got.Ino, node, node.Ino, node.Mtime)
		}
	}
	for _, ino := range []fs.Ino{0, fs.Ino(n + 2), fs.Ino(4 * pageLen), 1 << 33} {
		if ns.Get(ino) != nil {
			t.Fatalf("Get(%d) answered an inode", ino)
		}
	}
	if p := ns.Check(); len(p) != 0 {
		t.Fatalf("fsck: %v", p)
	}
}

// TestSideTableSurvivesRename checks that a symlink's target and a
// directory's ".." follow their inodes through renames, and that a
// freed side-table entry is reused clean.
func TestSideTableSurvivesRename(t *testing.T) {
	ns := New()
	must(t, errOnly(ns.Mkdir("/a", 0o755, 0)))
	must(t, errOnly(ns.Mkdir("/b", 0o755, 0)))
	must(t, errOnly(ns.Mkdir("/a/d", 0o755, 0)))
	must(t, errOnly(ns.Symlink("/some/target", "/a/s", 0)))
	must(t, ns.Rename("/a/s", "/b/s2", 0))
	must(t, ns.Rename("/a/d", "/b/d2", 0))
	s, err := ns.Lookup("/b/s2")
	if err != nil || ns.Target(s) != "/some/target" || s.Size != int64(len("/some/target")) {
		t.Fatalf("renamed symlink: %v, target %q", err, ns.Target(s))
	}
	b, _ := ns.Lookup("/b")
	if up, err := ns.Lookup("/b/d2/.."); err != nil || up != b {
		t.Fatalf("renamed directory's .. = %v (%v), want /b", up, err)
	}
	// Free the symlink and the old directory; new ones take their
	// entries and carry nothing over.
	must(t, ns.Unlink("/b/s2", 0))
	must(t, ns.Rmdir("/b/d2", 0))
	d, err := ns.Mkdir("/a/e", 0o755, 0)
	must(t, err)
	l, err := ns.Symlink("x", "/a/l", 0)
	must(t, err)
	if ns.NumChildren(d) != 0 || ns.Target(d) != "" || ns.Target(l) != "x" || ns.NumChildren(l) != 0 {
		t.Fatalf("reused entries: dir %d children, target %q; link target %q", ns.NumChildren(d), ns.Target(d), ns.Target(l))
	}
	if len(ns.ext) != 6 {
		t.Fatalf("side table holds %d entries, want 6 (empty, /, /a, /b, and the two reused)", len(ns.ext))
	}
	if f, _ := ns.Create("/a/f", 0o644, 0); ns.NumChildren(f) != 0 || ns.Target(f) != "" {
		t.Fatal("a regular file reports children or a target")
	}
	if p := ns.Check(); len(p) != 0 {
		t.Fatalf("fsck: %v", p)
	}
}

func errOnly(_ *Inode, err error) error { return err }

// TestNewAllocs pins what an empty namespace costs: no more allocations
// than the pointer table before the pages (the namespace, its inode
// pages and page list, the side table and the two maps).
func TestNewAllocs(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { New() }); avg > 6 {
		t.Fatalf("New allocated %.1f objects, want <= 6", avg)
	}
}
