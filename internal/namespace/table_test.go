package namespace

import (
	"testing"

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
