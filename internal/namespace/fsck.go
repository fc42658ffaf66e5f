package namespace

import (
	"fmt"

	"dmetabench/internal/fs"
)

// Problem is one inconsistency found by Check.
type Problem struct {
	Ino  fs.Ino
	Kind string
	Note string
}

func (p Problem) String() string {
	return fmt.Sprintf("inode %d: %s (%s)", p.Ino, p.Kind, p.Note)
}

// Check is the file system checker of §2.7.1: it walks the tree from the
// root, then the inode table in number order, and verifies the mutual
// consistency of the metadata structures — link counts, parent pointers,
// reachability and the maintained totals.
// A healthy namespace returns an empty slice. It exists both as a test
// oracle for the simulator and as the programmatic equivalent of fsck
// for tooling built on the package.
func (ns *Namespace) Check() []Problem {
	var problems []Problem
	report := func(ino fs.Ino, kind, note string, args ...interface{}) {
		problems = append(problems, Problem{Ino: ino, Kind: kind, Note: fmt.Sprintf(note, args...)})
	}

	reachableFiles := make(map[fs.Ino]uint32) // ino -> observed link count
	reachableDirs := make(map[fs.Ino]bool)
	var walk func(n *Inode)
	walk = func(n *Inode) {
		ino := n.Ino
		if reachableDirs[ino] {
			report(ino, "dir-loop", "directory reachable twice")
			return
		}
		reachableDirs[ino] = true
		wantNlink := uint32(2)
		for name, c := range n.children {
			if ns.Get(c.Ino) != c {
				report(c.Ino, "dangling", "entry %q in dir %d points at no live inode", name, ino)
				continue
			}
			switch c.Type {
			case fs.TypeDirectory:
				wantNlink++
				if c.parent != ino {
					report(c.Ino, "bad-parent", "parent is %d, expected %d", c.parent, ino)
				}
				walk(c)
			default:
				reachableFiles[c.Ino]++
			}
		}
		if n.Nlink != wantNlink {
			report(ino, "bad-nlink", "dir nlink %d, expected %d", n.Nlink, wantNlink)
		}
	}
	root := ns.Get(ns.root.Ino)
	if root != ns.root {
		return []Problem{{Ino: ns.root.Ino, Kind: "no-root", Note: "root inode missing"}}
	}
	if root.parent != root.Ino {
		report(root.Ino, "bad-parent", "root dot-dot must point at itself")
	}
	walk(root)

	// The table in number order: every live inode must be reachable, and
	// a file's link count must equal the entries that reference it.
	live := 0
	for i, n := range ns.inodes {
		if n == nil {
			continue
		}
		live++
		ino := fs.Ino(i)
		if n.Ino != ino {
			report(ino, "bad-ino", "table slot %d holds inode %d", ino, n.Ino)
		}
		switch links := reachableFiles[ino]; {
		case n.Type == fs.TypeDirectory:
			if !reachableDirs[ino] {
				report(ino, "orphan", "directory not reachable from root")
			}
		case links == 0:
			report(ino, "orphan", "file has no directory entry")
		case n.Nlink != links:
			report(ino, "bad-nlink", "file nlink %d, %d entries reference it", n.Nlink, links)
		}
	}
	if live != ns.live {
		report(0, "bad-count", "inode counter %d, table holds %d", ns.live, live)
	}
	if got := len(reachableFiles); got != ns.files {
		report(0, "bad-count", "file counter %d, walk found %d", ns.files, got)
	}
	if got := len(reachableDirs); got != ns.dirs {
		report(0, "bad-count", "dir counter %d, walk found %d", ns.dirs, got)
	}
	return problems
}

// MustBeConsistent panics with the problem list if the namespace is
// inconsistent; a convenience for tests and examples.
func (ns *Namespace) MustBeConsistent() {
	if problems := ns.Check(); len(problems) > 0 {
		panic(fmt.Sprintf("namespace inconsistent: %v", problems))
	}
}
