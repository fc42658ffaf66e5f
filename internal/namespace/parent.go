package namespace

import (
	"time"

	"dmetabench/internal/fs"
)

// Parent is a resolve-once handle on one path: the directory that holds
// its final component, plus that component's name. A server's service
// body takes one per operation and uses it for the directory lock, the
// entry count, the operation itself and the reply attributes, so the
// parent is walked once instead of once per step.
//
// A handle re-checks its resolution on every use. It reuses a
// successful resolution to a directory only while the namespace's
// generation is unchanged: an existing directory's path can only change
// through Rmdir or a directory-affecting Rename, and both start a new
// generation. A failed resolution, or one that ended at a non-directory,
// is never reused, because Mkdir, Create and Unlink can change either
// answer without a new generation. A handle therefore answers exactly
// what the path methods answer at the instant of each call, which lets
// a body keep it across the points where its process parks.
//
// Take it with Namespace.Parent and keep it a local value: its methods
// retain no pointer to it.
type Parent struct {
	ns   *Namespace
	path string
	// path[start:end] is the path without its leading and trailing
	// slashes; path[j:end] is the final component.
	start, end, j int
	// dir is the last resolution of path[start:j] that ended at a
	// directory, made at generation gen; nil if there is none.
	dir *Inode
	gen uint64
}

// Parent returns the handle for path. It resolves nothing yet.
func (ns *Namespace) Parent(path string) Parent {
	start, end := pathSpan(path)
	j := end
	for j > start && path[j-1] != '/' {
		j--
	}
	return Parent{ns: ns, path: path, start: start, end: end, j: j}
}

// parent resolves the span before the final component, reusing the last
// resolution while it still holds (see Parent).
func (h *Parent) parent() (*Inode, fs.Errno) {
	if h.dir != nil && h.gen == h.ns.gen {
		return h.dir, fs.OK
	}
	node, errno := h.ns.resolve(h.path, h.start, h.j)
	if errno != fs.OK {
		return nil, errno
	}
	if node.Type == fs.TypeDirectory {
		h.dir, h.gen = node, h.ns.gen
	}
	return node, fs.OK
}

// Dir returns what Lookup(fs.ParentDir(path)) returns, or nil where that
// fails: the inode whose lock and entry count a server charges for the
// operation.
func (h *Parent) Dir() *Inode {
	var node *Inode
	var errno fs.Errno
	if h.end < len(h.path) && h.start < h.end {
		// With a trailing slash, fs.ParentDir names the object itself.
		node, errno = h.ns.resolve(h.path, h.start, h.end)
	} else {
		node, errno = h.parent()
	}
	if errno != fs.OK {
		return nil
	}
	return node
}

// Entries returns the entry count of Dir, 0 if it does not resolve.
func (h *Parent) Entries() int {
	if d := h.Dir(); d != nil {
		return h.ns.NumChildren(d)
	}
	return 0
}

// dirAndName returns the directory that holds the final component and
// its name, failing as op would on a path that names no entry.
func (h *Parent) dirAndName(op string) (*Inode, string, error) {
	if h.start >= h.end {
		return nil, "", fs.NewError(op, h.path, fs.EINVAL)
	}
	name := h.path[h.j:h.end]
	if name == "." || name == ".." {
		return nil, "", fs.NewError(op, h.path, fs.EINVAL)
	}
	dir, errno := h.parent()
	if errno != fs.OK {
		return nil, "", fs.NewError("walk", h.path, errno)
	}
	if dir.Type != fs.TypeDirectory {
		return nil, "", fs.NewError(op, h.path, fs.ENOTDIR)
	}
	return dir, name, nil
}

// Create makes a regular file at the handle's path; see Namespace.Create.
func (h *Parent) Create(mode uint32, now time.Duration) (*Inode, error) {
	dir, name, err := h.dirAndName("create")
	if err != nil {
		return nil, err
	}
	entries := h.ns.children(dir)
	if _, ok := entries[name]; ok {
		return nil, fs.NewError("create", h.path, fs.EEXIST)
	}
	ino := h.ns.alloc(fs.TypeRegular, mode, now)
	entries[name] = ino
	dir.Mtime, dir.Ctime = now, now
	h.ns.files++
	return ino, nil
}

// Unlink removes the handle's path; see Namespace.Unlink.
func (h *Parent) Unlink(now time.Duration) error {
	dir, name, err := h.dirAndName("unlink")
	if err != nil {
		return err
	}
	entries := h.ns.children(dir)
	child, ok := entries[name]
	if !ok {
		return fs.NewError("unlink", h.path, fs.ENOENT)
	}
	if child.Type == fs.TypeDirectory {
		return fs.NewError("unlink", h.path, fs.EISDIR)
	}
	delete(entries, name)
	dir.Mtime, dir.Ctime = now, now
	h.ns.free(child)
	h.ns.files--
	return nil
}

// Stat returns the attributes of the object at the handle's path; see
// Namespace.Stat.
func (h *Parent) Stat() (fs.Attr, error) {
	node, errno := h.lookup()
	if errno != fs.OK {
		return fs.Attr{}, fs.NewError("walk", h.path, errno)
	}
	return node.Attr(), nil
}

// lookup resolves the whole path through the handle's parent, with the
// answers of Lookup.
func (h *Parent) lookup() (*Inode, fs.Errno) {
	if h.start >= h.end {
		return h.ns.root, fs.OK
	}
	dir, errno := h.parent()
	if errno != fs.OK {
		return nil, errno
	}
	if dir.Type != fs.TypeDirectory {
		return nil, fs.ENOTDIR
	}
	switch name := h.path[h.j:h.end]; name {
	case ".":
		return dir, fs.OK
	case "..":
		return h.ns.dotdot(dir), fs.OK
	default:
		node, ok := h.ns.children(dir)[name]
		if !ok {
			return nil, fs.ENOENT
		}
		return node, fs.OK
	}
}
