// Package localfs models a node-local in-memory file system (the
// /dev/shm case of the thesis's Python-vs-C calibration, §4.2.2, and the
// intra-node baseline of §4.5): operations cost CPU time on the owning
// node plus a small per-operation base cost that scales with directory
// size according to its directory index, with per-directory kernel
// locking for concurrent modifications.
package localfs

import (
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
)

// The cost model approximates tmpfs on a 2008-era Xeon: a create/close
// pair costs single-digit microseconds.
const (
	createCost  = 2500 * time.Nanosecond
	statCost    = 900 * time.Nanosecond
	removeCost  = 2200 * time.Nanosecond
	mkdirCost   = 3 * time.Microsecond
	renameCost  = 3 * time.Microsecond
	readdirCost = 2 * time.Microsecond
	writeCostKB = 1500 * time.Nanosecond
	dirIndex    = namespace.IndexHash
)

// FS is one local file system instance bound to a node.
type FS struct {
	node *cluster.Node
	ns   *namespace.Namespace

	dirLocks *sim.Locks
}

// New creates a local file system on node.
func New(k *sim.Kernel, node *cluster.Node) *FS {
	return &FS{node: node, ns: namespace.New(), dirLocks: sim.NewLocks(k, "localdir")}
}

// Name identifies the model.
func (f *FS) Name() string { return "localfs" }

// Namespace exposes the backing namespace.
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// NewClient binds a client for one process. Processes on foreign nodes
// cannot mount a local file system.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	if node != f.node {
		panic("localfs: client node differs from file system node")
	}
	return &client{fsys: f, p: p}
}

type openFile struct {
	path string
	ino  fs.Ino
}

type client struct {
	fsys  *FS
	p     *sim.Proc
	files fs.Files[openFile]
}

// op charges CPU for a directory-touching operation under the kernel's
// per-directory lock, scaled by the directory's size once the lock is
// held.
func (c *client) op(p string, base time.Duration, apply func(now time.Duration) error) error {
	f := c.fsys
	f.node.Syscall(c.p)
	h := f.ns.Parent(p)
	lock, n := service.LockParent(c.p, f.dirLocks, &h)
	defer lock.Unlock()
	f.node.Exec(c.p, time.Duration(float64(base)*dirIndex.EntryCost(n)))
	return apply(c.p.Now())
}

// Create makes a file.
func (c *client) Create(p string) error {
	return c.op(p, createCost, func(now time.Duration) error {
		_, err := c.fsys.ns.Create(p, 0o644, now)
		return err
	})
}

// Open resolves and returns a handle.
func (c *client) Open(p string) (fs.Handle, error) {
	f := c.fsys
	f.node.Syscall(c.p)
	f.node.Exec(c.p, statCost)
	node, err := f.ns.Lookup(p)
	if err != nil {
		return 0, err
	}
	return c.files.Open(openFile{path: p, ino: node.Ino}), nil
}

// Close releases the handle.
func (c *client) Close(h fs.Handle) error {
	c.fsys.node.Syscall(c.p)
	_, err := c.files.Close(h)
	return err
}

// Write updates the size, charging copy cost.
func (c *client) Write(h fs.Handle, n int64) error {
	f := c.fsys
	f.node.Syscall(c.p)
	of, err := c.files.Get("write", h)
	if err != nil {
		return err
	}
	f.node.Exec(c.p, time.Duration(float64(writeCostKB)*float64(n)/1024))
	node := f.ns.Get(of.ino)
	if node == nil {
		return fs.NewError("write", of.path, fs.ESTALE)
	}
	return f.ns.SetSize(of.ino, node.Size+n, c.p.Now())
}

// Fsync is a no-op for the in-memory file system.
func (c *client) Fsync(h fs.Handle) error {
	c.fsys.node.Syscall(c.p)
	_, err := c.files.Get("fsync", h)
	return err
}

// Mkdir creates a directory.
func (c *client) Mkdir(p string) error {
	return c.op(p, mkdirCost, func(now time.Duration) error {
		_, err := c.fsys.ns.Mkdir(p, 0o755, now)
		return err
	})
}

// Rmdir removes a directory.
func (c *client) Rmdir(p string) error {
	return c.op(p, removeCost, func(now time.Duration) error {
		return c.fsys.ns.Rmdir(p, now)
	})
}

// Unlink removes a file.
func (c *client) Unlink(p string) error {
	return c.op(p, removeCost, func(now time.Duration) error {
		return c.fsys.ns.Unlink(p, now)
	})
}

// Rename moves an entry.
func (c *client) Rename(oldPath, newPath string) error {
	return c.op(oldPath, renameCost, func(now time.Duration) error {
		return c.fsys.ns.Rename(oldPath, newPath, now)
	})
}

// Stat reads attributes.
func (c *client) Stat(p string) (fs.Attr, error) {
	f := c.fsys
	f.node.Syscall(c.p)
	f.node.Exec(c.p, statCost)
	return f.ns.Stat(p)
}

// ReadDir lists a directory.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	f := c.fsys
	f.node.Syscall(c.p)
	ents, err := f.ns.ReadDir(p, c.p.Now())
	if err != nil {
		return nil, err
	}
	f.node.Exec(c.p, readdirCost+time.Duration(len(ents))*200*time.Nanosecond)
	return ents, nil
}

// DropCaches is a no-op: there is nothing behind the cache.
func (c *client) DropCaches() {
	c.fsys.node.Syscall(c.p)
}
