// Package pvfs models a parallel file system in the style of PVFS2
// (§2.5.3): multiple combined metadata/data servers with the namespace
// distributed across them by handle hashing, fully synchronous operations
// and **no client-side caching at all** — the design §2.7.2 credits with
// trivial crash recovery ("there is no cached state on the client") and
// §2.6.1 with its nonconflicting-write semantics.
//
// The practical consequences the benchmark exposes: StatFiles and
// StatNocacheFiles perform identically (nothing is cached, so there is
// nothing to drop), every operation pays a network round trip, and
// metadata throughput scales with the number of servers because
// directories hash across them.
package pvfs

import (
	"fmt"
	"hash/fnv"
	"path"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
)

// Config holds the tunables of the PVFS2 model.
type Config struct {
	OneWayLatency time.Duration
}

// DefaultConfig approximates a small PVFS2 installation on gigabit
// ethernet: cheap servers, everything synchronous.
func DefaultConfig() Config {
	return Config{OneWayLatency: 250 * time.Microsecond}
}

// The installation's fixed calibration: four combined metadata/data
// servers with their service times.
const (
	numServers    = 4
	serverThreads = 2

	createService     = 300 * time.Microsecond
	getattrService    = 80 * time.Microsecond
	removeService     = 280 * time.Microsecond
	mkdirService      = 320 * time.Microsecond
	renameService     = 360 * time.Microsecond
	readdirService    = 150 * time.Microsecond
	writeServicePerKB = 35 * time.Microsecond
	dirIndex          = namespace.IndexBTree
)

// FS is one PVFS2 file system.
type FS struct {
	k   *sim.Kernel
	cfg Config

	servers  []*simnet.Server
	ns       *namespace.Namespace
	conns    map[connKey]*simnet.Conn
	dirLocks map[fs.Ino]*sim.Mutex
	rpcs     int64
}

type connKey struct {
	node *cluster.Node
	srv  int
}

// New creates a PVFS2 file system with numServers servers.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	f := &FS{
		k:        k,
		cfg:      cfg,
		ns:       namespace.New(),
		conns:    make(map[connKey]*simnet.Conn),
		dirLocks: make(map[fs.Ino]*sim.Mutex),
	}
	for i := 0; i < numServers; i++ {
		f.servers = append(f.servers,
			simnet.NewServer(k, fmt.Sprintf("pvfs%d:%s", i, name), serverThreads))
	}
	return f
}

// Name identifies the model.
func (f *FS) Name() string { return "pvfs" }

// Namespace exposes the (logically distributed) namespace.
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// RPCCount returns the number of server RPCs.
func (f *FS) RPCCount() int64 { return f.rpcs }

// serverFor hashes a path to its owning server (handle distribution).
func (f *FS) serverFor(p string) int {
	h := fnv.New32a()
	h.Write([]byte(path.Clean(p)))
	return int(h.Sum32()) % len(f.servers)
}

func (f *FS) conn(n *cluster.Node, srv int) *simnet.Conn {
	key := connKey{n, srv}
	c, ok := f.conns[key]
	if !ok {
		c = simnet.NewConn(f.k, f.servers[srv], f.cfg.OneWayLatency, 0)
		f.conns[key] = c
	}
	return c
}

func (f *FS) dirLock(ino fs.Ino) *sim.Mutex {
	m, ok := f.dirLocks[ino]
	if !ok {
		m = sim.NewMutex(f.k, fmt.Sprintf("pvfsdir:%d", ino))
		f.dirLocks[ino] = m
	}
	return m
}

// NewClient binds a client for one process on one node. PVFS2 clients
// hold no state beyond open handles.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]string)}
}

type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	nextFH  fs.Handle
	handles map[fs.Handle]string
}

// dirOp runs a namespace-changing operation at the server owning the
// parent directory, with directory-size scaled service time.
func (c *client) dirOp(p string, svc time.Duration, apply func(sp *sim.Proc) error) error {
	f := c.fsys
	c.node.Syscall(c.p)
	srv := f.serverFor(fs.ParentDir(p))
	var err error
	f.conn(c.node, srv).Call(c.p, 180, 150, func(sp *sim.Proc) {
		if dir, lerr := f.ns.Lookup(fs.ParentDir(p)); lerr == nil {
			lock := f.dirLock(dir.Ino)
			lock.Lock(sp)
			defer lock.Unlock()
			sp.Sleep(time.Duration(float64(svc) * dirIndex.EntryCost(dir.NumChildren())))
		} else {
			sp.Sleep(svc)
		}
		f.rpcs++
		err = apply(sp)
	})
	return err
}

// Create makes a file: a directory-server operation plus a metadata
// object create at the file's own server (two round trips, like the
// dirent + metafile split in PVFS2).
func (c *client) Create(p string) error {
	err := c.dirOp(p, createService, func(sp *sim.Proc) error {
		_, e := c.fsys.ns.Create(p, 0o644, sp.Now())
		return e
	})
	if err != nil {
		return err
	}
	srv := c.fsys.serverFor(p)
	c.fsys.conn(c.node, srv).Call(c.p, 150, 150, func(sp *sim.Proc) {
		sp.Sleep(createService / 2)
		c.fsys.rpcs++
	})
	return nil
}

// Open verifies existence at the server (no client cache to consult).
func (c *client) Open(p string) (fs.Handle, error) {
	if _, err := c.Stat(p); err != nil {
		return 0, err
	}
	c.nextFH++
	c.handles[c.nextFH] = p
	return c.nextFH, nil
}

// Close discards the handle (no cached state to flush).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	if _, ok := c.handles[h]; !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	return nil
}

// Write is synchronous to the file's server: no client caching, so the
// data (and size update) are on the server when the call returns.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	p, ok := c.handles[h]
	if !ok {
		return fs.NewError("write", "", fs.EBADF)
	}
	f := c.fsys
	srv := f.serverFor(p)
	var err error
	f.conn(c.node, srv).Call(c.p, 150+n, 150, func(sp *sim.Proc) {
		sp.Sleep(time.Duration(float64(writeServicePerKB) * float64(n) / 1024))
		f.rpcs++
		node, lerr := f.ns.Lookup(p)
		if lerr != nil {
			err = lerr
			return
		}
		err = f.ns.SetSize(node.Ino, node.Size+n, sp.Now())
	})
	return err
}

// Fsync is a no-op: every write was already synchronous.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	if _, ok := c.handles[h]; !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	return nil
}

// Mkdir creates a directory at the parent's server.
func (c *client) Mkdir(p string) error {
	return c.dirOp(p, mkdirService, func(sp *sim.Proc) error {
		_, e := c.fsys.ns.Mkdir(p, 0o755, sp.Now())
		return e
	})
}

// Rmdir removes a directory.
func (c *client) Rmdir(p string) error {
	return c.dirOp(p, removeService, func(sp *sim.Proc) error {
		return c.fsys.ns.Rmdir(p, sp.Now())
	})
}

// Unlink removes a file.
func (c *client) Unlink(p string) error {
	return c.dirOp(p, removeService, func(sp *sim.Proc) error {
		return c.fsys.ns.Unlink(p, sp.Now())
	})
}

// Rename moves an entry (atomic at the directory server; the thesis
// notes PVFS2 serializes this through the owning server).
func (c *client) Rename(oldPath, newPath string) error {
	return c.dirOp(oldPath, renameService, func(sp *sim.Proc) error {
		return c.fsys.ns.Rename(oldPath, newPath, sp.Now())
	})
}

// Link creates a hardlink.
func (c *client) Link(oldPath, newPath string) error {
	return c.dirOp(newPath, createService, func(sp *sim.Proc) error {
		return c.fsys.ns.Link(oldPath, newPath, sp.Now())
	})
}

// Symlink creates a symbolic link.
func (c *client) Symlink(target, linkPath string) error {
	return c.dirOp(linkPath, createService, func(sp *sim.Proc) error {
		_, e := c.fsys.ns.Symlink(target, linkPath, sp.Now())
		return e
	})
}

// Stat always asks the file's server: PVFS2 clients cache nothing.
func (c *client) Stat(p string) (fs.Attr, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	srv := f.serverFor(p)
	var a fs.Attr
	var err error
	f.conn(c.node, srv).Call(c.p, 150, 170, func(sp *sim.Proc) {
		sp.Sleep(getattrService)
		f.rpcs++
		a, err = f.ns.Stat(p)
	})
	return a, err
}

// ReadDir lists a directory at its server.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	srv := f.serverFor(p)
	var ents []fs.DirEntry
	var err error
	f.conn(c.node, srv).Call(c.p, 150, 300, func(sp *sim.Proc) {
		ents, err = f.ns.ReadDir(p, sp.Now())
		sp.Sleep(readdirService + time.Duration(len(ents))*time.Microsecond)
		f.rpcs++
	})
	return ents, err
}

// DropCaches is trivially a no-op: there is no client cache.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
}
