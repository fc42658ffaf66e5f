// Package cxfs models a SAN file system with central metadata management
// in the style of CXFS on the HLRB II (§4.1.3, §4.5.3): clients reach
// storage directly over a low-latency SAN, but every metadata operation
// is delegated to a single active metadata server. Inside one (large SMP)
// client node, the kernel's CXFS client layer serializes metadata
// operations on a per-node token — the reason file creation on CXFS does
// not scale with intra-node process counts, unlike NFS.
package cxfs

import (
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
)

// The model's fixed calibration approximates the HLRB II CXFS setup.
// All metadata operations of one node are serialized on the client
// token, matching observed CXFS behaviour.
const (
	mdsThreads    = 2
	oneWayLatency = 60 * time.Microsecond // SAN/private network latency

	createService  = 260 * time.Microsecond
	getattrService = 60 * time.Microsecond
	removeService  = 240 * time.Microsecond
	mkdirService   = 300 * time.Microsecond
	renameService  = 320 * time.Microsecond
	readdirService = 150 * time.Microsecond

	attrTTL  = 5 * time.Second
	dirIndex = namespace.IndexBTree
)

// FS is one CXFS file system.
type FS struct {
	k *sim.Kernel

	// conn is every node's path to the MDS: without a bandwidth limit a
	// call changes nothing in a Conn. A limit would need one per node.
	conn     *simnet.Conn
	ns       *namespace.Namespace
	tokens   map[*cluster.Node]*sim.Mutex
	attrs    map[*cluster.Node]*clientcache.NameCache
	dirLocks *sim.Locks
	rpcs     int64
}

// New creates a CXFS instance.
func New(k *sim.Kernel, name string) *FS {
	return &FS{
		k:        k,
		conn:     simnet.NewConn(k, simnet.NewServer(k, "cxfs-mds:"+name, mdsThreads), oneWayLatency, 0),
		ns:       namespace.New(),
		tokens:   make(map[*cluster.Node]*sim.Mutex),
		attrs:    make(map[*cluster.Node]*clientcache.NameCache),
		dirLocks: sim.NewLocks(k, "cxfsdir"),
	}
}

// Name identifies the model.
func (f *FS) Name() string { return "cxfs" }

// Namespace exposes the metadata server's namespace.
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// RPCCount returns the number of metadata RPCs served.
func (f *FS) RPCCount() int64 { return f.rpcs }

func (f *FS) token(n *cluster.Node) *sim.Mutex {
	m, ok := f.tokens[n]
	if !ok {
		m = sim.NewMutex(f.k, "cxfstoken:"+n.Name)
		f.tokens[n] = m
	}
	return m
}

// attrCache returns n's cache, which holds attributes only.
func (f *FS) attrCache(n *cluster.Node) *clientcache.NameCache {
	c, ok := f.attrs[n]
	if !ok {
		c = clientcache.NewNameCache(attrTTL, 0, f.k.Now, nil)
		f.attrs[n] = c
	}
	return c
}

// NewClient binds a client for one process on one node.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p}
}

// client implements fs.Client; its open files are their paths.
type client struct {
	fsys  *FS
	node  *cluster.Node
	p     *sim.Proc
	files fs.Files[string]
}

// metaOp runs one delegated metadata operation: per-node token, RPC to
// the central MDS, directory-size scaled service, namespace change.
func (c *client) metaOp(p string, svc time.Duration, useDirCost bool, apply func(sp *sim.Proc) error) error {
	f := c.fsys
	c.node.Syscall(c.p)
	tok := f.token(c.node)
	tok.Lock(c.p)
	defer tok.Unlock()
	var err error
	f.conn.Call(c.p, 180, 150, func(sp *sim.Proc) {
		if useDirCost {
			if dir, lerr := f.ns.Lookup(fs.ParentDir(p)); lerr == nil {
				lock := f.dirLocks.Get(uint64(dir.Ino))
				lock.Lock(sp)
				defer lock.Unlock()
				sp.Sleep(time.Duration(float64(svc) * dirIndex.EntryCost(f.ns.NumChildren(dir))))
			} else {
				sp.Sleep(svc)
			}
		} else {
			sp.Sleep(svc)
		}
		f.rpcs++
		err = apply(sp)
	})
	return err
}

// Create delegates the create to the metadata server.
func (c *client) Create(p string) error {
	err := c.metaOp(p, createService, true, func(sp *sim.Proc) error {
		_, e := c.fsys.ns.Create(p, 0o644, sp.Now())
		return e
	})
	if err == nil {
		if a, e := c.fsys.ns.Stat(p); e == nil {
			c.fsys.attrCache(c.node).PutAttr(p, a)
		}
	}
	return err
}

// Open resolves the path via the MDS (or cache) and returns a handle.
func (c *client) Open(p string) (fs.Handle, error) {
	if _, err := c.Stat(p); err != nil {
		return 0, err
	}
	return c.files.Open(p), nil
}

// Close releases the handle; data was written directly to the SAN.
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	_, err := c.files.Close(h)
	return err
}

// Write goes directly to the SAN storage: cheap and fully parallel (the
// SAN advantage); only the size update involves the MDS lazily, and it
// fails with EISDIR on a directory.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	p, err := c.files.Get("write", h)
	if err != nil {
		return err
	}
	c.p.Sleep(time.Duration(float64(n) / float64(200<<20) * float64(time.Second)))
	if node, err := c.fsys.ns.Lookup(p); err == nil {
		return c.fsys.ns.SetSize(node.Ino, node.Size+n, c.p.Now())
	}
	return nil
}

// Fsync is a SAN flush.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	if _, err := c.files.Get("fsync", h); err != nil {
		return err
	}
	c.p.Sleep(100 * time.Microsecond)
	return nil
}

// Mkdir delegates to the MDS.
func (c *client) Mkdir(p string) error {
	return c.metaOp(p, mkdirService, true, func(sp *sim.Proc) error {
		_, e := c.fsys.ns.Mkdir(p, 0o755, sp.Now())
		return e
	})
}

// Rmdir delegates to the MDS.
func (c *client) Rmdir(p string) error {
	return c.metaOp(p, removeService, true, func(sp *sim.Proc) error {
		return c.fsys.ns.Rmdir(p, sp.Now())
	})
}

// Unlink delegates to the MDS.
func (c *client) Unlink(p string) error {
	err := c.metaOp(p, removeService, true, func(sp *sim.Proc) error {
		return c.fsys.ns.Unlink(p, sp.Now())
	})
	if err == nil {
		c.fsys.attrCache(c.node).Invalidate(p)
	}
	return err
}

// Rename delegates to the MDS.
func (c *client) Rename(oldPath, newPath string) error {
	err := c.metaOp(oldPath, renameService, true, func(sp *sim.Proc) error {
		return c.fsys.ns.Rename(oldPath, newPath, sp.Now())
	})
	if err == nil {
		cache := c.fsys.attrCache(c.node)
		cache.Invalidate(oldPath)
		cache.Invalidate(newPath)
	}
	return err
}

// Stat serves from the node cache or delegates to the MDS.
func (c *client) Stat(p string) (fs.Attr, error) {
	c.node.Syscall(c.p)
	cache := c.fsys.attrCache(c.node)
	if a, ok := cache.Attr(p); ok {
		return a, nil
	}
	var a fs.Attr
	err := c.metaOp(p, getattrService, false, func(sp *sim.Proc) error {
		var e error
		a, e = c.fsys.ns.Stat(p)
		return e
	})
	if err != nil {
		return fs.Attr{}, err
	}
	cache.PutAttr(p, a)
	return a, nil
}

// ReadDir delegates to the MDS.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	var ents []fs.DirEntry
	err := c.metaOp(p, readdirService, false, func(sp *sim.Proc) error {
		var e error
		ents, e = c.fsys.ns.ReadDir(p, sp.Now())
		if e == nil {
			sp.Sleep(time.Duration(len(ents)) * time.Microsecond)
		}
		return e
	})
	return ents, err
}

// DropCaches clears the node's attribute cache.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	c.fsys.attrCache(c.node).Clear()
}
