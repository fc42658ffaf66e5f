// Package nfs models a client–server distributed file system in the
// style of NFSv3 against a WAFL-based filer (the LRZ production setup of
// §4.1.2): synchronous metadata operations, close-to-open consistency,
// client attribute and dentry caches, a server thread pool, per-directory
// serialization at both client (VFS i_mutex) and server, and NVRAM
// logging with consistency points.
package nfs

import (
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
	"dmetabench/internal/storage"
)

// Config holds the tunables of the NFS model. The defaults approximate a
// FAS3050-class filer on gigabit ethernet.
type Config struct {
	// ServerThreads is the filer's usable CPU parallelism.
	ServerThreads int
	// OneWayLatency is the network one-way delay client->server.
	OneWayLatency time.Duration
	// DirIndex is the server directory data structure.
	DirIndex namespace.DirIndex
}

// DefaultConfig returns the FAS3050-like parameter set.
func DefaultConfig() Config {
	return Config{
		ServerThreads: 4,
		OneWayLatency: 250 * time.Microsecond,
		DirIndex:      namespace.IndexHash,
	}
}

// The filer's fixed calibration: FAS3050-class service times, client
// cache lifetimes and NVRAM log record size.
const (
	// Service times for the metadata RPC classes.
	createService     = 150 * time.Microsecond
	getattrService    = 40 * time.Microsecond
	lookupService     = 40 * time.Microsecond
	removeService     = 140 * time.Microsecond
	mkdirService      = 180 * time.Microsecond
	renameService     = 180 * time.Microsecond
	readdirService    = 120 * time.Microsecond // per RPC; entries add readdirPerEntry
	readdirPerEntry   = 800 * time.Nanosecond
	writeServicePerKB = 30 * time.Microsecond
	// inodeInlineBytes: writes that keep the file at or below this size
	// stay in the inode (WAFL stores tiny files inline); crossing it
	// allocates a block (the MakeFiles64byte/65byte probe, §3.3.8).
	inodeInlineBytes = 64
	// blockAllocService is the extra service time for the first block.
	blockAllocService = 60 * time.Microsecond
	// attrTTL and dentryTTL are the client cache lifetimes.
	attrTTL   = 3 * time.Second
	dentryTTL = 30 * time.Second
	// metaLogBytes is the NVRAM log record size per namespace change.
	metaLogBytes = 320
)

// FS is one exported NFS file system (one filer volume).
type FS struct {
	k   *sim.Kernel
	cfg Config

	srv  *simnet.Server
	wafl *storage.WAFL
	ns   *namespace.Namespace
	// conn is every node's path to the filer: without a bandwidth limit
	// a call changes nothing in a Conn. A limit would need one per node.
	conn *simnet.Conn

	// dirLocks serialize same-directory modifications at the server.
	dirLocks *sim.Locks

	// nodes holds per-OS-instance client name caches.
	nodes map[*cluster.Node]*clientcache.NameCache

	// agg counts background demand injected through AttachAggregate.
	agg service.Counts
}

// New creates an NFS file system on kernel k.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	srv := simnet.NewServer(k, "nfs:"+name, cfg.ServerThreads)
	return &FS{
		k:        k,
		cfg:      cfg,
		srv:      srv,
		wafl:     storage.NewWAFL(k, name),
		ns:       namespace.New(),
		conn:     simnet.NewConn(k, srv, cfg.OneWayLatency, 0),
		dirLocks: sim.NewLocks(k, "nfsdir"),
		nodes:    make(map[*cluster.Node]*clientcache.NameCache),
	}
}

// Name identifies the model in results and charts.
func (f *FS) Name() string { return "nfs" }

// Namespace exposes the authoritative server namespace (for tests and
// environment profiling).
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// WAFL exposes the storage backend (for disturbance injection).
func (f *FS) WAFL() *storage.WAFL { return f.wafl }

// RPCCount returns the number of RPCs served so far.
func (f *FS) RPCCount() int64 { return f.srv.Served() }

func (f *FS) nodeCache(n *cluster.Node) *clientcache.NameCache {
	s, ok := f.nodes[n]
	if !ok {
		s = clientcache.NewNameCache(attrTTL, dentryTTL, f.k.Now, nil)
		f.nodes[n] = s
	}
	return s
}

// AttachAggregate starts the background injector (internal/service):
// ServerThreads daemon lanes on the filer's kernel, each drawing
// src(0, lane, tick) in strict tick order and occupying one server
// thread for the batch priced at the RPC classes' service times, scaled
// by the filer's consistency-point factor exactly as foreground RPCs
// are — analytically modeled client populations (internal/agg)
// saturating the single filer without per-client state (E35). Call
// before the kernel runs.
func (f *FS) AttachAggregate(tick time.Duration, src func(server, lane, tick int) service.Demand) {
	service.AttachAggregate(service.AggregateConfig{
		Servers: 1,
		Lanes:   f.cfg.ServerThreads,
		Tick:    tick,
		Kernel:  func(int) *sim.Kernel { return f.k },
		Pool:    func(int) *sim.Resource { return f.srv.Threads },
		Source:  src,
		Prices: service.PriceTable{
			Getattr: getattrService,
			Lookup:  lookupService,
			Readdir: readdirService,
			Create:  createService,
		},
		Factor: func(int) float64 { return f.wafl.ServiceFactor() },
		Counts: &f.agg,
	})
}

// AggCounts returns injected / shed operation counts and cumulative
// injected service time.
func (f *FS) AggCounts() (ops, shed int64, busy time.Duration) { return f.agg.Load() }

// service charges t, scaled by the CP factor and by the directory index
// at dirEntries entries (-1, like 0, scales by 1), while holding a
// server thread; the caller supplies the parent directory size when the
// op touches a directory index.
func (f *FS) service(p *sim.Proc, base time.Duration, dirEntries int) {
	p.Sleep(time.Duration(float64(base) * f.wafl.ServiceFactor() * f.cfg.DirIndex.EntryCost(dirEntries)))
}

// NewClient binds a client for one process on one node. It satisfies the
// benchmark framework's FileSystem interface.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p}
}

type openFile struct {
	path string
	ino  fs.Ino
	size int64
	fs.Buffer
}

// client implements fs.Client for one (node, process) pair.
type client struct {
	fsys  *FS
	node  *cluster.Node
	p     *sim.Proc
	cache *clientcache.NameCache
	files fs.Files[*openFile]
}

// names returns the node's name cache, looked up on the client's first
// use and kept.
func (c *client) names() *clientcache.NameCache {
	if c.cache == nil {
		c.cache = c.fsys.nodeCache(c.node)
	}
	return c.cache
}

// resolveParents walks the strict ancestors of p through the dentry
// cache, issuing one LOOKUP RPC per missing component — the POSIX
// requirement that every path component is checked (§2.3.1). With warm
// dentries (30 s TTL) the walk is free; after a cache drop a deep path
// costs one round trip per level. The service body fills the dentry
// cache at the reply's commit instant.
func (c *client) resolveParents(p string) error {
	names := c.names()
	for i := 1; i < len(p); i++ {
		if p[i] != '/' {
			continue
		}
		prefix := p[:i]
		if _, neg, ok := names.Dentry(prefix); ok {
			if neg {
				return fs.NewError("lookup", prefix, fs.ENOENT)
			}
			continue
		}
		var err error
		c.fsys.conn.Call(c.p, 120, 140, func(sp *sim.Proc) {
			c.fsys.service(sp, lookupService, -1)
			var a fs.Attr
			a, err = c.fsys.ns.Stat(prefix)
			if err == nil {
				names.Put(prefix, a)
			} else {
				names.PutNegative(prefix)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Create performs open(O_CREAT|O_EXCL)+close: one synchronous CREATE RPC
// under the client-side parent i_mutex and the server-side directory
// lock. The reply carries the file's attributes (also on EEXIST), copied
// out after the NVRAM log, which the client caches once the call
// returns. The service body resolves the parent once, through a
// namespace.Parent handle.
func (c *client) Create(p string) error {
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	var err error
	var a fs.Attr
	found := false
	c.fsys.conn.Call(c.p, 160, 160, func(sp *sim.Proc) {
		h := c.fsys.ns.Parent(p)
		lock, n := service.LockParent(sp, c.fsys.dirLocks, &h)
		defer lock.Unlock()
		c.fsys.service(sp, createService, n)
		_, err = h.Create(0o644, sp.Now())
		if err == nil {
			c.fsys.wafl.LogMetadata(sp, metaLogBytes)
		}
		if err == nil || fs.IsExist(err) {
			a, found = reply(h.Stat())
		}
	})
	if found {
		c.names().Put(p, a)
	}
	return err
}

// reply turns a commit-instant Stat into the attributes an RPC reply
// carries, reporting whether it carries any.
func reply(a fs.Attr, err error) (fs.Attr, bool) { return a, err == nil }

// Open resolves the path (dentry cache, else LOOKUP RPC) and returns a
// handle. Close-to-open: a fresh GETATTR piggybacks on the lookup. The
// file size is read from the filer's namespace.
func (c *client) Open(p string) (fs.Handle, error) {
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return 0, err
	}
	names := c.names()
	ino, neg, ok := names.Dentry(p)
	if !ok {
		var err error
		c.fsys.conn.Call(c.p, 120, 140, func(sp *sim.Proc) {
			h := c.fsys.ns.Parent(p)
			c.fsys.service(sp, lookupService, h.Entries())
			var a fs.Attr
			a, err = h.Stat()
			if err == nil {
				ino = a.Ino
				names.Put(p, a)
			} else {
				names.PutNegative(p)
			}
		})
		if err != nil {
			return 0, err
		}
	} else if neg {
		return 0, fs.NewError("open", p, fs.ENOENT)
	}
	node := c.fsys.ns.Get(ino)
	if node == nil {
		names.InvalidateDentry(p)
		return 0, fs.NewError("open", p, fs.ESTALE)
	}
	return c.files.Open(&openFile{path: p, ino: ino, size: node.Size}), nil
}

// Close flushes dirty data (close-to-open consistency requires the data
// to be on the server when close returns).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	return fs.CloseBuffered(&c.files, h, c.flush)
}

// Write buffers n bytes; the flush happens on Close or Fsync, matching
// the NFS client write-behind cache.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	return fs.WriteBuffered(&c.files, h, n)
}

// Fsync forces dirty data to the server.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	return fs.FsyncBuffered(&c.files, h, c.flush)
}

// flush writes the dirty bytes back; the reply carries the post-write
// attributes, which refresh the client's attribute cache. A flush to a
// directory fails with EISDIR; the bytes of a file unlinked while open
// are dropped without an error.
func (c *client) flush(of *openFile) error {
	newSize := of.size + of.Written
	var a fs.Attr
	found := false
	var err error
	c.fsys.conn.Call(c.p, 120+of.Written, 140, func(sp *sim.Proc) {
		t := time.Duration(float64(writeServicePerKB) * float64(of.Written) / 1024)
		if of.size <= inodeInlineBytes && newSize > inodeInlineBytes {
			// Crossing the inline threshold allocates the first block.
			t += blockAllocService
		}
		c.fsys.service(sp, t, -1)
		if serr := c.fsys.ns.SetSize(of.ino, newSize, sp.Now()); fs.CodeOf(serr) == fs.EISDIR {
			err = serr
		}
		c.fsys.wafl.LogMetadata(sp, metaLogBytes+of.Written)
		a, found = reply(c.fsys.ns.Stat(of.path))
	})
	of.size = newSize
	of.Reset()
	if found {
		c.names().PutAttr(of.path, a)
	}
	return err
}

// Mkdir issues a synchronous MKDIR RPC. The reply's attributes (also on
// EEXIST) replace any negative dentry an earlier failed lookup left.
func (c *client) Mkdir(p string) error {
	var a fs.Attr
	found := false
	err := c.modifyRPC("mkdir", p, mkdirService, func(sp *sim.Proc, h namespace.Parent) error {
		_, err := c.fsys.ns.Mkdir(p, 0o755, sp.Now())
		if err == nil || fs.IsExist(err) {
			a, found = reply(h.Stat())
		}
		return err
	})
	if found {
		c.names().Put(p, a)
	}
	return err
}

// Rmdir issues a synchronous RMDIR RPC.
func (c *client) Rmdir(p string) error {
	err := c.modifyRPC("rmdir", p, removeService, func(sp *sim.Proc, _ namespace.Parent) error {
		return c.fsys.ns.Rmdir(p, sp.Now())
	})
	if err == nil {
		c.names().Invalidate(p)
	}
	return err
}

// Unlink issues a synchronous REMOVE RPC.
func (c *client) Unlink(p string) error {
	err := c.modifyRPC("unlink", p, removeService, func(sp *sim.Proc, h namespace.Parent) error {
		return h.Unlink(sp.Now())
	})
	if err == nil {
		c.names().Invalidate(p)
	}
	return err
}

// Rename issues a synchronous RENAME RPC (atomic at the server).
func (c *client) Rename(oldPath, newPath string) error {
	var a fs.Attr
	found := false
	err := c.modifyRPC("rename", oldPath, renameService, func(sp *sim.Proc, _ namespace.Parent) error {
		err := c.fsys.ns.Rename(oldPath, newPath, sp.Now())
		if err == nil {
			a, found = reply(c.fsys.ns.Stat(newPath))
		}
		return err
	})
	if err == nil {
		names := c.names()
		names.Invalidate(oldPath)
		if found {
			names.Put(newPath, a)
		} else {
			names.Invalidate(newPath)
		}
	}
	return err
}

// modifyRPC is the common path of the namespace-changing operations.
// apply runs in the service body: it may read the namespace and copy
// out reply attributes. It receives the body's handle on p by value, so
// the handle stays on the body's stack.
func (c *client) modifyRPC(op, p string, svc time.Duration, apply func(sp *sim.Proc, h namespace.Parent) error) error {
	c.node.Syscall(c.p)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	var err error
	c.fsys.conn.Call(c.p, 150, 140, func(sp *sim.Proc) {
		h := c.fsys.ns.Parent(p)
		lock, n := service.LockParent(sp, c.fsys.dirLocks, &h)
		defer lock.Unlock()
		c.fsys.service(sp, svc, n)
		err = apply(sp, h)
		if err == nil {
			c.fsys.wafl.LogMetadata(sp, metaLogBytes)
		}
	})
	return err
}

// Stat serves from the attribute cache when fresh, else issues GETATTR.
func (c *client) Stat(p string) (fs.Attr, error) {
	c.node.Syscall(c.p)
	names := c.names()
	if a, ok := names.Attr(p); ok {
		return a, nil
	}
	if err := c.resolveParents(p); err != nil {
		return fs.Attr{}, err
	}
	var a fs.Attr
	var err error
	c.fsys.conn.Call(c.p, 120, 140, func(sp *sim.Proc) {
		c.fsys.service(sp, getattrService, -1)
		a, err = c.fsys.ns.Stat(p)
	})
	if err != nil {
		return fs.Attr{}, err
	}
	names.Put(p, a)
	return a, nil
}

// ReadDir pages through the directory in 512-entry READDIR RPCs.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	c.node.Syscall(c.p)
	var ents []fs.DirEntry
	var err error
	c.fsys.conn.Call(c.p, 130, 260, func(sp *sim.Proc) {
		ents, err = c.fsys.ns.ReadDir(p, sp.Now())
		if err != nil {
			c.fsys.service(sp, readdirService, -1)
			return
		}
		pages := (len(ents) + 511) / 512
		if pages < 1 {
			pages = 1
		}
		t := time.Duration(pages)*readdirService +
			time.Duration(len(ents))*readdirPerEntry
		c.fsys.service(sp, t, -1)
	})
	return ents, err
}

// DropCaches clears the node's attribute and dentry caches.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	c.names().Clear()
}
