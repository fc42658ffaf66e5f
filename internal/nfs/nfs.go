// Package nfs models a client–server distributed file system in the
// style of NFSv3 against a WAFL-based filer (the LRZ production setup of
// §4.1.2): synchronous metadata operations, close-to-open consistency,
// client attribute and dentry caches, a server thread pool, per-directory
// serialization at both client (VFS i_mutex) and server, and NVRAM
// logging with consistency points.
package nfs

import (
	"strconv"
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
	// Bandwidth of the server uplink in bytes/s (0 = unlimited).
	Bandwidth int64
	// Service times for the metadata RPC classes.
	CreateService     time.Duration
	GetattrService    time.Duration
	LookupService     time.Duration
	RemoveService     time.Duration
	MkdirService      time.Duration
	RenameService     time.Duration
	ReaddirService    time.Duration // per RPC; entries add ReaddirPerEntry
	ReaddirPerEntry   time.Duration
	WriteServicePerKB time.Duration
	// InodeInlineBytes: writes that keep the file at or below this size
	// stay in the inode (WAFL stores tiny files inline); crossing it
	// allocates a block (the MakeFiles64byte/65byte probe, §3.3.8).
	InodeInlineBytes int64
	// BlockAllocService is the extra service time for the first block.
	BlockAllocService time.Duration
	// AttrTTL and DentryTTL are the client cache lifetimes.
	AttrTTL   time.Duration
	DentryTTL time.Duration
	// DirIndex is the server directory data structure.
	DirIndex namespace.DirIndex
	// WAFL parameterizes the storage backend.
	WAFL storage.WAFLConfig
	// MetaLogBytes is the NVRAM log record size per namespace change.
	MetaLogBytes int64
	// ClientNice is the niceness benchmark processes run at (see §4.4).
	ClientNice int
}

// DefaultConfig returns the FAS3050-like parameter set.
func DefaultConfig() Config {
	return Config{
		ServerThreads:     4,
		OneWayLatency:     250 * time.Microsecond,
		Bandwidth:         0,
		CreateService:     150 * time.Microsecond,
		GetattrService:    40 * time.Microsecond,
		LookupService:     40 * time.Microsecond,
		RemoveService:     140 * time.Microsecond,
		MkdirService:      180 * time.Microsecond,
		RenameService:     180 * time.Microsecond,
		ReaddirService:    120 * time.Microsecond,
		ReaddirPerEntry:   800 * time.Nanosecond,
		WriteServicePerKB: 30 * time.Microsecond,
		InodeInlineBytes:  64,
		BlockAllocService: 60 * time.Microsecond,
		AttrTTL:           3 * time.Second,
		DentryTTL:         30 * time.Second,
		DirIndex:          namespace.IndexHash,
		WAFL:              storage.DefaultWAFLConfig(),
		MetaLogBytes:      320,
	}
}

// FS is one exported NFS file system (one filer volume).
type FS struct {
	k   *sim.Kernel
	cfg Config

	srv   *simnet.Server
	wafl  *storage.WAFL
	ns    *namespace.Namespace
	conns map[*cluster.Node]*simnet.Conn

	// dirLocks serialize same-directory modifications at the server.
	dirLocks map[fs.Ino]*sim.Mutex

	// nodes holds per-OS-instance client name caches.
	nodes map[*cluster.Node]*clientcache.NameCache

	rpcs int64

	// aggOps/aggShed/aggBusy count background demand injected through
	// AttachAggregate (operations, shed operations, busy nanoseconds).
	aggOps  int64
	aggShed int64
	aggBusy int64
}

// New creates an NFS file system on kernel k.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	f := &FS{
		k:        k,
		cfg:      cfg,
		srv:      simnet.NewServer(k, "nfs:"+name, cfg.ServerThreads),
		wafl:     storage.NewWAFL(k, name, cfg.WAFL),
		ns:       namespace.New(),
		conns:    make(map[*cluster.Node]*simnet.Conn),
		dirLocks: make(map[fs.Ino]*sim.Mutex),
		nodes:    make(map[*cluster.Node]*clientcache.NameCache),
	}
	return f
}

// Name identifies the model in results and charts.
func (f *FS) Name() string { return "nfs" }

// Namespace exposes the authoritative server namespace (for tests and
// environment profiling).
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// WAFL exposes the storage backend (for disturbance injection).
func (f *FS) WAFL() *storage.WAFL { return f.wafl }

// RPCCount returns the number of RPCs served so far.
func (f *FS) RPCCount() int64 { return f.rpcs }

func (f *FS) conn(n *cluster.Node) *simnet.Conn {
	c, ok := f.conns[n]
	if !ok {
		c = simnet.NewConn(f.k, f.srv, f.cfg.OneWayLatency, f.cfg.Bandwidth)
		f.conns[n] = c
	}
	return c
}

func (f *FS) nodeCache(n *cluster.Node) *clientcache.NameCache {
	s, ok := f.nodes[n]
	if !ok {
		s = clientcache.NewNameCache(f.cfg.AttrTTL, f.cfg.DentryTTL, f.k.Now)
		f.nodes[n] = s
	}
	return s
}

func (f *FS) dirLock(ino fs.Ino) *sim.Mutex {
	m, ok := f.dirLocks[ino]
	if !ok {
		m = sim.NewMutex(f.k, "nfsdir:"+strconv.FormatUint(uint64(ino), 10))
		f.dirLocks[ino] = m
	}
	return m
}

// AttachAggregate starts the background injector (internal/service):
// ServerThreads daemon lanes on the filer's kernel, each drawing
// src(0, lane, tick) in strict tick order and occupying one server
// thread for the priced duration — analytically modeled client
// populations (internal/agg) saturating the single filer without
// per-client state (E35). Call before the kernel runs.
func (f *FS) AttachAggregate(tick time.Duration, src func(server, lane, tick int) service.Demand) {
	service.AttachAggregate(service.AggregateConfig{
		Servers: 1,
		Lanes:   f.cfg.ServerThreads,
		Tick:    tick,
		Kernel:  func(int) *sim.Kernel { return f.k },
		Pool:    func(int) *sim.Resource { return f.srv.Threads },
		Source:  src,
		Price:   func(_ int, d service.Demand) time.Duration { return f.priceAggregate(d) },
		Ops:     &f.aggOps,
		Shed:    &f.aggShed,
		Busy:    &f.aggBusy,
	})
}

// AggCounts returns injected / shed operation counts and cumulative
// injected service time.
func (f *FS) AggCounts() (ops, shed int64, busy time.Duration) {
	return service.LoadI64(&f.aggOps), service.LoadI64(&f.aggShed),
		time.Duration(service.LoadI64(&f.aggBusy))
}

// priceAggregate converts one demand batch into service time: the base
// per-class RPC costs scaled by the filer's current consistency-point
// factor, exactly as foreground RPCs are priced. Directory-index
// factors are not applied — the analytic stream has no concrete
// directories — which prices the background conservatively.
func (f *FS) priceAggregate(d service.Demand) time.Duration {
	base := service.PriceTable{
		Getattr: f.cfg.GetattrService,
		Lookup:  f.cfg.LookupService,
		Readdir: f.cfg.ReaddirService,
		Create:  f.cfg.CreateService,
	}.Price(d)
	if base <= 0 {
		return 0
	}
	return time.Duration(float64(base) * f.wafl.ServiceFactor())
}

// service charges t (scaled by directory-size and CP factors) while
// holding a server thread; the caller supplies the parent directory size
// when the op touches a directory index.
func (f *FS) service(p *sim.Proc, base time.Duration, dirEntries int) {
	cost := float64(base) * f.wafl.ServiceFactor()
	if dirEntries >= 0 {
		cost *= f.cfg.DirIndex.EntryCost(dirEntries)
	}
	p.Sleep(time.Duration(cost))
	f.rpcs++
}

// NewClient binds a client for one process on one node. It satisfies the
// benchmark framework's FileSystem interface.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]*openFile)}
}

type openFile struct {
	path    string
	ino     fs.Ino
	size    int64
	dirty   bool
	written int64
}

// client implements fs.Client for one (node, process) pair.
type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	cache   *clientcache.NameCache
	conn    *simnet.Conn
	nextFH  fs.Handle
	handles map[fs.Handle]*openFile
}

// cfg returns the FS config by pointer: the config is immutable after
// New, and service closures capture the pointer instead of the struct.
func (c *client) cfg() *Config { return &c.fsys.cfg }

// names returns the node's name cache, looked up on the client's first
// use and kept.
func (c *client) names() *clientcache.NameCache {
	if c.cache == nil {
		c.cache = c.fsys.nodeCache(c.node)
	}
	return c.cache
}

// cn returns the node's connection, looked up on the client's first use
// and kept.
func (c *client) cn() *simnet.Conn {
	if c.conn == nil {
		c.conn = c.fsys.conn(c.node)
	}
	return c.conn
}

// resolveParents walks the strict ancestors of p through the dentry
// cache, issuing one LOOKUP RPC per missing component — the POSIX
// requirement that every path component is checked (§2.3.1). With warm
// dentries (30 s TTL) the walk is free; after a cache drop a deep path
// costs one round trip per level. The service body fills the dentry
// cache at the reply's commit instant.
func (c *client) resolveParents(p string) error {
	cfg := c.cfg()
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
		c.cn().Call(c.p, 120, 140, func(sp *sim.Proc) {
			c.fsys.service(sp, cfg.LookupService, -1)
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
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()

	var err error
	var a fs.Attr
	found := false
	c.cn().Call(c.p, 160, 160, func(sp *sim.Proc) {
		h := c.fsys.ns.Parent(p)
		if dir := h.Dir(); dir != nil {
			lock := c.fsys.dirLock(dir.Ino)
			lock.Lock(sp)
			defer lock.Unlock()
		}
		c.fsys.service(sp, cfg.CreateService, h.Entries())
		_, err = h.Create(0o644, sp.Now())
		if err == nil {
			c.fsys.wafl.LogMetadata(sp, cfg.MetaLogBytes)
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
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	if err := c.resolveParents(p); err != nil {
		return 0, err
	}
	names := c.names()
	ino, neg, ok := names.Dentry(p)
	if !ok {
		var err error
		c.cn().Call(c.p, 120, 140, func(sp *sim.Proc) {
			h := c.fsys.ns.Parent(p)
			c.fsys.service(sp, cfg.LookupService, h.Entries())
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
	c.nextFH++
	h := c.nextFH
	c.handles[h] = &openFile{path: p, ino: ino, size: node.Size}
	return h, nil
}

// Close flushes dirty data (close-to-open consistency requires the data
// to be on the server when close returns).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	if of.dirty {
		c.flush(of)
	}
	return nil
}

// Write buffers n bytes; the flush happens on Close or Fsync, matching
// the NFS client write-behind cache.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("write", "", fs.EBADF)
	}
	of.written += n
	of.dirty = true
	return nil
}

// Fsync forces dirty data to the server.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	if of.dirty {
		c.flush(of)
	}
	return nil
}

// flush writes the dirty bytes back; the reply carries the post-write
// attributes, which refresh the client's attribute cache.
func (c *client) flush(of *openFile) {
	cfg := c.cfg()
	newSize := of.size + of.written
	var a fs.Attr
	found := false
	c.cn().Call(c.p, 120+of.written, 140, func(sp *sim.Proc) {
		t := time.Duration(float64(cfg.WriteServicePerKB) * float64(of.written) / 1024)
		if of.size <= cfg.InodeInlineBytes && newSize > cfg.InodeInlineBytes {
			// Crossing the inline threshold allocates the first block.
			t += cfg.BlockAllocService
		}
		c.fsys.service(sp, t, -1)
		c.fsys.ns.SetSize(of.ino, newSize, sp.Now())
		c.fsys.wafl.LogMetadata(sp, cfg.MetaLogBytes+of.written)
		a, found = reply(c.fsys.ns.Stat(of.path))
	})
	of.size = newSize
	of.written = 0
	of.dirty = false
	if found {
		c.names().PutAttr(of.path, a)
	}
}

// Mkdir issues a synchronous MKDIR RPC. The reply's attributes (also on
// EEXIST) replace any negative dentry an earlier failed lookup left.
func (c *client) Mkdir(p string) error {
	var a fs.Attr
	found := false
	err := c.modifyRPC("mkdir", p, c.cfg().MkdirService, func(sp *sim.Proc, h namespace.Parent) error {
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
	err := c.modifyRPC("rmdir", p, c.cfg().RemoveService, func(sp *sim.Proc, _ namespace.Parent) error {
		return c.fsys.ns.Rmdir(p, sp.Now())
	})
	if err == nil {
		c.names().Invalidate(p)
	}
	return err
}

// Unlink issues a synchronous REMOVE RPC.
func (c *client) Unlink(p string) error {
	err := c.modifyRPC("unlink", p, c.cfg().RemoveService, func(sp *sim.Proc, h namespace.Parent) error {
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
	err := c.modifyRPC("rename", oldPath, c.cfg().RenameService, func(sp *sim.Proc, _ namespace.Parent) error {
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

// Link issues a synchronous LINK RPC.
func (c *client) Link(oldPath, newPath string) error {
	var a fs.Attr
	found := false
	err := c.modifyRPC("link", newPath, c.cfg().CreateService, func(sp *sim.Proc, h namespace.Parent) error {
		err := c.fsys.ns.Link(oldPath, newPath, sp.Now())
		if err == nil {
			a, found = reply(h.Stat())
		}
		return err
	})
	if found {
		c.names().Put(newPath, a)
	}
	return err
}

// Symlink issues a synchronous SYMLINK RPC.
func (c *client) Symlink(target, linkPath string) error {
	var a fs.Attr
	found := false
	err := c.modifyRPC("symlink", linkPath, c.cfg().CreateService, func(sp *sim.Proc, h namespace.Parent) error {
		_, err := c.fsys.ns.Symlink(target, linkPath, sp.Now())
		if err == nil {
			a, found = reply(h.Stat())
		}
		return err
	})
	if found {
		c.names().Put(linkPath, a)
	}
	return err
}

// modifyRPC is the common path of the namespace-changing operations.
// apply runs in the service body: it may read the namespace and copy
// out reply attributes. It receives the body's handle on p by value, so
// the handle stays on the body's stack.
func (c *client) modifyRPC(op, p string, svc time.Duration, apply func(sp *sim.Proc, h namespace.Parent) error) error {
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	if err := c.resolveParents(p); err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	var err error
	c.cn().Call(c.p, 150, 140, func(sp *sim.Proc) {
		h := c.fsys.ns.Parent(p)
		if dir := h.Dir(); dir != nil {
			lock := c.fsys.dirLock(dir.Ino)
			lock.Lock(sp)
			defer lock.Unlock()
		}
		c.fsys.service(sp, svc, h.Entries())
		err = apply(sp, h)
		if err == nil {
			c.fsys.wafl.LogMetadata(sp, cfg.MetaLogBytes)
		}
	})
	return err
}

// Stat serves from the attribute cache when fresh, else issues GETATTR.
func (c *client) Stat(p string) (fs.Attr, error) {
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	names := c.names()
	if a, ok := names.Attr(p); ok {
		return a, nil
	}
	if err := c.resolveParents(p); err != nil {
		return fs.Attr{}, err
	}
	var a fs.Attr
	var err error
	c.cn().Call(c.p, 120, 140, func(sp *sim.Proc) {
		c.fsys.service(sp, cfg.GetattrService, -1)
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
	cfg := c.cfg()
	c.node.Syscall(c.p)
	var ents []fs.DirEntry
	var err error
	c.cn().Call(c.p, 130, 260, func(sp *sim.Proc) {
		ents, err = c.fsys.ns.ReadDir(p, sp.Now())
		if err != nil {
			c.fsys.service(sp, cfg.ReaddirService, -1)
			return
		}
		pages := (len(ents) + 511) / 512
		if pages < 1 {
			pages = 1
		}
		t := time.Duration(pages)*cfg.ReaddirService +
			time.Duration(len(ents))*cfg.ReaddirPerEntry
		c.fsys.service(sp, t, -1)
	})
	return ents, err
}

// DropCaches clears the node's attribute and dentry caches.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	c.names().Clear()
}
