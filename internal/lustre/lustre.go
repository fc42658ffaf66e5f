// Package lustre models a parallel file system in the style of Lustre
// 1.6 (the LRZ configuration of §4.1.2): a single metadata server (MDS)
// backed by a journaling local file system, a set of object storage
// servers (OSS), MDS-side object pre-allocation in batches (whose refill
// stalls are visible in time-interval logs, §4.3.4), and an optional
// client-side metadata write-back cache (§4.8) that acknowledges creates
// locally and drains them to the MDS in the background.
package lustre

import (
	"fmt"
	"strconv"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
	"dmetabench/internal/storage"
)

// Config holds the tunables of the Lustre model.
type Config struct {
	MDSThreads    int
	NumOSS        int
	OneWayLatency time.Duration

	CreateService   time.Duration
	GetattrService  time.Duration
	RemoveService   time.Duration
	MkdirService    time.Duration
	RenameService   time.Duration
	ReaddirService  time.Duration
	ReaddirPerEntry time.Duration

	// PreallocBatch objects are granted per OSS refill; a create that
	// finds the MDS pool for its OSS empty performs a synchronous OSS
	// RPC (OSSRefillService + 2*OneWayLatency) while holding the MDS
	// thread — the allocation stalls of §4.3.4.
	PreallocBatch    int
	OSSRefillService time.Duration

	// Writeback enables the client metadata write-back cache: creates
	// complete locally and at most WritebackWindow operations may be
	// outstanding before creates block on the flusher.
	Writeback       bool
	WritebackWindow int

	AttrTTL   time.Duration
	DentryTTL time.Duration
	DirIndex  namespace.DirIndex
	// JournalCommit is the MDS journal group-commit interval. Zero or
	// less means no group commit: journal records then accumulate
	// without ever being written to the MDT.
	JournalCommit time.Duration
	ClientNice    int
}

// DefaultConfig approximates the LRZ Lustre 1.6 system: one MDS, twelve
// OSS, creates noticeably more expensive than on the NFS filer.
func DefaultConfig() Config {
	return Config{
		MDSThreads:       4,
		NumOSS:           12,
		OneWayLatency:    250 * time.Microsecond,
		CreateService:    420 * time.Microsecond,
		GetattrService:   90 * time.Microsecond,
		RemoveService:    380 * time.Microsecond,
		MkdirService:     450 * time.Microsecond,
		RenameService:    500 * time.Microsecond,
		ReaddirService:   150 * time.Microsecond,
		ReaddirPerEntry:  900 * time.Nanosecond,
		PreallocBatch:    128,
		OSSRefillService: 300 * time.Microsecond,
		Writeback:        false,
		WritebackWindow:  4096,
		AttrTTL:          2 * time.Second,
		DentryTTL:        30 * time.Second,
		DirIndex:         namespace.IndexBTree,
		JournalCommit:    5 * time.Second,
		ClientNice:       0,
	}
}

// FS is one Lustre file system instance.
type FS struct {
	k   *sim.Kernel
	cfg Config

	mds     *simnet.Server
	oss     []*simnet.Server
	ossConn []*simnet.Conn // MDS-side connections for prealloc refills
	journal *storage.Journal
	ns      *namespace.Namespace

	conns    map[*cluster.Node]*simnet.Conn
	dirLocks map[fs.Ino]*sim.Mutex
	nodes    map[*cluster.Node]*wbState

	// pool is the MDS-side pre-allocated object count per OSS.
	pool    []int
	nextOSS int
	// RefillCount counts synchronous OSS refill RPCs (test observability).
	RefillCount int
	rpcs        int64
}

// wbState is per-node client state: the name cache plus the write-back
// log.
type wbState struct {
	names *clientcache.NameCache

	pending map[string]fs.Attr // locally completed, not yet at the MDS
	// pendingIn counts the pending creates per parent directory, so a
	// reader or remover of a directory waits for exactly its own.
	pendingIn map[string]int
	queue     *sim.Queue
	window    *sim.Semaphore
	flusher   *sim.Proc
	flushed   *sim.Cond
}

// New creates a Lustre file system on kernel k.
func New(k *sim.Kernel, name string, cfg Config) *FS {
	disk := storage.NewDisk(k, "mdt:"+name, 4, 4*time.Millisecond, 80<<20)
	f := &FS{
		k:        k,
		cfg:      cfg,
		mds:      simnet.NewServer(k, "mds:"+name, cfg.MDSThreads),
		journal:  storage.NewJournal(k, "mds:"+name, disk, cfg.JournalCommit),
		ns:       namespace.New(),
		conns:    make(map[*cluster.Node]*simnet.Conn),
		dirLocks: make(map[fs.Ino]*sim.Mutex),
		nodes:    make(map[*cluster.Node]*wbState),
		pool:     make([]int, cfg.NumOSS),
	}
	for i := 0; i < cfg.NumOSS; i++ {
		srv := simnet.NewServer(k, fmt.Sprintf("oss%d:%s", i, name), 2)
		f.oss = append(f.oss, srv)
		f.ossConn = append(f.ossConn, simnet.NewConn(k, srv, cfg.OneWayLatency, 0))
	}
	return f
}

// Name identifies the model.
func (f *FS) Name() string {
	if f.cfg.Writeback {
		return "lustre-wb"
	}
	return "lustre"
}

// Namespace exposes the MDS namespace.
func (f *FS) Namespace() *namespace.Namespace { return f.ns }

// RPCCount returns the number of MDS RPCs served.
func (f *FS) RPCCount() int64 { return f.rpcs }

func (f *FS) conn(n *cluster.Node) *simnet.Conn {
	c, ok := f.conns[n]
	if !ok {
		c = simnet.NewConn(f.k, f.mds, f.cfg.OneWayLatency, 0)
		f.conns[n] = c
	}
	return c
}

func (f *FS) nodeState(n *cluster.Node) *wbState {
	s, ok := f.nodes[n]
	if !ok {
		s = &wbState{
			names:     clientcache.NewNameCache(f.cfg.AttrTTL, f.cfg.DentryTTL, f.k.Now),
			pending:   make(map[string]fs.Attr),
			pendingIn: make(map[string]int),
		}
		if f.cfg.Writeback {
			s.queue = sim.NewQueue(f.k, "wb:"+n.Name)
			s.window = sim.NewSemaphore(f.k, "wbwin:"+n.Name, int64(f.cfg.WritebackWindow))
			s.flushed = sim.NewCond(f.k, "wbflushed:"+n.Name)
			s.flusher = f.k.SpawnDaemon("wbflush:"+n.Name, func(p *sim.Proc) {
				f.flushLoop(p, n, s)
			})
		}
		f.nodes[n] = s
	}
	return s
}

func (f *FS) dirLock(ino fs.Ino) *sim.Mutex {
	m, ok := f.dirLocks[ino]
	if !ok {
		m = sim.NewMutex(f.k, "mdsdir:"+strconv.FormatUint(uint64(ino), 10))
		f.dirLocks[ino] = m
	}
	return m
}

// allocObject consumes a pre-allocated object, refilling the pool with a
// synchronous OSS RPC when empty. Called while holding an MDS thread.
func (f *FS) allocObject(sp *sim.Proc) {
	idx := f.nextOSS
	f.nextOSS = (f.nextOSS + 1) % len(f.pool)
	if f.pool[idx] == 0 {
		f.RefillCount++
		f.ossConn[idx].Call(sp, 200, 200, func(op *sim.Proc) {
			op.Sleep(f.cfg.OSSRefillService)
		})
		f.pool[idx] = f.cfg.PreallocBatch
	}
	f.pool[idx]--
}

// mdsCreate runs the server side of one create, through the body's
// handle on the path, while holding an MDS thread: directory lock,
// service time, object allocation, journal.
func (f *FS) mdsCreate(sp *sim.Proc, h *namespace.Parent) error {
	if dir := h.Dir(); dir != nil {
		lock := f.dirLock(dir.Ino)
		lock.Lock(sp)
		defer lock.Unlock()
	}
	t := float64(f.cfg.CreateService) * f.cfg.DirIndex.EntryCost(h.Entries())
	sp.Sleep(time.Duration(t))
	f.rpcs++
	if _, err := h.Create(0o644, sp.Now()); err != nil {
		return err
	}
	f.allocObject(sp)
	f.journal.Log(512)
	return nil
}

// flushLoop drains the write-back log of one node to the MDS.
func (f *FS) flushLoop(p *sim.Proc, n *cluster.Node, s *wbState) {
	conn := f.conn(n)
	for {
		item := s.queue.Get(p).(string)
		// Errors at replay (e.g. a conflicting create from another
		// node) are dropped; the benchmark namespace is partitioned
		// per process so conflicts cannot occur in our workloads.
		conn.Call(p, 200, 160, func(sp *sim.Proc) {
			h := f.ns.Parent(item)
			_ = f.mdsCreate(sp, &h)
		})
		delete(s.pending, item)
		dir := fs.ParentDir(item)
		if s.pendingIn[dir]--; s.pendingIn[dir] == 0 {
			delete(s.pendingIn, dir)
		}
		s.window.Release(1)
		s.flushed.Broadcast()
	}
}

// NewClient binds a client for one process on one node.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]*openFile)}
}

type openFile struct {
	path    string
	size    int64
	written int64
	dirty   bool
}

type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	state   *wbState
	conn    *simnet.Conn
	nextFH  fs.Handle
	handles map[fs.Handle]*openFile
}

// cfg returns the FS config by pointer: the config is immutable after
// New, and service closures capture the pointer instead of the struct.
func (c *client) cfg() *Config { return &c.fsys.cfg }

// st returns the node's state, looked up on the client's first use and
// kept. It cannot be bound in NewClient: creating a write-back node's
// state spawns its flusher, which must happen at the first use.
func (c *client) st() *wbState {
	if c.state == nil {
		c.state = c.fsys.nodeState(c.node)
	}
	return c.state
}

// cn returns the node's MDS connection, looked up on the client's first
// use and kept.
func (c *client) cn() *simnet.Conn {
	if c.conn == nil {
		c.conn = c.fsys.conn(c.node)
	}
	return c.conn
}

// Create either performs a synchronous intent-create RPC, or — in
// write-back mode — completes locally and enqueues the operation for the
// background flusher, blocking only when the write-back window is full.
func (c *client) Create(p string) error {
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	st := c.st()
	if cfg.Writeback {
		if _, dup := st.pending[p]; dup {
			return fs.NewError("create", p, fs.EEXIST)
		}
		// The existence check is a free read of the MDS namespace: a
		// write-back client holds the directory under lease (§4.8).
		if _, err := c.fsys.ns.Stat(p); err == nil {
			return fs.NewError("create", p, fs.EEXIST)
		}
		st.window.Acquire(c.p, 1) // blocks when the window is exhausted
		a := fs.Attr{Type: fs.TypeRegular, Nlink: 1, Mode: 0o644,
			Mtime: c.p.Now(), Ctime: c.p.Now(), Atime: c.p.Now()}
		st.pending[p] = a
		st.pendingIn[fs.ParentDir(p)]++
		st.queue.Put(p)
		// Local bookkeeping cost of the cached operation.
		c.node.ExecNice(c.p, 4*time.Microsecond, cfg.ClientNice)
		return nil
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	// The reply carries the new file's attributes, copied out at the
	// commit instant; the client caches them once the call returns.
	var err, serr error
	var a fs.Attr
	c.cn().Call(c.p, 220, 180, func(sp *sim.Proc) {
		h := c.fsys.ns.Parent(p)
		err = c.fsys.mdsCreate(sp, &h)
		if err == nil {
			a, serr = h.Stat()
		}
	})
	if err != nil {
		return err
	}
	if serr == nil {
		st.names.Put(p, a)
	}
	return nil
}

// waitNotPending blocks until p has been flushed to the MDS (write-back
// mode ordering barrier for operations that follow a cached create).
func (c *client) waitNotPending(p string) {
	st := c.st()
	for {
		if _, ok := st.pending[p]; !ok {
			return
		}
		st.flushed.Wait(c.p)
	}
}

// waitDirFlushed blocks until none of the node's creates in directory
// dir is pending (write-back mode ordering barrier for reading or
// removing a directory after cached creates into it).
func (c *client) waitDirFlushed(dir string) {
	st := c.st()
	for st.pendingIn[dir] > 0 {
		st.flushed.Wait(c.p)
	}
}

// Open resolves the path and returns a handle.
func (c *client) Open(p string) (fs.Handle, error) {
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	st := c.st()
	if _, ok := st.pending[p]; ok {
		c.nextFH++
		c.handles[c.nextFH] = &openFile{path: p}
		return c.nextFH, nil
	}
	a, ok := st.names.Attr(p)
	if !ok {
		var err error
		a, err = c.statRPC(p, cfg)
		if err != nil {
			return 0, err
		}
		st.names.PutAttr(p, a)
	}
	c.nextFH++
	c.handles[c.nextFH] = &openFile{path: p, size: a.Size}
	return c.nextFH, nil
}

// statRPC issues one GETATTR RPC; the body only copies the attributes
// out, never touching client state.
func (c *client) statRPC(p string, cfg *Config) (fs.Attr, error) {
	var a fs.Attr
	var err error
	c.cn().Call(c.p, 150, 170, func(sp *sim.Proc) {
		sp.Sleep(cfg.GetattrService)
		c.fsys.rpcs++
		a, err = c.fsys.ns.Stat(p)
	})
	return a, err
}

// Close flushes buffered writes to the objects (data goes to the OSS, not
// the MDS).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("close", "", fs.EBADF)
	}
	delete(c.handles, h)
	if of.dirty {
		c.flushData(of)
	}
	return nil
}

// Write buffers data locally (Lustre client cache).
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

// Fsync forces buffered data out.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, ok := c.handles[h]
	if !ok {
		return fs.NewError("fsync", "", fs.EBADF)
	}
	if of.dirty {
		c.flushData(of)
	}
	return nil
}

// flushData sends dirty file data to the object's OSS.
func (c *client) flushData(of *openFile) {
	cfg := c.cfg()
	idx := 0
	if n := len(c.fsys.oss); n > 0 {
		idx = int(of.written) % n
	}
	conn := simnet.NewConn(c.fsys.k, c.fsys.oss[idx], cfg.OneWayLatency, 0)
	conn.Call(c.p, 150+of.written, 150, func(sp *sim.Proc) {
		sp.Sleep(time.Duration(float64(50*time.Microsecond) * (1 + float64(of.written)/65536)))
	})
	st := c.st()
	if a, ok := st.pending[of.path]; ok {
		a.Size += of.written
		st.pending[of.path] = a
	} else if node, err := c.fsys.ns.Lookup(of.path); err == nil {
		c.fsys.ns.SetSize(node.Ino, node.Size+of.written, c.p.Now())
		// The writing client holds the object lock and knows the new
		// size; refresh its attribute cache so local stats see it.
		if a, err := c.fsys.ns.Stat(of.path); err == nil {
			st.names.PutAttr(of.path, a)
		}
	}
	of.size += of.written
	of.written = 0
	of.dirty = false
}

// Mkdir issues a synchronous MKDIR RPC to the MDS.
func (c *client) Mkdir(p string) error {
	return c.modifyRPC(p, c.cfg().MkdirService, func(sp *sim.Proc, _ namespace.Parent) error {
		_, err := c.fsys.ns.Mkdir(p, 0o755, sp.Now())
		if err == nil {
			c.fsys.journal.Log(512)
		}
		return err
	})
}

// Rmdir issues a synchronous RPC; in write-back mode it first waits for
// the node's pending creates in the directory to drain.
func (c *client) Rmdir(p string) error {
	if c.cfg().Writeback {
		c.waitDirFlushed(p)
	}
	return c.modifyRPC(p, c.cfg().RemoveService, func(sp *sim.Proc, _ namespace.Parent) error {
		err := c.fsys.ns.Rmdir(p, sp.Now())
		if err == nil {
			c.fsys.journal.Log(256)
		}
		return err
	})
}

// Unlink issues a synchronous RPC; in write-back mode it first waits for
// a pending create of the same path to drain.
func (c *client) Unlink(p string) error {
	if c.cfg().Writeback {
		c.waitNotPending(p)
	}
	err := c.modifyRPC(p, c.cfg().RemoveService, func(sp *sim.Proc, h namespace.Parent) error {
		err := h.Unlink(sp.Now())
		if err == nil {
			c.fsys.journal.Log(256)
		}
		return err
	})
	if err == nil {
		c.st().names.Invalidate(p)
	}
	return err
}

// Rename issues a synchronous RPC.
func (c *client) Rename(oldPath, newPath string) error {
	if c.cfg().Writeback {
		c.waitNotPending(oldPath)
	}
	err := c.modifyRPC(oldPath, c.cfg().RenameService, func(sp *sim.Proc, _ namespace.Parent) error {
		err := c.fsys.ns.Rename(oldPath, newPath, sp.Now())
		if err == nil {
			c.fsys.journal.Log(512)
		}
		return err
	})
	if err == nil {
		st := c.st()
		st.names.Invalidate(oldPath)
		st.names.Invalidate(newPath)
	}
	return err
}

// Link issues a synchronous RPC.
func (c *client) Link(oldPath, newPath string) error {
	if c.cfg().Writeback {
		c.waitNotPending(oldPath)
	}
	return c.modifyRPC(newPath, c.cfg().CreateService, func(sp *sim.Proc, _ namespace.Parent) error {
		return c.fsys.ns.Link(oldPath, newPath, sp.Now())
	})
}

// Symlink issues a synchronous RPC to the MDS.
func (c *client) Symlink(target, linkPath string) error {
	return c.modifyRPC(linkPath, c.cfg().CreateService, func(sp *sim.Proc, _ namespace.Parent) error {
		_, e := c.fsys.ns.Symlink(target, linkPath, sp.Now())
		if e == nil {
			c.fsys.journal.Log(384)
		}
		return e
	})
}

// modifyRPC is the common path of the namespace-changing operations.
// apply runs in the service body and receives the body's handle on p by
// value, so the handle stays on the body's stack.
func (c *client) modifyRPC(p string, svc time.Duration, apply func(sp *sim.Proc, h namespace.Parent) error) error {
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	var err error
	c.cn().Call(c.p, 200, 160, func(sp *sim.Proc) {
		h := c.fsys.ns.Parent(p)
		if dir := h.Dir(); dir != nil {
			lock := c.fsys.dirLock(dir.Ino)
			lock.Lock(sp)
			defer lock.Unlock()
		}
		t := float64(svc) * cfg.DirIndex.EntryCost(h.Entries())
		sp.Sleep(time.Duration(t))
		c.fsys.rpcs++
		err = apply(sp, h)
	})
	return err
}

// Stat serves pending write-back entries and fresh cached attributes
// locally, otherwise issues a GETATTR RPC to the MDS.
func (c *client) Stat(p string) (fs.Attr, error) {
	cfg := c.cfg()
	c.node.SyscallNice(c.p, cfg.ClientNice)
	st := c.st()
	if a, ok := st.pending[p]; ok {
		return a, nil
	}
	if a, ok := st.names.Attr(p); ok {
		return a, nil
	}
	a, err := c.statRPC(p, cfg)
	if err != nil {
		return fs.Attr{}, err
	}
	st.names.Put(p, a)
	return a, nil
}

// ReadDir issues READDIR RPCs to the MDS; in write-back mode it first
// waits for the node's pending creates in the directory to drain, so the
// listing includes them.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	cfg := c.cfg()
	if cfg.Writeback {
		c.waitDirFlushed(p)
	}
	c.node.Syscall(c.p)
	var ents []fs.DirEntry
	var err error
	c.cn().Call(c.p, 150, 300, func(sp *sim.Proc) {
		ents, err = c.fsys.ns.ReadDir(p, sp.Now())
		pages := 1
		if err == nil {
			pages = (len(ents) + 1023) / 1024
			if pages < 1 {
				pages = 1
			}
		}
		sp.Sleep(time.Duration(pages)*cfg.ReaddirService +
			time.Duration(len(ents))*cfg.ReaddirPerEntry)
		c.fsys.rpcs++
	})
	return ents, err
}

// DropCaches clears the node's volatile caches (the write-back log is
// not discarded — it holds unflushed modifications).
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	c.st().names.Clear()
}
