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

// Config holds the tunables of the Lustre model.
type Config struct {
	NumOSS        int
	OneWayLatency time.Duration

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
}

// DefaultConfig approximates the LRZ Lustre 1.6 system: one MDS, twelve
// OSS, creates noticeably more expensive than on the NFS filer.
func DefaultConfig() Config {
	return Config{
		NumOSS:           12,
		OneWayLatency:    250 * time.Microsecond,
		PreallocBatch:    128,
		OSSRefillService: 300 * time.Microsecond,
		Writeback:        false,
		WritebackWindow:  4096,
	}
}

// The MDS's fixed calibration: its thread pool, service times, client
// cache lifetimes and directory index.
const (
	mdsThreads = 4

	createService   = 420 * time.Microsecond
	getattrService  = 90 * time.Microsecond
	removeService   = 380 * time.Microsecond
	mkdirService    = 450 * time.Microsecond
	renameService   = 500 * time.Microsecond
	readdirService  = 150 * time.Microsecond
	readdirPerEntry = 900 * time.Nanosecond

	attrTTL   = 2 * time.Second
	dentryTTL = 30 * time.Second
	dirIndex  = namespace.IndexBTree
)

// FS is one Lustre file system instance.
type FS struct {
	k   *sim.Kernel
	cfg Config

	// mdsConn and ossConn are the paths to the MDS and to each OSS,
	// shared by every node and by the MDS's prealloc refills: without a
	// bandwidth limit a call changes nothing in a Conn. A limit would
	// need one per node.
	mdsConn *simnet.Conn
	ossConn []*simnet.Conn
	journal *storage.Journal
	ns      *namespace.Namespace

	dirLocks *sim.Locks
	nodes    map[*cluster.Node]*wbState

	// pool is the MDS-side pre-allocated object count per OSS.
	pool    []int
	nextOSS int
	// RefillCount counts synchronous OSS refill RPCs (test observability).
	RefillCount int
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
		mdsConn:  simnet.NewConn(k, simnet.NewServer(k, "mds:"+name, mdsThreads), cfg.OneWayLatency, 0),
		journal:  storage.NewJournal(k, "mds:"+name, disk),
		ns:       namespace.New(),
		dirLocks: sim.NewLocks(k, "mdsdir"),
		nodes:    make(map[*cluster.Node]*wbState),
		pool:     make([]int, cfg.NumOSS),
	}
	for i := 0; i < cfg.NumOSS; i++ {
		srv := simnet.NewServer(k, fmt.Sprintf("oss%d:%s", i, name), 2)
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
func (f *FS) RPCCount() int64 { return f.mdsConn.Server().Served() }

func (f *FS) nodeState(n *cluster.Node) *wbState {
	s, ok := f.nodes[n]
	if !ok {
		s = &wbState{
			names:     clientcache.NewNameCache(attrTTL, dentryTTL, f.k.Now, nil),
			pending:   make(map[string]fs.Attr),
			pendingIn: make(map[string]int),
		}
		if f.cfg.Writeback {
			s.queue = sim.NewQueue(f.k, "wb:"+n.Name)
			s.window = sim.NewSemaphore(f.k, "wbwin:"+n.Name, int64(f.cfg.WritebackWindow))
			s.flushed = sim.NewCond(f.k, "wbflushed:"+n.Name)
			s.flusher = f.k.SpawnDaemon("wbflush:"+n.Name, func(p *sim.Proc) {
				f.flushLoop(p, s)
			})
		}
		f.nodes[n] = s
	}
	return s
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
	lock, n := service.LockParent(sp, f.dirLocks, h)
	defer lock.Unlock()
	sp.Sleep(time.Duration(float64(createService) * dirIndex.EntryCost(n)))
	if _, err := h.Create(0o644, sp.Now()); err != nil {
		return err
	}
	f.allocObject(sp)
	f.journal.Log(512)
	return nil
}

// flushLoop drains the write-back log of one node to the MDS.
func (f *FS) flushLoop(p *sim.Proc, s *wbState) {
	for {
		item := s.queue.Get(p).(string)
		// Errors at replay (e.g. a conflicting create from another
		// node) are dropped; the benchmark namespace is partitioned
		// per process so conflicts cannot occur in our workloads.
		var err error
		f.mdsConn.Call(p, 200, 160, func(sp *sim.Proc) {
			h := f.ns.Parent(item)
			err = f.mdsCreate(sp, &h)
		})
		// The replay made the file empty, stamped with the drain
		// instant; the bytes the node flushed while the create was
		// pending, also those flushed while its RPC was in flight, and
		// the time of the last of them rode in the pending entry until
		// now. The lookup finds the regular file the replay made, so
		// SetSize cannot fail.
		if err == nil {
			if node, err := f.ns.Lookup(item); err == nil {
				a := s.pending[item]
				_ = f.ns.SetSize(node.Ino, node.Size+a.Size, a.Mtime)
			}
		}
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
	return &client{fsys: f, node: node, p: p}
}

type openFile struct {
	path string
	size int64
	fs.Buffer
}

type client struct {
	fsys  *FS
	node  *cluster.Node
	p     *sim.Proc
	state *wbState
	files fs.Files[*openFile]
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

// Create either performs a synchronous intent-create RPC, or — in
// write-back mode — completes locally and enqueues the operation for the
// background flusher, blocking only when the write-back window is full.
func (c *client) Create(p string) error {
	cfg := c.cfg()
	c.node.Syscall(c.p)
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
		c.node.Exec(c.p, 4*time.Microsecond)
		return nil
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	// The reply carries the new file's attributes, copied out at the
	// commit instant; the client caches them once the call returns.
	var err, serr error
	var a fs.Attr
	c.fsys.mdsConn.Call(c.p, 220, 180, func(sp *sim.Proc) {
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
	c.node.Syscall(c.p)
	st := c.st()
	if _, ok := st.pending[p]; ok {
		return c.files.Open(&openFile{path: p}), nil
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
	return c.files.Open(&openFile{path: p, size: a.Size}), nil
}

// statRPC issues one GETATTR RPC; the body only copies the attributes
// out, never touching client state.
func (c *client) statRPC(p string, cfg *Config) (fs.Attr, error) {
	var a fs.Attr
	var err error
	c.fsys.mdsConn.Call(c.p, 150, 170, func(sp *sim.Proc) {
		sp.Sleep(getattrService)
		a, err = c.fsys.ns.Stat(p)
	})
	return a, err
}

// Close flushes buffered writes to the objects (data goes to the OSS, not
// the MDS).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	return fs.CloseBuffered(&c.files, h, c.flushData)
}

// Write buffers data locally (Lustre client cache).
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	return fs.WriteBuffered(&c.files, h, n)
}

// Fsync forces buffered data out.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	return fs.FsyncBuffered(&c.files, h, c.flushData)
}

// flushData sends dirty file data to the object's OSS. The size update
// of a directory fails with EISDIR.
func (c *client) flushData(of *openFile) error {
	idx := 0
	if n := len(c.fsys.ossConn); n > 0 {
		idx = int(of.Written) % n
	}
	c.fsys.ossConn[idx].Call(c.p, 150+of.Written, 150, func(sp *sim.Proc) {
		sp.Sleep(time.Duration(float64(50*time.Microsecond) * (1 + float64(of.Written)/65536)))
	})
	st := c.st()
	var err error
	if a, ok := st.pending[of.path]; ok {
		a.Size += of.Written
		a.Mtime, a.Ctime = c.p.Now(), c.p.Now()
		st.pending[of.path] = a
	} else if node, lerr := c.fsys.ns.Lookup(of.path); lerr == nil {
		err = c.fsys.ns.SetSize(node.Ino, node.Size+of.Written, c.p.Now())
		// The writing client holds the object lock and knows the new
		// size; refresh its attribute cache so local stats see it.
		if a, serr := c.fsys.ns.Stat(of.path); serr == nil {
			st.names.PutAttr(of.path, a)
		}
	}
	of.size += of.Written
	of.Reset()
	return err
}

// Mkdir issues a synchronous MKDIR RPC to the MDS.
func (c *client) Mkdir(p string) error {
	return c.modifyRPC(p, mkdirService, func(sp *sim.Proc, _ namespace.Parent) error {
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
	return c.modifyRPC(p, removeService, func(sp *sim.Proc, _ namespace.Parent) error {
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
	err := c.modifyRPC(p, removeService, func(sp *sim.Proc, h namespace.Parent) error {
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
	err := c.modifyRPC(oldPath, renameService, func(sp *sim.Proc, _ namespace.Parent) error {
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

// modifyRPC is the common path of the namespace-changing operations.
// apply runs in the service body and receives the body's handle on p by
// value, so the handle stays on the body's stack.
func (c *client) modifyRPC(p string, svc time.Duration, apply func(sp *sim.Proc, h namespace.Parent) error) error {
	c.node.Syscall(c.p)
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	var err error
	c.fsys.mdsConn.Call(c.p, 200, 160, func(sp *sim.Proc) {
		h := c.fsys.ns.Parent(p)
		lock, n := service.LockParent(sp, c.fsys.dirLocks, &h)
		defer lock.Unlock()
		sp.Sleep(time.Duration(float64(svc) * dirIndex.EntryCost(n)))
		err = apply(sp, h)
	})
	return err
}

// Stat serves pending write-back entries and fresh cached attributes
// locally, otherwise issues a GETATTR RPC to the MDS.
func (c *client) Stat(p string) (fs.Attr, error) {
	cfg := c.cfg()
	c.node.Syscall(c.p)
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
	c.fsys.mdsConn.Call(c.p, 150, 300, func(sp *sim.Proc) {
		ents, err = c.fsys.ns.ReadDir(p, sp.Now())
		pages := 1
		if err == nil {
			pages = (len(ents) + 1023) / 1024
			if pages < 1 {
				pages = 1
			}
		}
		sp.Sleep(time.Duration(pages)*readdirService +
			time.Duration(len(ents))*readdirPerEntry)
	})
	return ents, err
}

// DropCaches clears the node's volatile caches (the write-back log is
// not discarded — it holds unflushed modifications).
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	c.st().names.Clear()
}
