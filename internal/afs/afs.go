// Package afs models an AFS-style distributed file system (§4.7.3):
// volumes located via a volume location database, per-volume file
// servers, open-to-close semantics and — its distinguishing feature — a
// persistent client cache kept consistent with server callbacks. Cached
// attribute reads are purely local until the server breaks the callback,
// and dropping the OS caches does not empty the AFS cache (it lives on
// the client's disk), which the thesis points out when comparing
// StatNocacheFiles across file systems.
package afs

import (
	"fmt"
	"path"
	"strings"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
)

// Config holds the tunables of the AFS model.
type Config struct {
	OneWayLatency time.Duration
}

// DefaultConfig approximates the LRZ AFS cell: metadata operations are
// noticeably slower than NFS (AFS was retired partly for this), cached
// reads are very fast.
func DefaultConfig() Config {
	return Config{OneWayLatency: 300 * time.Microsecond}
}

// The cell's fixed calibration: per-server threads, service times and
// directory index of the LRZ AFS file servers.
const (
	serverThreads = 2

	createService  = 650 * time.Microsecond
	fetchService   = 120 * time.Microsecond // FetchStatus
	removeService  = 600 * time.Microsecond
	mkdirService   = 700 * time.Microsecond
	renameService  = 750 * time.Microsecond
	readdirService = 200 * time.Microsecond

	// callbackBreakCost is charged at the server per remote cache entry
	// invalidated by a modification.
	callbackBreakCost = 40 * time.Microsecond
	dirIndex          = namespace.IndexLinear
)

// FS is one AFS cell.
type FS struct {
	k   *sim.Kernel
	cfg Config

	// servers holds every node's path to each file server: without a
	// bandwidth limit a call changes nothing in a Conn. A limit would
	// need one per node.
	servers []*simnet.Conn
	volumes map[string]*volume
	nodes   map[*cluster.Node]*nodeCache
}

type volume struct {
	server int
	ns     *namespace.Namespace
	locks  *sim.Locks
	// version increments on every modification of a path, and of a
	// directory whose entries change, breaking callbacks held by
	// client caches.
	version map[string]int64
	// moves increments on every rename of a directory, breaking every
	// callback in the volume: the paths under the old and the new name
	// have no version of their own that the rename could bump.
	moves int64
}

// nodeCache is the persistent AFS client cache of one node.
type nodeCache struct {
	attrs map[string]cachedAttr
	hits  int64
	miss  int64
}

// cachedAttr is a cached status with the path's version and the
// volume's move count when it was fetched; it is valid while both hold.
type cachedAttr struct {
	attr           fs.Attr
	version, moves int64
}

// New creates an AFS cell with the given number of file servers.
func New(k *sim.Kernel, name string, servers int, cfg Config) *FS {
	f := &FS{
		k:       k,
		cfg:     cfg,
		volumes: make(map[string]*volume),
		nodes:   make(map[*cluster.Node]*nodeCache),
	}
	for i := 0; i < servers; i++ {
		srv := simnet.NewServer(k, fmt.Sprintf("afs%d:%s", i, name), serverThreads)
		f.servers = append(f.servers, simnet.NewConn(k, srv, cfg.OneWayLatency, 0))
	}
	return f
}

// Name identifies the model.
func (f *FS) Name() string { return "afs" }

// AddVolume creates a volume served by server (round-robin when -1) and
// mounts it as the top-level directory /name.
func (f *FS) AddVolume(name string, server int) *volume {
	if server < 0 {
		server = len(f.volumes) % len(f.servers)
	}
	v := &volume{
		server:  server,
		ns:      namespace.New(),
		locks:   sim.NewLocks(f.k, "afsdir:"+name),
		version: make(map[string]int64),
	}
	f.volumes[name] = v
	return v
}

// NumVolumes returns the number of mounted volumes.
func (f *FS) NumVolumes() int { return len(f.volumes) }

// RPCCount returns the number of server RPCs.
func (f *FS) RPCCount() int64 {
	var n int64
	for _, c := range f.servers {
		n += c.Server().Served()
	}
	return n
}

// CacheStats sums cache hits and misses over all nodes.
func (f *FS) CacheStats() (hits, misses int64) {
	for _, nc := range f.nodes {
		hits += nc.hits
		misses += nc.miss
	}
	return
}

// resolve splits an absolute path into volume and in-volume path.
func (f *FS) resolve(op, p string) (*volume, string, error) {
	trimmed := strings.TrimPrefix(path.Clean(p), "/")
	if trimmed == "" || trimmed == "." {
		return nil, "", fs.NewError(op, p, fs.EINVAL)
	}
	comps := strings.SplitN(trimmed, "/", 2)
	v, ok := f.volumes[comps[0]]
	if !ok {
		return nil, "", fs.NewError(op, p, fs.ENOENT)
	}
	sub := "/"
	if len(comps) == 2 {
		sub = "/" + comps[1]
	}
	return v, sub, nil
}

func (f *FS) cache(n *cluster.Node) *nodeCache {
	nc, ok := f.nodes[n]
	if !ok {
		nc = &nodeCache{attrs: make(map[string]cachedAttr)}
		f.nodes[n] = nc
	}
	return nc
}

// bump invalidates client callbacks on paths after a modification.
func (v *volume) bump(paths ...string) {
	for _, p := range paths {
		v.version[p]++
	}
}

// breakCallbacks bumps paths and charges the server for breaking the
// callbacks.
func (v *volume) breakCallbacks(sp *sim.Proc, paths ...string) {
	v.bump(paths...)
	sp.Sleep(callbackBreakCost)
}

// NewClient binds a client for one process on one node.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p}
}

type openFile struct {
	path string
	fs.Buffer
}

type client struct {
	fsys  *FS
	node  *cluster.Node
	p     *sim.Proc
	files fs.Files[*openFile]
}

// modify runs one namespace-changing RPC against the volume server.
func (c *client) modify(op, p string, svc time.Duration, apply func(sp *sim.Proc, v *volume, sub string) error) error {
	f := c.fsys
	c.node.Syscall(c.p)
	v, sub, err := f.resolve(op, p)
	if err != nil {
		return err
	}
	imutex := c.node.DirLock(fs.ParentDir(p))
	imutex.Lock(c.p)
	defer imutex.Unlock()
	f.servers[v.server].Call(c.p, 200, 160, func(sp *sim.Proc) {
		h := v.ns.Parent(sub)
		lock, n := service.LockParent(sp, v.locks, &h)
		defer lock.Unlock()
		sp.Sleep(time.Duration(float64(svc) * dirIndex.EntryCost(n)))
		err = apply(sp, v, sub)
	})
	return err
}

// Create stores the new file on the volume server (open-to-close: the
// server sees it immediately) and installs a callback-backed cache entry.
func (c *client) Create(p string) error {
	err := c.modify("create", p, createService, func(sp *sim.Proc, v *volume, sub string) error {
		if _, e := v.ns.Create(sub, 0o644, sp.Now()); e != nil {
			return e
		}
		v.breakCallbacks(sp, sub, fs.ParentDir(sub))
		return nil
	})
	if err != nil {
		return err
	}
	v, sub, _ := c.fsys.resolve("create", p)
	if a, e := v.ns.Stat(sub); e == nil {
		c.fsys.cache(c.node).attrs[p] = cachedAttr{attr: a, version: v.version[sub], moves: v.moves}
	}
	return nil
}

// Open fetches status (or uses the callback-valid cache) and returns a
// handle.
func (c *client) Open(p string) (fs.Handle, error) {
	if _, err := c.Stat(p); err != nil {
		return 0, err
	}
	return c.files.Open(&openFile{path: p}), nil
}

// Close implements open-to-close semantics: dirty data is stored back to
// the volume server before close returns.
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, err := c.files.Close(h)
	if err != nil || !of.Dirty {
		return err
	}
	return c.modify("store", of.path, createService/2, func(sp *sim.Proc, v *volume, sub string) error {
		node, err := v.ns.Lookup(sub)
		if err != nil {
			return err
		}
		sp.Sleep(time.Duration(float64(of.Written) / float64(40<<20) * float64(time.Second)))
		if serr := v.ns.SetSize(node.Ino, node.Size+of.Written, sp.Now()); fs.CodeOf(serr) == fs.EISDIR {
			return serr
		}
		v.breakCallbacks(sp, sub)
		return nil
	})
}

// Write buffers into the local AFS cache until close.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	return fs.WriteBuffered(&c.files, h, n)
}

// Fsync stores dirty data like close but keeps the handle; the stored
// bytes are no longer the handle's to store again at close.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	of, err := c.files.Get("fsync", h)
	if err != nil || !of.Dirty {
		return err
	}
	written := of.Written
	of.Reset()
	return c.modify("store", of.path, createService/2, func(sp *sim.Proc, v *volume, sub string) error {
		node, err := v.ns.Lookup(sub)
		if err != nil {
			return err
		}
		if serr := v.ns.SetSize(node.Ino, node.Size+written, sp.Now()); fs.CodeOf(serr) == fs.EISDIR {
			return serr
		}
		v.breakCallbacks(sp, sub)
		return nil
	})
}

// Mkdir creates a directory on the volume server. It breaks the
// callbacks on the name and its parent at no charge.
func (c *client) Mkdir(p string) error {
	return c.modify("mkdir", p, mkdirService, func(sp *sim.Proc, v *volume, sub string) error {
		_, e := v.ns.Mkdir(sub, 0o755, sp.Now())
		if e == nil {
			v.bump(sub, fs.ParentDir(sub))
		}
		return e
	})
}

// Rmdir removes a directory. It breaks the callbacks on the name and
// its parent at no charge.
func (c *client) Rmdir(p string) error {
	return c.modify("rmdir", p, removeService, func(sp *sim.Proc, v *volume, sub string) error {
		e := v.ns.Rmdir(sub, sp.Now())
		if e == nil {
			v.bump(sub, fs.ParentDir(sub))
		}
		return e
	})
}

// Unlink removes a file and breaks callbacks.
func (c *client) Unlink(p string) error {
	err := c.modify("unlink", p, removeService, func(sp *sim.Proc, v *volume, sub string) error {
		if e := v.ns.Unlink(sub, sp.Now()); e != nil {
			return e
		}
		v.breakCallbacks(sp, sub, fs.ParentDir(sub))
		return nil
	})
	if err == nil {
		delete(c.fsys.cache(c.node).attrs, p)
	}
	return err
}

// Rename moves within one volume; cross-volume renames fail with EXDEV
// exactly like the sub-namespace case discussed in §2.6.3.
func (c *client) Rename(oldPath, newPath string) error {
	f := c.fsys
	vOld, subOld, err := f.resolve("rename", oldPath)
	if err != nil {
		return err
	}
	vNew, subNew, err := f.resolve("rename", newPath)
	if err != nil {
		return err
	}
	if vOld != vNew {
		return fs.NewError("rename", newPath, fs.EXDEV)
	}
	return c.modify("rename", oldPath, renameService, func(sp *sim.Proc, v *volume, _ string) error {
		if e := v.ns.Rename(subOld, subNew, sp.Now()); e != nil {
			return e
		}
		if moved, err := v.ns.Lookup(subNew); err == nil && moved.Type == fs.TypeDirectory {
			v.moves++
		}
		v.breakCallbacks(sp, subOld, subNew, fs.ParentDir(subOld), fs.ParentDir(subNew))
		return nil
	})
}

// Stat serves from the persistent cache while the callback is intact;
// otherwise it fetches status from the volume server.
func (c *client) Stat(p string) (fs.Attr, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	v, sub, err := f.resolve("stat", p)
	if err != nil {
		return fs.Attr{}, err
	}
	nc := f.cache(c.node)
	if e, ok := nc.attrs[p]; ok && e.version == v.version[sub] && e.moves == v.moves {
		nc.hits++
		return e.attr, nil
	}
	nc.miss++
	var a fs.Attr
	f.servers[v.server].Call(c.p, 150, 170, func(sp *sim.Proc) {
		sp.Sleep(fetchService)
		a, err = v.ns.Stat(sub)
	})
	if err != nil {
		return fs.Attr{}, err
	}
	nc.attrs[p] = cachedAttr{attr: a, version: v.version[sub], moves: v.moves}
	return a, nil
}

// ReadDir fetches the directory from the volume server.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	v, sub, err := f.resolve("readdir", p)
	if err != nil {
		return nil, err
	}
	var ents []fs.DirEntry
	f.servers[v.server].Call(c.p, 150, 400, func(sp *sim.Proc) {
		ents, err = v.ns.ReadDir(sub, sp.Now())
		sp.Sleep(readdirService + time.Duration(len(ents))*time.Microsecond)
	})
	return ents, err
}

// DropCaches is a no-op: the AFS cache is persistent on the client's
// local disk and survives the Linux drop_caches mechanism.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
}
