// Package ontapgx models a namespace-aggregated clustered NFS server in
// the style of Netapp Ontap GX on the HLRB II (§4.1.3, Fig. 4.3): a
// cluster of filers, each owning a set of volumes (D-blades), fronted by
// protocol translators (N-blades) on every filer. A client mounts the
// common namespace through one filer; requests for volumes owned by
// another filer are forwarded over the cluster interconnect, costing
// roughly a quarter of the local-path efficiency — the effect §4.7
// measures with volume placement and path lists.
package ontapgx

import (
	"fmt"
	"path"
	"strings"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
	"dmetabench/internal/storage"
)

// Config holds the tunables of the GX model.
type Config struct {
	FilerThreads  int
	OneWayLatency time.Duration
	// ClusterLatency is the one-way delay of the internal cluster
	// network used for N-blade -> remote D-blade forwarding.
	ClusterLatency time.Duration
	// NBladeService is the protocol translation cost paid on the
	// receiving filer for every request.
	NBladeService time.Duration
	// ForwardOverhead is the extra CPU cost on both filers when a
	// request is forwarded ([ECK+07] measures ~75% remote efficiency).
	ForwardOverhead time.Duration

	CreateService  time.Duration
	GetattrService time.Duration
	RemoveService  time.Duration
	MkdirService   time.Duration
	RenameService  time.Duration
	ReaddirService time.Duration

	AttrTTL   time.Duration
	DentryTTL time.Duration
	DirIndex  namespace.DirIndex
	WAFL      storage.WAFLConfig
}

// DefaultConfig approximates the 8-node FAS3050 GX cluster.
func DefaultConfig() Config {
	return Config{
		FilerThreads:    4,
		OneWayLatency:   250 * time.Microsecond,
		ClusterLatency:  80 * time.Microsecond,
		NBladeService:   30 * time.Microsecond,
		ForwardOverhead: 45 * time.Microsecond,
		CreateService:   160 * time.Microsecond,
		GetattrService:  45 * time.Microsecond,
		RemoveService:   150 * time.Microsecond,
		MkdirService:    190 * time.Microsecond,
		RenameService:   190 * time.Microsecond,
		ReaddirService:  130 * time.Microsecond,
		AttrTTL:         3 * time.Second,
		DentryTTL:       30 * time.Second,
		DirIndex:        namespace.IndexHash,
		WAFL:            storage.DefaultWAFLConfig(),
	}
}

// FS is one GX cluster namespace.
type FS struct {
	k   *sim.Kernel
	cfg Config

	filers  []*filer
	volumes map[string]*volume // VLDB: volume name -> owner
	conns   map[connKey]*simnet.Conn
	nodes   map[*cluster.Node]*clientcache.NameCache
	mounts  map[*cluster.Node]int // node -> filer index it mounts through
	rpcs    int64
	// ForwardCount counts requests that crossed the cluster interconnect.
	ForwardCount int64
}

type filer struct {
	index int
	srv   *simnet.Server
	wafl  *storage.WAFL
}

type volume struct {
	name  string
	owner int
	ns    *namespace.Namespace
	locks map[fs.Ino]*sim.Mutex
}

type connKey struct {
	node  *cluster.Node
	filer int
}

// New creates a GX cluster with the given number of filers.
func New(k *sim.Kernel, name string, filers int, cfg Config) *FS {
	f := &FS{
		k:       k,
		cfg:     cfg,
		volumes: make(map[string]*volume),
		conns:   make(map[connKey]*simnet.Conn),
		nodes:   make(map[*cluster.Node]*clientcache.NameCache),
		mounts:  make(map[*cluster.Node]int),
	}
	for i := 0; i < filers; i++ {
		f.filers = append(f.filers, &filer{
			index: i,
			srv:   simnet.NewServer(k, fmt.Sprintf("gx%d:%s", i, name), cfg.FilerThreads),
			wafl:  storage.NewWAFL(k, fmt.Sprintf("gx%d:%s", i, name), cfg.WAFL),
		})
	}
	return f
}

// Name identifies the model.
func (f *FS) Name() string { return "ontapgx" }

// NumFilers returns the cluster size.
func (f *FS) NumFilers() int { return len(f.filers) }

// AddVolume creates a volume owned by the given filer (round-robin when
// -1) and junctions it at /name.
func (f *FS) AddVolume(name string, owner int) {
	if owner < 0 {
		owner = len(f.volumes) % len(f.filers)
	}
	f.volumes[name] = &volume{
		name:  name,
		owner: owner,
		ns:    namespace.New(),
		locks: make(map[fs.Ino]*sim.Mutex),
	}
}

// VolumeOwner returns the filer index owning the named volume, or -1.
func (f *FS) VolumeOwner(name string) int {
	v, ok := f.volumes[name]
	if !ok {
		return -1
	}
	return v.owner
}

// MountThrough pins a client node to a specific filer's network address
// (the HLRB II distributes partitions across the 16 filer interfaces).
func (f *FS) MountThrough(n *cluster.Node, filerIndex int) {
	f.mounts[n] = filerIndex % len(f.filers)
}

// RPCCount returns the number of requests served.
func (f *FS) RPCCount() int64 { return f.rpcs }

func (f *FS) mountFiler(n *cluster.Node) int {
	idx, ok := f.mounts[n]
	if !ok {
		idx = n.Index % len(f.filers)
		f.mounts[n] = idx
	}
	return idx
}

func (f *FS) conn(n *cluster.Node, filerIdx int) *simnet.Conn {
	key := connKey{n, filerIdx}
	c, ok := f.conns[key]
	if !ok {
		c = simnet.NewConn(f.k, f.filers[filerIdx].srv, f.cfg.OneWayLatency, 0)
		f.conns[key] = c
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

func (v *volume) dirLock(k *sim.Kernel, ino fs.Ino) *sim.Mutex {
	m, ok := v.locks[ino]
	if !ok {
		m = sim.NewMutex(k, fmt.Sprintf("gxdir:%s:%d", v.name, ino))
		v.locks[ino] = m
	}
	return m
}

// dispatch runs service at the volume's D-blade, entering the cluster at
// the node's mount filer. A request whose volume lives elsewhere pays the
// forwarding penalty: extra N-blade CPU on both filers, the cluster
// interconnect round trip, and thread occupancy on the owner.
func (f *FS) dispatch(p *sim.Proc, n *cluster.Node, v *volume, service func(sp *sim.Proc)) {
	entry := f.mountFiler(n)
	cfg := f.cfg
	f.conn(n, entry).Call(p, 180, 160, func(sp *sim.Proc) {
		sp.Sleep(cfg.NBladeService)
		f.rpcs++
		if v.owner == entry {
			service(sp)
			return
		}
		// Forwarded path: translate, hop, queue at the owner.
		f.ForwardCount++
		sp.Sleep(cfg.ForwardOverhead)
		sp.Sleep(cfg.ClusterLatency)
		owner := f.filers[v.owner]
		owner.srv.Threads.Acquire(sp)
		sp.Sleep(cfg.ForwardOverhead)
		service(sp)
		owner.srv.Threads.Release()
		sp.Sleep(cfg.ClusterLatency)
	})
}

// NewClient binds a client for one process on one node.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p, handles: make(map[fs.Handle]*openFile)}
}

type openFile struct {
	path    string
	vol     *volume
	sub     string
	written int64
	dirty   bool
}

type client struct {
	fsys    *FS
	node    *cluster.Node
	p       *sim.Proc
	nextFH  fs.Handle
	handles map[fs.Handle]*openFile
}

// modify runs one namespace-changing request against the owning D-blade.
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
	owner := f.filers[v.owner]
	f.dispatch(c.p, c.node, v, func(sp *sim.Proc) {
		if dir, lerr := v.ns.Lookup(fs.ParentDir(sub)); lerr == nil {
			lock := v.dirLock(f.k, dir.Ino)
			lock.Lock(sp)
			defer lock.Unlock()
			t := float64(svc) * f.cfg.DirIndex.EntryCost(dir.NumChildren()) * owner.wafl.ServiceFactor()
			sp.Sleep(time.Duration(t))
		} else {
			sp.Sleep(svc)
		}
		err = apply(sp, v, sub)
		if err == nil {
			owner.wafl.LogMetadata(sp, 320)
		}
	})
	return err
}

// Create makes a file in the owning volume.
func (c *client) Create(p string) error {
	err := c.modify("create", p, c.fsys.cfg.CreateService, func(sp *sim.Proc, v *volume, sub string) error {
		_, e := v.ns.Create(sub, 0o644, sp.Now())
		return e
	})
	if err != nil {
		return err
	}
	if v, sub, e := c.fsys.resolve("create", p); e == nil {
		if a, e2 := v.ns.Stat(sub); e2 == nil {
			c.fsys.nodeCache(c.node).Put(p, a)
		}
	}
	return nil
}

// Open resolves the path and returns a handle.
func (c *client) Open(p string) (fs.Handle, error) {
	a, err := c.Stat(p)
	if err != nil {
		return 0, err
	}
	v, sub, err := c.fsys.resolve("open", p)
	if err != nil {
		return 0, err
	}
	_ = a
	c.nextFH++
	c.handles[c.nextFH] = &openFile{path: p, vol: v, sub: sub}
	return c.nextFH, nil
}

// Close flushes dirty data (close-to-open, NFS protocol).
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

// Write buffers client-side.
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

// Fsync flushes dirty data.
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

func (c *client) flush(of *openFile) {
	f := c.fsys
	owner := f.filers[of.vol.owner]
	f.dispatch(c.p, c.node, of.vol, func(sp *sim.Proc) {
		sp.Sleep(time.Duration(float64(30*time.Microsecond) * float64(of.written) / 1024 * owner.wafl.ServiceFactor()))
		if node, err := of.vol.ns.Lookup(of.sub); err == nil {
			of.vol.ns.SetSize(node.Ino, node.Size+of.written, sp.Now())
		}
		owner.wafl.LogMetadata(sp, 320+of.written)
	})
	of.written = 0
	of.dirty = false
}

// Mkdir creates a directory in the owning volume.
func (c *client) Mkdir(p string) error {
	return c.modify("mkdir", p, c.fsys.cfg.MkdirService, func(sp *sim.Proc, v *volume, sub string) error {
		_, e := v.ns.Mkdir(sub, 0o755, sp.Now())
		return e
	})
}

// Rmdir removes a directory.
func (c *client) Rmdir(p string) error {
	return c.modify("rmdir", p, c.fsys.cfg.RemoveService, func(sp *sim.Proc, v *volume, sub string) error {
		return v.ns.Rmdir(sub, sp.Now())
	})
}

// Unlink removes a file.
func (c *client) Unlink(p string) error {
	err := c.modify("unlink", p, c.fsys.cfg.RemoveService, func(sp *sim.Proc, v *volume, sub string) error {
		return v.ns.Unlink(sub, sp.Now())
	})
	if err == nil {
		c.fsys.nodeCache(c.node).Invalidate(p)
	}
	return err
}

// Rename moves within one volume; like NFS servers with separate file
// systems, a cross-volume rename returns EXDEV (§2.6.3).
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
	err = c.modify("rename", oldPath, f.cfg.RenameService, func(sp *sim.Proc, v *volume, _ string) error {
		return v.ns.Rename(subOld, subNew, sp.Now())
	})
	if err == nil {
		names := f.nodeCache(c.node)
		names.Invalidate(oldPath)
		names.Invalidate(newPath)
	}
	return err
}

// Link creates a hardlink within one volume.
func (c *client) Link(oldPath, newPath string) error {
	f := c.fsys
	vOld, subOld, err := f.resolve("link", oldPath)
	if err != nil {
		return err
	}
	vNew, subNew, err := f.resolve("link", newPath)
	if err != nil {
		return err
	}
	if vOld != vNew {
		return fs.NewError("link", newPath, fs.EXDEV)
	}
	return c.modify("link", newPath, f.cfg.CreateService, func(sp *sim.Proc, v *volume, _ string) error {
		return v.ns.Link(subOld, subNew, sp.Now())
	})
}

// Symlink creates a symbolic link in the owning volume.
func (c *client) Symlink(target, linkPath string) error {
	return c.modify("symlink", linkPath, c.fsys.cfg.CreateService, func(sp *sim.Proc, v *volume, sub string) error {
		_, e := v.ns.Symlink(target, sub, sp.Now())
		return e
	})
}

// Stat serves from the attribute cache or issues a GETATTR through the
// mount filer.
func (c *client) Stat(p string) (fs.Attr, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	names := f.nodeCache(c.node)
	if a, ok := names.Attr(p); ok {
		return a, nil
	}
	v, sub, err := f.resolve("stat", p)
	if err != nil {
		return fs.Attr{}, err
	}
	var a fs.Attr
	owner := f.filers[v.owner]
	f.dispatch(c.p, c.node, v, func(sp *sim.Proc) {
		sp.Sleep(time.Duration(float64(f.cfg.GetattrService) * owner.wafl.ServiceFactor()))
		a, err = v.ns.Stat(sub)
	})
	if err != nil {
		return fs.Attr{}, err
	}
	names.Put(p, a)
	return a, nil
}

// ReadDir lists a directory in the owning volume; the cluster root lists
// the volume junctions locally.
func (c *client) ReadDir(p string) ([]fs.DirEntry, error) {
	f := c.fsys
	c.node.Syscall(c.p)
	clean := path.Clean(p)
	if clean == "/" {
		var ents []fs.DirEntry
		for name := range f.volumes {
			ents = append(ents, fs.DirEntry{Name: name, Type: fs.TypeDirectory})
		}
		return ents, nil
	}
	v, sub, err := f.resolve("readdir", p)
	if err != nil {
		return nil, err
	}
	var ents []fs.DirEntry
	f.dispatch(c.p, c.node, v, func(sp *sim.Proc) {
		ents, err = v.ns.ReadDir(sub, sp.Now())
		sp.Sleep(f.cfg.ReaddirService + time.Duration(len(ents))*time.Microsecond)
	})
	return ents, err
}

// DropCaches clears the node's caches.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	c.fsys.nodeCache(c.node).Clear()
}
