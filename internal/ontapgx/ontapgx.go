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
	"slices"
	"strings"
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

// Config holds the tunables of the GX model.
type Config struct {
	OneWayLatency time.Duration
}

// DefaultConfig approximates the 8-node FAS3050 GX cluster.
func DefaultConfig() Config {
	return Config{OneWayLatency: 250 * time.Microsecond}
}

// The cluster's fixed calibration, approximating the 8-node FAS3050 GX
// cluster.
const (
	filerThreads = 4
	// clusterLatency is the one-way delay of the internal cluster
	// network used for N-blade -> remote D-blade forwarding.
	clusterLatency = 80 * time.Microsecond
	// nbladeService is the protocol translation cost paid on the
	// receiving filer for every request.
	nbladeService = 30 * time.Microsecond
	// forwardOverhead is the extra CPU cost on both filers when a
	// request is forwarded ([ECK+07] measures ~75% remote efficiency).
	forwardOverhead = 45 * time.Microsecond

	createService  = 160 * time.Microsecond
	getattrService = 45 * time.Microsecond
	removeService  = 150 * time.Microsecond
	mkdirService   = 190 * time.Microsecond
	renameService  = 190 * time.Microsecond
	readdirService = 130 * time.Microsecond

	attrTTL   = 3 * time.Second
	dentryTTL = 30 * time.Second
	dirIndex  = namespace.IndexHash
)

// FS is one GX cluster namespace.
type FS struct {
	k   *sim.Kernel
	cfg Config

	filers  []*filer
	volumes map[string]*volume // VLDB: volume name -> owner
	nodes   map[*cluster.Node]*clientcache.NameCache
	mounts  map[*cluster.Node]int // node -> filer index it mounts through
	// ForwardCount counts requests that crossed the cluster interconnect.
	ForwardCount int64
}

type filer struct {
	srv *simnet.Server
	// conn is every node's path to the filer: without a bandwidth limit
	// a call changes nothing in a Conn. A limit would need one per node.
	conn *simnet.Conn
	wafl *storage.WAFL
}

type volume struct {
	owner int
	ns    *namespace.Namespace
	locks *sim.Locks
}

// New creates a GX cluster with the given number of filers.
func New(k *sim.Kernel, name string, filers int, cfg Config) *FS {
	f := &FS{
		k:       k,
		cfg:     cfg,
		volumes: make(map[string]*volume),
		nodes:   make(map[*cluster.Node]*clientcache.NameCache),
		mounts:  make(map[*cluster.Node]int),
	}
	for i := 0; i < filers; i++ {
		id := fmt.Sprintf("gx%d:%s", i, name)
		srv := simnet.NewServer(k, id, filerThreads)
		f.filers = append(f.filers, &filer{
			srv:  srv,
			conn: simnet.NewConn(k, srv, cfg.OneWayLatency, 0),
			wafl: storage.NewWAFL(k, id),
		})
	}
	return f
}

// Name identifies the model.
func (f *FS) Name() string { return "ontapgx" }

// AddVolume creates a volume owned by the given filer (round-robin when
// -1) and junctions it at /name.
func (f *FS) AddVolume(name string, owner int) {
	if owner < 0 {
		owner = len(f.volumes) % len(f.filers)
	}
	f.volumes[name] = &volume{
		owner: owner,
		ns:    namespace.New(),
		locks: sim.NewLocks(f.k, "gxdir:"+name),
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
func (f *FS) RPCCount() int64 {
	var n int64
	for _, fl := range f.filers {
		n += fl.srv.Served()
	}
	return n
}

func (f *FS) mountFiler(n *cluster.Node) int {
	idx, ok := f.mounts[n]
	if !ok {
		idx = n.Index % len(f.filers)
		f.mounts[n] = idx
	}
	return idx
}

func (f *FS) nodeCache(n *cluster.Node) *clientcache.NameCache {
	s, ok := f.nodes[n]
	if !ok {
		s = clientcache.NewNameCache(attrTTL, dentryTTL, f.k.Now, nil)
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

// dispatch runs service at the volume's D-blade, entering the cluster at
// the node's mount filer. A request whose volume lives elsewhere pays the
// forwarding penalty: extra N-blade CPU on both filers, the cluster
// interconnect round trip, and thread occupancy on the owner.
func (f *FS) dispatch(p *sim.Proc, n *cluster.Node, v *volume, service func(sp *sim.Proc)) {
	entry := f.mountFiler(n)
	f.filers[entry].conn.Call(p, 180, 160, func(sp *sim.Proc) {
		sp.Sleep(nbladeService)
		if v.owner == entry {
			service(sp)
			return
		}
		// Forwarded path: translate, hop, queue at the owner.
		f.ForwardCount++
		sp.Sleep(forwardOverhead)
		sp.Sleep(clusterLatency)
		owner := f.filers[v.owner]
		owner.srv.Threads.Acquire(sp)
		sp.Sleep(forwardOverhead)
		service(sp)
		owner.srv.Threads.Release()
		sp.Sleep(clusterLatency)
	})
}

// NewClient binds a client for one process on one node.
func (f *FS) NewClient(node *cluster.Node, p *sim.Proc) fs.Client {
	return &client{fsys: f, node: node, p: p}
}

type openFile struct {
	vol *volume
	sub string
	fs.Buffer
}

type client struct {
	fsys  *FS
	node  *cluster.Node
	p     *sim.Proc
	files fs.Files[*openFile]
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
		h := v.ns.Parent(sub)
		lock, n := service.LockParent(sp, v.locks, &h)
		defer lock.Unlock()
		t := float64(svc) * dirIndex.EntryCost(n)
		if lock != nil {
			// No CP factor where the parent does not resolve: the
			// factor draws from the kernel's random source.
			t *= owner.wafl.ServiceFactor()
		}
		sp.Sleep(time.Duration(t))
		err = apply(sp, v, sub)
		if err == nil {
			owner.wafl.LogMetadata(sp, 320)
		}
	})
	return err
}

// Create makes a file in the owning volume.
func (c *client) Create(p string) error {
	err := c.modify("create", p, createService, func(sp *sim.Proc, v *volume, sub string) error {
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
	if _, err := c.Stat(p); err != nil {
		return 0, err
	}
	v, sub, err := c.fsys.resolve("open", p)
	if err != nil {
		return 0, err
	}
	return c.files.Open(&openFile{vol: v, sub: sub}), nil
}

// Close flushes dirty data (close-to-open, NFS protocol).
func (c *client) Close(h fs.Handle) error {
	c.node.Syscall(c.p)
	return fs.CloseBuffered(&c.files, h, c.flush)
}

// Write buffers client-side.
func (c *client) Write(h fs.Handle, n int64) error {
	c.node.Syscall(c.p)
	return fs.WriteBuffered(&c.files, h, n)
}

// Fsync flushes dirty data.
func (c *client) Fsync(h fs.Handle) error {
	c.node.Syscall(c.p)
	return fs.FsyncBuffered(&c.files, h, c.flush)
}

// flush writes the dirty bytes back to the owning volume. A flush to a
// directory fails with EISDIR; the bytes of a file unlinked while open
// are dropped without an error.
func (c *client) flush(of *openFile) error {
	f := c.fsys
	owner := f.filers[of.vol.owner]
	var err error
	f.dispatch(c.p, c.node, of.vol, func(sp *sim.Proc) {
		sp.Sleep(time.Duration(float64(30*time.Microsecond) * float64(of.Written) / 1024 * owner.wafl.ServiceFactor()))
		if node, lerr := of.vol.ns.Lookup(of.sub); lerr == nil {
			if serr := of.vol.ns.SetSize(node.Ino, node.Size+of.Written, sp.Now()); fs.CodeOf(serr) == fs.EISDIR {
				err = serr
			}
		}
		owner.wafl.LogMetadata(sp, 320+of.Written)
	})
	of.Reset()
	return err
}

// Mkdir creates a directory in the owning volume.
func (c *client) Mkdir(p string) error {
	return c.modify("mkdir", p, mkdirService, func(sp *sim.Proc, v *volume, sub string) error {
		_, e := v.ns.Mkdir(sub, 0o755, sp.Now())
		return e
	})
}

// Rmdir removes a directory.
func (c *client) Rmdir(p string) error {
	return c.modify("rmdir", p, removeService, func(sp *sim.Proc, v *volume, sub string) error {
		return v.ns.Rmdir(sub, sp.Now())
	})
}

// Unlink removes a file.
func (c *client) Unlink(p string) error {
	err := c.modify("unlink", p, removeService, func(sp *sim.Proc, v *volume, sub string) error {
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
	err = c.modify("rename", oldPath, renameService, func(sp *sim.Proc, v *volume, _ string) error {
		return v.ns.Rename(subOld, subNew, sp.Now())
	})
	if err == nil {
		names := f.nodeCache(c.node)
		names.Invalidate(oldPath)
		names.Invalidate(newPath)
	}
	return err
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
		sp.Sleep(time.Duration(float64(getattrService) * owner.wafl.ServiceFactor()))
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
		// The junctions in name order, as namespace.ReadDir lists a
		// directory, not in the VLDB map's run-to-run order.
		ents := make([]fs.DirEntry, 0, len(f.volumes))
		for name := range f.volumes {
			ents = append(ents, fs.DirEntry{Name: name, Type: fs.TypeDirectory})
		}
		slices.SortFunc(ents, func(a, b fs.DirEntry) int { return strings.Compare(a.Name, b.Name) })
		return ents, nil
	}
	v, sub, err := f.resolve("readdir", p)
	if err != nil {
		return nil, err
	}
	var ents []fs.DirEntry
	f.dispatch(c.p, c.node, v, func(sp *sim.Proc) {
		ents, err = v.ns.ReadDir(sub, sp.Now())
		sp.Sleep(readdirService + time.Duration(len(ents))*time.Microsecond)
	})
	return ents, err
}

// DropCaches clears the node's caches.
func (c *client) DropCaches() {
	c.node.Syscall(c.p)
	c.fsys.nodeCache(c.node).Clear()
}
