// Package namespace implements an in-memory hierarchical POSIX namespace:
// inodes, directories and the metadata operations of §2.3 with their
// error semantics (uniqueness of names, atomic rename, ENOTEMPTY on
// rmdir, nlink accounting).
//
// Every simulated file system server and the local file system model hold
// a Namespace as their authoritative metadata store. The package is pure
// data structure — it consumes no virtual time itself; cost models for
// directory indexes (linear list, name hash, B-tree, §2.4.2) are provided
// so callers can charge realistic per-operation times that depend on
// directory size.
package namespace

import (
	"math"
	"math/bits"
	"sort"
	"time"

	"dmetabench/internal/fs"
)

// Namespace is a single-rooted POSIX namespace. It is not safe for
// concurrent use; in the simulator all access is serialized by the DES
// kernel, and real-mode users must lock externally.
type Namespace struct {
	// pages is the inode table: the inodes themselves, by value, inode
	// number i in slot i-1, in pages that are allocated once and never
	// copied or moved, so an *Inode stays valid while the table grows.
	// alloc hands out numbers in order and never reuses one, and free
	// zeroes a slot in place, so every number ever allocated costs its
	// 64 bytes, live or not, until the namespace goes: 37 MB for the
	// ~580k numbers one of E05's 20-node NFS cells hands out. The pages
	// hold no pointer, so the collector never scans them. A live
	// directory also holds one 16-byte ext entry; freed entries are
	// reused.
	pages [][]Inode
	// next is the next inode number alloc hands out.
	next fs.Ino
	// live counts the slots that hold a live inode.
	live int
	root *Inode
	// ext is the side table of what only directories carry; entry 0 is
	// the empty entry of every regular file, and freeExt lists the
	// entries freed directories left.
	ext     []inodeExt
	freeExt []uint32

	// dirCache memoizes directory path resolution (span text -> inode),
	// so repeated deep-path operations hash one string instead of one
	// string per component. See resolve for the invalidation contract.
	dirCache map[string]dirCacheEnt
	// gen counts the invalidations of dirCache: a directory resolution
	// made at generation g still holds while gen == g (see Parent).
	gen uint64

	// Totals maintained incrementally for profiling and charts.
	files int
	dirs  int
}

// dirCacheEnt is one memoized directory resolution.
type dirCacheEnt struct {
	node  *Inode
	depth int32
}

// dirCacheMax bounds the resolution cache; when full it is reset rather
// than evicted, which keeps the hot path branch-free.
const dirCacheMax = 1 << 14

// Inode is one file system object: 64 bytes with no pointer, kept by
// value in its namespace's inode table. What only directories carry
// lives in the namespace's side table (NumChildren). An *Inode stays
// valid while the table grows; once its inode is freed it reads as the
// zero Inode, number 0, which Get never returns.
type Inode struct {
	Ino      fs.Ino
	Type     fs.FileType
	Mode     uint32
	Nlink    uint32
	UID, GID uint32
	// ext is the index of the inode's side-table entry; 0, the empty
	// entry, for a regular file.
	ext   uint32
	Size  int64
	Atime time.Duration
	Mtime time.Duration
	Ctime time.Duration
}

// inodeExt is the side-table entry of a directory.
type inodeExt struct {
	// children maps the directory's entry names to their inodes, so a
	// walk step is one map probe.
	children map[string]*Inode
	// parent is the containing directory (the ".." link).
	parent fs.Ino
}

// Page sizes of the inode table: the first two pages hold firstPage
// inodes each and every later page twice the one before, up to pageLen
// (32 KB). A namespace with a few inodes allocates one small page; a
// large one grows by pageLen inodes at a time.
const (
	firstPage = 8
	pageLen   = 512
	// pageShift is log2(pageLen / firstPage); page pageShift+1 is the
	// first full one.
	pageShift = 6
)

// pageSize returns the number of inodes page p holds.
func pageSize(p uint32) uint32 {
	if p > pageShift {
		return pageLen
	}
	return max(firstPage, uint32(firstPage)<<p/2)
}

// pageOf returns the page and offset of slot i. Pages 1 to pageShift
// each start at the slot whose number equals their size, so below the
// first full page a slot's page is the bit length of i/firstPage.
func pageOf(i uint32) (page, off uint32) {
	if i >= pageLen {
		return i/pageLen + pageShift, i % pageLen
	}
	p := uint32(bits.Len32(i / firstPage))
	return p, i % pageSize(p)
}

// New returns a namespace containing only the root directory.
func New() *Namespace {
	ns := &Namespace{
		next:     1,
		ext:      make([]inodeExt, 1, 2),
		dirCache: make(map[string]dirCacheEnt),
	}
	root := ns.alloc(fs.TypeDirectory, 0o755, 0)
	ns.ext[root.ext].parent = root.Ino
	ns.root = root
	ns.dirs = 1
	return ns
}

// Root returns the root inode number.
func (ns *Namespace) Root() fs.Ino { return ns.root.Ino }

// NumFiles returns the number of regular files.
func (ns *Namespace) NumFiles() int { return ns.files }

// NumDirs returns the number of directories (including the root).
func (ns *Namespace) NumDirs() int { return ns.dirs }

// NumInodes returns the number of live inodes.
func (ns *Namespace) NumInodes() int { return ns.live }

// Get returns the inode by number, or nil if the number is free or was
// never allocated.
func (ns *Namespace) Get(ino fs.Ino) *Inode {
	if ino == 0 || ino >= ns.next {
		return nil
	}
	if n := ns.slot(ino); n.Ino != 0 {
		return n
	}
	return nil // freed
}

// slot returns the table slot of an allocated inode number.
func (ns *Namespace) slot(ino fs.Ino) *Inode {
	p, off := pageOf(uint32(ino - 1))
	return &ns.pages[p][off]
}

// children returns directory n's entries (nil for other inodes).
func (ns *Namespace) children(n *Inode) map[string]*Inode { return ns.ext[n.ext].children }

// dotdot returns directory n's containing directory.
func (ns *Namespace) dotdot(n *Inode) *Inode { return ns.Get(ns.ext[n.ext].parent) }

// NumChildren returns the entry count of a directory inode (0 otherwise).
func (ns *Namespace) NumChildren(n *Inode) int { return len(ns.ext[n.ext].children) }

// Lookup resolves path to an inode. It follows "." and "..". Runs of
// slashes collapse as POSIX requires.
func (ns *Namespace) Lookup(path string) (*Inode, error) {
	node, _, errno := ns.resolvePath(path)
	if errno != fs.OK {
		return nil, fs.NewError("walk", path, errno)
	}
	return node, nil
}

// LookupDepth resolves path and additionally reports the number of
// directory components traversed, which callers use to charge path-walk
// costs (POSIX requires a permission check on every component, §2.3.1).
func (ns *Namespace) LookupDepth(path string) (*Inode, int, error) {
	node, depth, errno := ns.resolvePath(path)
	if errno != fs.OK {
		return nil, depth, fs.NewError("walk", path, errno)
	}
	return node, depth, nil
}

// pathSpan returns the index range of p with leading and trailing
// slashes trimmed; start == end for the root ("/", "", "///").
func pathSpan(p string) (start, end int) {
	start, end = 0, len(p)
	for start < end && p[start] == '/' {
		start++
	}
	for end > start && p[end-1] == '/' {
		end--
	}
	return start, end
}

// resolvePath resolves a whole path string.
func (ns *Namespace) resolvePath(p string) (*Inode, int, fs.Errno) {
	start, end := pathSpan(p)
	return ns.resolve(p, start, end)
}

// resolve resolves the path span p[start:end) from the root without
// allocating: components are sliced out by index, never split into a
// slice. Successful directory resolutions are memoized in dirCache under
// the exact span text, so a deep path that is resolved repeatedly (the
// per-operation parent walks of Create/Stat) costs one map probe instead
// of one per component. Creating entries never changes the meaning of a
// span that already resolves, so the cache is only invalidated —
// wholesale — when a directory is removed, replaced or moved (Rmdir and
// directory-affecting Rename). The same rule keeps Parent handles valid.
//
// depth counts traversed components (including "." and "..") and is also
// reported on failure, matching the path-walk charging contract of
// LookupDepth.
func (ns *Namespace) resolve(p string, start, end int) (*Inode, int, fs.Errno) {
	for end > start && p[end-1] == '/' {
		end--
	}
	if start >= end {
		return ns.root, 0, fs.OK
	}
	if c, ok := ns.dirCache[p[start:end]]; ok {
		return c.node, int(c.depth), fs.OK
	}
	j := end
	for j > start && p[j-1] != '/' {
		j--
	}
	node, depth, errno := ns.resolve(p, start, j)
	if errno != fs.OK {
		return nil, depth, errno
	}
	if node.Type != fs.TypeDirectory {
		return nil, depth, fs.ENOTDIR
	}
	depth++
	switch name := p[j:end]; name {
	case ".":
		return node, depth, fs.OK
	case "..":
		return ns.dotdot(node), depth, fs.OK
	default:
		next, ok := ns.children(node)[name]
		if !ok {
			return nil, depth, fs.ENOENT
		}
		if next.Type == fs.TypeDirectory {
			if len(ns.dirCache) >= dirCacheMax {
				clear(ns.dirCache)
			}
			ns.dirCache[p[start:end]] = dirCacheEnt{node: next, depth: int32(depth)}
		}
		return next, depth, fs.OK
	}
}

// invalidateDirCache drops all memoized resolutions and starts a new
// generation; called whenever a directory is unlinked from, replaced in
// or moved within the tree.
func (ns *Namespace) invalidateDirCache() {
	clear(ns.dirCache)
	ns.gen++
}

// parentAndName resolves the parent directory of path and returns it with
// the final component.
func (ns *Namespace) parentAndName(op, path string) (*Inode, string, error) {
	h := ns.Parent(path)
	return h.dirAndName(op)
}

// alloc makes an inode under the next unused number, with a side-table
// entry for a directory.
func (ns *Namespace) alloc(t fs.FileType, mode uint32, now time.Duration) *Inode {
	if ns.next > math.MaxUint32 {
		panic("namespace: inode numbers exhausted")
	}
	if p, _ := pageOf(uint32(ns.next - 1)); int(p) == len(ns.pages) {
		ns.pages = append(ns.pages, make([]Inode, pageSize(p)))
	}
	n := ns.slot(ns.next)
	*n = Inode{
		Ino: ns.next, Type: t, Mode: mode, Nlink: 1,
		Atime: now, Mtime: now, Ctime: now,
	}
	ns.next++
	ns.live++
	if t != fs.TypeDirectory {
		return n
	}
	if k := len(ns.freeExt); k > 0 {
		n.ext, ns.freeExt = ns.freeExt[k-1], ns.freeExt[:k-1]
	} else {
		n.ext = uint32(len(ns.ext))
		ns.ext = append(ns.ext, inodeExt{})
	}
	ns.ext[n.ext].children = make(map[string]*Inode)
	n.Nlink = 2
	return n
}

// free zeroes an inode's slot, so Get answers nil for its number, which
// stays retired, and hands its side-table entry to the next directory.
func (ns *Namespace) free(n *Inode) {
	if n.ext != 0 {
		ns.ext[n.ext] = inodeExt{}
		ns.freeExt = append(ns.freeExt, n.ext)
	}
	*n = Inode{}
	ns.live--
}

// Create makes a regular file at path. It fails with EEXIST if any entry
// with that name exists (uniqueness guarantee, §2.6.3).
func (ns *Namespace) Create(path string, mode uint32, now time.Duration) (*Inode, error) {
	h := ns.Parent(path)
	return h.Create(mode, now)
}

// Mkdir makes a directory at path.
func (ns *Namespace) Mkdir(path string, mode uint32, now time.Duration) (*Inode, error) {
	dir, name, err := ns.parentAndName("mkdir", path)
	if err != nil {
		return nil, err
	}
	entries := ns.children(dir)
	if _, ok := entries[name]; ok {
		return nil, fs.NewError("mkdir", path, fs.EEXIST)
	}
	ino := ns.alloc(fs.TypeDirectory, mode, now)
	ns.ext[ino.ext].parent = dir.Ino
	entries[name] = ino
	dir.Nlink++ // child's ".."
	dir.Mtime, dir.Ctime = now, now
	ns.dirs++
	return ino, nil
}

// Unlink removes the directory entry for a file and frees its inode, the
// file's only link (open-file retention is a client concern, §2.3.1).
func (ns *Namespace) Unlink(path string, now time.Duration) error {
	h := ns.Parent(path)
	return h.Unlink(now)
}

// Rmdir removes an empty directory.
func (ns *Namespace) Rmdir(path string, now time.Duration) error {
	dir, name, err := ns.parentAndName("rmdir", path)
	if err != nil {
		return err
	}
	entries := ns.children(dir)
	child, ok := entries[name]
	if !ok {
		return fs.NewError("rmdir", path, fs.ENOENT)
	}
	if child.Type != fs.TypeDirectory {
		return fs.NewError("rmdir", path, fs.ENOTDIR)
	}
	if ns.NumChildren(child) != 0 {
		return fs.NewError("rmdir", path, fs.ENOTEMPTY)
	}
	delete(entries, name)
	ns.free(child)
	dir.Nlink--
	dir.Mtime, dir.Ctime = now, now
	ns.dirs--
	ns.invalidateDirCache()
	return nil
}

// Rename atomically moves oldPath to newPath (§2.6.3). An existing
// regular-file target is replaced; an existing directory target must be
// empty. Renaming a directory under itself fails with EINVAL.
func (ns *Namespace) Rename(oldPath, newPath string, now time.Duration) error {
	odir, oname, err := ns.parentAndName("rename", oldPath)
	if err != nil {
		return err
	}
	oents := ns.children(odir)
	src, ok := oents[oname]
	if !ok {
		return fs.NewError("rename", oldPath, fs.ENOENT)
	}
	ndir, nname, err := ns.parentAndName("rename", newPath)
	if err != nil {
		return err
	}
	if src.Type == fs.TypeDirectory {
		// Disallow moving a directory into its own subtree.
		for d := ndir; ; {
			if d == src {
				return fs.NewError("rename", newPath, fs.EINVAL)
			}
			if d == ns.root {
				break
			}
			d = ns.dotdot(d)
		}
	}
	nents := ns.children(ndir)
	if dst, ok := nents[nname]; ok {
		if dst == src {
			return nil // same object; POSIX no-op
		}
		switch {
		case dst.Type == fs.TypeDirectory && src.Type != fs.TypeDirectory:
			return fs.NewError("rename", newPath, fs.EISDIR)
		case dst.Type != fs.TypeDirectory && src.Type == fs.TypeDirectory:
			return fs.NewError("rename", newPath, fs.ENOTDIR)
		case dst.Type == fs.TypeDirectory:
			if ns.NumChildren(dst) != 0 {
				return fs.NewError("rename", newPath, fs.ENOTEMPTY)
			}
			ns.free(dst)
			ndir.Nlink--
			ns.dirs--
			ns.invalidateDirCache() // a directory was replaced
		default:
			ns.free(dst)
			ns.files--
		}
	}
	delete(oents, oname)
	nents[nname] = src
	if src.Type == fs.TypeDirectory {
		// Moving a directory changes what every span below its old name
		// resolves to; file moves cannot affect directory resolution.
		ns.invalidateDirCache()
	}
	if src.Type == fs.TypeDirectory && odir.Ino != ndir.Ino {
		odir.Nlink--
		ndir.Nlink++
		ns.ext[src.ext].parent = ndir.Ino
	}
	src.Ctime = now
	odir.Mtime, odir.Ctime = now, now
	ndir.Mtime, ndir.Ctime = now, now
	return nil
}

// Stat returns the attributes of the object at path.
func (ns *Namespace) Stat(path string) (fs.Attr, error) {
	h := ns.Parent(path)
	return h.Stat()
}

// Attr converts the inode to the public attribute struct.
func (n *Inode) Attr() fs.Attr {
	return fs.Attr{
		Ino: n.Ino, Type: n.Type, Mode: n.Mode, Nlink: n.Nlink,
		UID: n.UID, GID: n.GID, Size: n.Size,
		Blocks: (n.Size + 511) / 512,
		Atime:  n.Atime, Mtime: n.Mtime, Ctime: n.Ctime,
	}
}

// ReadDir lists the entries of the directory at path in name order
// (deterministic for the simulator; real readdir order is unspecified).
func (ns *Namespace) ReadDir(path string, now time.Duration) ([]fs.DirEntry, error) {
	node, err := ns.Lookup(path)
	if err != nil {
		return nil, err
	}
	if node.Type != fs.TypeDirectory {
		return nil, fs.NewError("readdir", path, fs.ENOTDIR)
	}
	node.Atime = now
	entries := ns.children(node)
	ents := make([]fs.DirEntry, 0, len(entries))
	for name, child := range entries {
		ents = append(ents, fs.DirEntry{Name: name, Ino: child.Ino, Type: child.Type})
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	return ents, nil
}

// SetSize updates a file's size (used by Write models) and stamps mtime.
func (ns *Namespace) SetSize(ino fs.Ino, size int64, now time.Duration) error {
	n := ns.Get(ino)
	if n == nil {
		return fs.NewError("setsize", "", fs.ESTALE)
	}
	if n.Type == fs.TypeDirectory {
		return fs.NewError("setsize", "", fs.EISDIR)
	}
	n.Size = size
	n.Mtime, n.Ctime = now, now
	return nil
}

// DirIndex identifies the directory data structure used by a server's
// local file system, which determines how per-entry costs scale with
// directory size (§2.4.2).
type DirIndex int

// Directory index kinds.
const (
	// IndexLinear is the traditional UFS linear entry list: O(n) lookup
	// and insert (the insert must verify uniqueness by scanning).
	IndexLinear DirIndex = iota
	// IndexHash is a name-hash index (WAFL-style): near O(1) with a mild
	// growth term from bucket chains.
	IndexHash
	// IndexBTree is a B-tree directory (XFS/ldiskfs htree): O(log n).
	IndexBTree
)

func (d DirIndex) String() string {
	switch d {
	case IndexLinear:
		return "linear"
	case IndexHash:
		return "hash"
	case IndexBTree:
		return "btree"
	default:
		return "unknown"
	}
}

// EntryCost returns the relative cost (in abstract units, 1.0 = cost in a
// small directory) of a single lookup or insert in a directory with n
// entries under the given index. Servers multiply this by their base
// per-entry service time.
func (d DirIndex) EntryCost(n int) float64 {
	if n < 1 {
		n = 1
	}
	switch d {
	case IndexLinear:
		// Scanning half the entries on average; normalized so that
		// a 128-entry directory costs ~1.
		c := float64(n) / 256.0
		if c < 1 {
			return 1
		}
		return c
	case IndexHash:
		// Bucket chains grow slowly; 1% per doubling beyond 4k entries.
		if n <= 4096 {
			return 1
		}
		return 1 + 0.01*math.Log2(float64(n)/4096)
	case IndexBTree:
		// log16(n) levels, normalized to 1 for small directories.
		c := math.Log(float64(n)) / math.Log(16) / 2
		if c < 1 {
			return 1
		}
		return c
	default:
		return 1
	}
}
