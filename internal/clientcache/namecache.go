package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// NameCache is a client node's one metadata cache: one entry per path
// holding up to three halves, the dentry (positive or negative), the
// TTL attributes and the lease (lease.go), as a Linux dentry points at
// the inode that carries NFS's cached attributes or a callback-held
// status. Each half has its own lifetime and fetch time, and any half
// can be refreshed or dropped alone, so the cache answers what a dentry
// cache, an attribute cache and a lease cache used side by side answer
// — but a reply fill, an invalidation or a stat hit looks its path up
// once, not in three maps.
//
// The dentry halves live in the slot store's pages, 24 bytes each. The
// attribute and lease halves live in pages of their own, parallel to
// those and addressed by the same slot numbers, and each such page is
// allocated when the first half of its kind lands in it. A cache filled
// only with dentries allocates no attribute or lease page at all.
type NameCache struct {
	attrTTL   time.Duration
	dentryTTL time.Duration
	now       func() time.Duration
	// epochOf reports a granting authority's current epoch for the
	// lease half and for a SplitMap built on the cache; nil trusts
	// grants across failovers.
	epochOf func(authority int) uint64
	entries slots
	// attrPages[p][off] and leasePages[p][off] are the attribute and
	// lease halves of the slot whose dentry half is
	// entries.pages[p][off]; a page is nil until a half lands in it.
	attrPages  [][]attrHalf
	leasePages [][]leaseHalf

	// attrs, dentries and leases count the paths holding each half.
	attrs, dentries, leases int
	// hits and misses count Attr and Lease answers; revoked counts
	// revocations of a held lease and epochDrops the leases dropped
	// because their authority's epoch moved on.
	hits, misses, revoked, epochDrops int64
}

// nameEntry is one path's dentry half plus the flags of all three
// halves; a half is present when its has flag is set.
type nameEntry struct {
	ino       fs.Ino
	dentryAt  time.Duration
	hasAttr   bool
	hasDentry bool
	hasLease  bool
	negative  bool
	// dir reports that a positive dentry names a directory.
	dir bool
}

// attrHalf is one path's cached attributes and their fetch time.
type attrHalf struct {
	attr fs.Attr
	at   time.Duration
}

// NewNameCache returns an empty cache using now as its clock. epochOf
// reports the current epoch of a granting authority; nil disables
// epoch checks (leases and split levels survive failovers until they
// expire or are revoked).
func NewNameCache(attrTTL, dentryTTL time.Duration, now func() time.Duration, epochOf func(authority int) uint64) *NameCache {
	return &NameCache{attrTTL: attrTTL, dentryTTL: dentryTTL, now: now, epochOf: epochOf}
}

// halfAt returns slot i's element of a half's parallel pages,
// allocating its page when this is the first half in it.
func halfAt[H any](pages *[][]H, i int32) *H {
	p, off := pageOf(i)
	for int(p) >= len(*pages) {
		*pages = append(*pages, nil)
	}
	if (*pages)[p] == nil {
		(*pages)[p] = make([]H, pageSize(p))
	}
	return &(*pages)[p][off]
}

// Attr returns path's cached attributes if fresh, counting a hit or a
// miss.
func (c *NameCache) Attr(path string) (fs.Attr, bool) {
	if i, e := c.entries.lookup(path); e != nil && e.hasAttr {
		p, off := pageOf(i)
		if h := &c.attrPages[p][off]; c.now()-h.at <= c.attrTTL {
			c.hits++
			return h.attr, true
		}
	}
	c.misses++
	return fs.Attr{}, false
}

// Dentry returns (ino, negative, ok): ok reports a fresh dentry and
// negative a cached non-existence.
func (c *NameCache) Dentry(path string) (fs.Ino, bool, bool) {
	e := c.freshDentry(path)
	if e == nil {
		return 0, false, false
	}
	return e.ino, e.negative, true
}

// DentryDir returns (dir, negative, ok) for a walk through path: ok
// reports a fresh dentry, negative a cached non-existence and dir a
// positive dentry that names a directory.
func (c *NameCache) DentryDir(path string) (dir, negative, ok bool) {
	e := c.freshDentry(path)
	if e == nil {
		return false, false, false
	}
	return e.dir, e.negative, true
}

// freshDentry returns path's entry if its dentry half is fresh.
func (c *NameCache) freshDentry(path string) *nameEntry {
	e := c.entries.get(path)
	if e == nil || !e.hasDentry || c.now()-e.dentryAt > c.dentryTTL {
		return nil
	}
	return e
}

// Put records that path resolves to a.Ino and caches a: both the
// dentry and the attribute half become fresh.
func (c *NameCache) Put(path string, a fs.Attr) {
	now := c.now()
	i, e := c.entries.put(path)
	c.setAttr(i, e, a, now)
	c.setDentry(e, a.Ino, false, a.Type == fs.TypeDirectory, now)
}

// PutAttr caches a as path's attributes and leaves the other halves as
// they are.
func (c *NameCache) PutAttr(path string, a fs.Attr) {
	i, e := c.entries.put(path)
	c.setAttr(i, e, a, c.now())
}

// PutDentry records that path resolves to ino, a directory if dir, and
// leaves the other halves as they are.
func (c *NameCache) PutDentry(path string, ino fs.Ino, dir bool) {
	_, e := c.entries.put(path)
	c.setDentry(e, ino, false, dir, c.now())
}

// PutNegative records that path does not exist and leaves the other
// halves as they are.
func (c *NameCache) PutNegative(path string) {
	_, e := c.entries.put(path)
	c.setDentry(e, 0, true, false, c.now())
}

// setAttr makes slot i's attribute half a, fetched at now.
func (c *NameCache) setAttr(i int32, e *nameEntry, a fs.Attr, now time.Duration) {
	if !e.hasAttr {
		e.hasAttr = true
		c.attrs++
	}
	*halfAt(&c.attrPages, i) = attrHalf{attr: a, at: now}
}

// setDentry makes e's dentry half fresh at now.
func (c *NameCache) setDentry(e *nameEntry, ino fs.Ino, negative, dir bool, now time.Duration) {
	if !e.hasDentry {
		c.dentries++
	}
	e.ino, e.dentryAt, e.hasDentry, e.negative, e.dir = ino, now, true, negative, dir
}

// Invalidate drops every half of path's entry.
func (c *NameCache) Invalidate(path string) {
	e := c.entries.drop(path)
	if e == nil {
		return
	}
	if e.hasAttr {
		c.attrs--
	}
	if e.hasDentry {
		c.dentries--
	}
	if e.hasLease {
		c.leases--
	}
}

// InvalidateDentry drops path's dentry and keeps its other halves.
func (c *NameCache) InvalidateDentry(path string) {
	if e := c.entries.get(path); e != nil && e.hasDentry {
		c.dentries--
		e.hasDentry = false
		c.release(path, e)
	}
}

// release frees path's slot once e, its entry, holds no half.
func (c *NameCache) release(path string, e *nameEntry) {
	if !e.hasAttr && !e.hasDentry && !e.hasLease {
		c.entries.drop(path)
	}
}

// Clear drops every entry and resets the statistics (drop_caches before
// a fresh measurement, §3.4.3: a cleared cache's counters must describe
// only the run that follows).
func (c *NameCache) Clear() {
	c.entries.reset()
	c.attrs, c.dentries, c.leases = 0, 0, 0
	c.hits, c.misses, c.revoked, c.epochDrops = 0, 0, 0, 0
}

// Stats returns the cumulative hits and misses of Attr and Lease, the
// server revocations that dropped a held lease, and the leases dropped
// by epoch moves (crash-time bulk invalidation).
func (c *NameCache) Stats() (hits, misses, revoked, epochDrops int64) {
	return c.hits, c.misses, c.revoked, c.epochDrops
}

// AttrLen returns the number of paths holding attributes (fresh or
// stale).
func (c *NameCache) AttrLen() int { return c.attrs }

// DentryLen returns the number of paths holding a dentry, positive or
// negative (fresh or stale).
func (c *NameCache) DentryLen() int { return c.dentries }

// LeaseLen returns the number of paths holding a lease (live or
// lapsed).
func (c *NameCache) LeaseLen() int { return c.leases }
