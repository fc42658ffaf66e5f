package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// NameCache is a timeout cache that keeps one entry per path holding
// both the dentry (positive or negative) and the attributes, as a Linux
// dentry points at the inode that carries NFS's cached attributes. Each
// half has its own TTL and fetch time, and either half can be refreshed
// or dropped alone, so the cache answers what a dentry cache and an
// AttrCache used side by side answer — but a reply fill, an
// invalidation or a stat hit looks its path up once, not in two maps.
//
// The dentry halves live in the slot store's pages, 24 bytes each. The
// attribute halves live in pages of their own, parallel to those and
// addressed by the same slot numbers, and each such page is allocated
// when the first attribute lands in it. A cache filled only with
// dentries allocates no attribute page at all.
type NameCache struct {
	attrTTL   time.Duration
	dentryTTL time.Duration
	now       func() time.Duration
	entries   slots[nameEntry]
	// attrPages[p][off] is the attribute half of the slot whose dentry
	// half is entries.pages[p][off]; a page is nil until an attribute
	// lands in it.
	attrPages [][]attrHalf

	// attrs and dentries count the paths holding each half; hits and
	// misses count Attr answers.
	attrs, dentries int
	hits, misses    int64
}

// nameEntry is one path's dentry half plus the flags of both halves; a
// half is present when its has flag is set.
type nameEntry struct {
	ino       fs.Ino
	dentryAt  time.Duration
	hasAttr   bool
	hasDentry bool
	negative  bool
	// dir reports that a positive dentry names a directory.
	dir bool
}

// attrHalf is one path's cached attributes and their fetch time.
type attrHalf struct {
	attr fs.Attr
	at   time.Duration
}

// NewNameCache returns an empty cache using now as its clock.
func NewNameCache(attrTTL, dentryTTL time.Duration, now func() time.Duration) *NameCache {
	return &NameCache{attrTTL: attrTTL, dentryTTL: dentryTTL, now: now}
}

// Attr returns path's cached attributes if fresh, counting a hit or a
// miss like AttrCache.Get.
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

// Put records that path resolves to a.Ino and caches a: both halves
// become fresh.
func (c *NameCache) Put(path string, a fs.Attr) {
	now := c.now()
	i, e := c.entries.put(path)
	c.setAttr(i, e, a, now)
	c.setDentry(e, a.Ino, false, a.Type == fs.TypeDirectory, now)
}

// PutAttr caches a as path's attributes and leaves the dentry half as
// it is.
func (c *NameCache) PutAttr(path string, a fs.Attr) {
	i, e := c.entries.put(path)
	c.setAttr(i, e, a, c.now())
}

// PutDentry records that path resolves to ino, a directory if dir, and
// leaves the attribute half as it is.
func (c *NameCache) PutDentry(path string, ino fs.Ino, dir bool) {
	_, e := c.entries.put(path)
	c.setDentry(e, ino, false, dir, c.now())
}

// PutNegative records that path does not exist and leaves the attribute
// half as it is.
func (c *NameCache) PutNegative(path string) {
	_, e := c.entries.put(path)
	c.setDentry(e, 0, true, false, c.now())
}

// setAttr makes slot i's attribute half a, fetched at now, allocating
// the slot's attribute page when this is the first attribute in it.
func (c *NameCache) setAttr(i int32, e *nameEntry, a fs.Attr, now time.Duration) {
	if !e.hasAttr {
		e.hasAttr = true
		c.attrs++
	}
	p, off := pageOf(i)
	for int(p) >= len(c.attrPages) {
		c.attrPages = append(c.attrPages, nil)
	}
	if c.attrPages[p] == nil {
		c.attrPages[p] = make([]attrHalf, pageSize(p))
	}
	c.attrPages[p][off] = attrHalf{attr: a, at: now}
}

// setDentry makes e's dentry half fresh at now.
func (c *NameCache) setDentry(e *nameEntry, ino fs.Ino, negative, dir bool, now time.Duration) {
	if !e.hasDentry {
		c.dentries++
	}
	e.ino, e.dentryAt, e.hasDentry, e.negative, e.dir = ino, now, true, negative, dir
}

// Invalidate drops both halves of path's entry.
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
}

// InvalidateDentry drops path's dentry and keeps its attributes.
func (c *NameCache) InvalidateDentry(path string) {
	switch e := c.entries.get(path); {
	case e == nil:
	case e.hasAttr:
		if e.hasDentry {
			c.dentries--
		}
		e.hasDentry, e.negative, e.dir, e.ino = false, false, false, 0
	default:
		c.Invalidate(path)
	}
}

// Clear drops every entry and resets the attribute hit/miss statistics,
// as AttrCache.Clear does.
func (c *NameCache) Clear() {
	c.entries.reset()
	c.attrs, c.dentries = 0, 0
	c.hits, c.misses = 0, 0
}

// Stats returns cumulative attribute hits and misses.
func (c *NameCache) Stats() (hits, misses int64) { return c.hits, c.misses }

// AttrLen returns the number of paths holding attributes (fresh or
// stale).
func (c *NameCache) AttrLen() int { return c.attrs }

// DentryLen returns the number of paths holding a dentry, positive or
// negative (fresh or stale).
func (c *NameCache) DentryLen() int { return c.dentries }
