package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// NameCache is an unbounded timeout cache that keeps one entry per path
// holding both the dentry (positive or negative) and the attributes, as
// a Linux dentry points at the inode that carries NFS's cached
// attributes. It behaves exactly like an unbounded AttrCache and
// DentryCache used side by side — each half has its own TTL and fetch
// time, and either half can be refreshed or dropped alone — but a reply
// fill, an invalidation or a stat hit touches one map instead of two.
//
// Capacity-bounded caches stay a pair: a bound evicts each kind in its
// own insertion order, which one shared entry cannot reproduce.
type NameCache struct {
	attrTTL   time.Duration
	dentryTTL time.Duration
	now       func() time.Duration
	entries   map[string]nameEntry
}

// nameEntry is one path's dentry and attribute halves; a half is present
// when its has flag is set.
type nameEntry struct {
	attr      fs.Attr
	attrAt    time.Duration
	ino       fs.Ino
	dentryAt  time.Duration
	hasAttr   bool
	hasDentry bool
	negative  bool
}

// NewNameCache returns an empty cache using now as its clock.
func NewNameCache(attrTTL, dentryTTL time.Duration, now func() time.Duration) *NameCache {
	return &NameCache{attrTTL: attrTTL, dentryTTL: dentryTTL, now: now,
		entries: make(map[string]nameEntry)}
}

// Attr returns path's cached attributes if fresh.
func (c *NameCache) Attr(path string) (fs.Attr, bool) {
	e, ok := c.entries[path]
	if !ok || !e.hasAttr || c.now()-e.attrAt > c.attrTTL {
		return fs.Attr{}, false
	}
	return e.attr, true
}

// Dentry returns (ino, negative, ok) like DentryCache.Lookup: ok reports
// a fresh dentry and negative a cached non-existence.
func (c *NameCache) Dentry(path string) (fs.Ino, bool, bool) {
	e, ok := c.entries[path]
	if !ok || !e.hasDentry || c.now()-e.dentryAt > c.dentryTTL {
		return 0, false, false
	}
	return e.ino, e.negative, true
}

// Put records that path resolves to a.Ino and caches a: both halves
// become fresh.
func (c *NameCache) Put(path string, a fs.Attr) {
	now := c.now()
	c.entries[path] = nameEntry{attr: a, attrAt: now, ino: a.Ino, dentryAt: now,
		hasAttr: true, hasDentry: true}
}

// PutAttr caches a as path's attributes and leaves the dentry half as
// it is.
func (c *NameCache) PutAttr(path string, a fs.Attr) {
	e := c.entries[path]
	e.attr, e.attrAt, e.hasAttr = a, c.now(), true
	c.entries[path] = e
}

// PutNegative records that path does not exist and leaves the attribute
// half as it is.
func (c *NameCache) PutNegative(path string) {
	e := c.entries[path]
	e.ino, e.dentryAt, e.hasDentry, e.negative = 0, c.now(), true, true
	c.entries[path] = e
}

// Invalidate drops both halves of path's entry.
func (c *NameCache) Invalidate(path string) { delete(c.entries, path) }

// InvalidateDentry drops path's dentry and keeps its attributes.
func (c *NameCache) InvalidateDentry(path string) {
	e, ok := c.entries[path]
	switch {
	case !ok:
	case e.hasAttr:
		e.hasDentry, e.negative, e.ino = false, false, 0
		c.entries[path] = e
	default:
		delete(c.entries, path)
	}
}

// Clear drops every entry.
func (c *NameCache) Clear() { clear(c.entries) }
