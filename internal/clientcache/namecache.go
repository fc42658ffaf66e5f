package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// NameCache is a timeout cache that keeps one entry per path
// holding both the dentry (positive or negative) and the attributes, as
// a Linux dentry points at the inode that carries NFS's cached
// attributes. It behaves exactly like an AttrCache and a DentryCache
// used side by side — each half has its own TTL and fetch time, and
// either half can be refreshed or dropped alone — but a reply fill, an
// invalidation or a stat hit looks its path up once, not in two maps.
type NameCache struct {
	attrTTL   time.Duration
	dentryTTL time.Duration
	now       func() time.Duration
	entries   slots[nameEntry]
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
	return &NameCache{attrTTL: attrTTL, dentryTTL: dentryTTL, now: now}
}

// Attr returns path's cached attributes if fresh.
func (c *NameCache) Attr(path string) (fs.Attr, bool) {
	e := c.entries.get(path)
	if e == nil || !e.hasAttr || c.now()-e.attrAt > c.attrTTL {
		return fs.Attr{}, false
	}
	return e.attr, true
}

// Dentry returns (ino, negative, ok) like DentryCache.Lookup: ok reports
// a fresh dentry and negative a cached non-existence.
func (c *NameCache) Dentry(path string) (fs.Ino, bool, bool) {
	e := c.entries.get(path)
	if e == nil || !e.hasDentry || c.now()-e.dentryAt > c.dentryTTL {
		return 0, false, false
	}
	return e.ino, e.negative, true
}

// Put records that path resolves to a.Ino and caches a: both halves
// become fresh.
func (c *NameCache) Put(path string, a fs.Attr) {
	now := c.now()
	*c.entries.put(path) = nameEntry{attr: a, attrAt: now, ino: a.Ino, dentryAt: now,
		hasAttr: true, hasDentry: true}
}

// PutAttr caches a as path's attributes and leaves the dentry half as
// it is.
func (c *NameCache) PutAttr(path string, a fs.Attr) {
	e := c.entries.put(path)
	e.attr, e.attrAt, e.hasAttr = a, c.now(), true
}

// PutNegative records that path does not exist and leaves the attribute
// half as it is.
func (c *NameCache) PutNegative(path string) {
	e := c.entries.put(path)
	e.ino, e.dentryAt, e.hasDentry, e.negative = 0, c.now(), true, true
}

// Invalidate drops both halves of path's entry.
func (c *NameCache) Invalidate(path string) { c.entries.drop(path) }

// InvalidateDentry drops path's dentry and keeps its attributes.
func (c *NameCache) InvalidateDentry(path string) {
	switch e := c.entries.get(path); {
	case e == nil:
	case e.hasAttr:
		e.hasDentry, e.negative, e.ino = false, false, 0
	default:
		c.entries.drop(path)
	}
}

// Clear drops every entry.
func (c *NameCache) Clear() { c.entries.reset() }
