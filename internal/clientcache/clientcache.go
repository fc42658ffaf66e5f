// Package clientcache provides the client-side metadata caches shared by
// the distributed file system models, in two consistency flavours:
//
//   - NameCache (namecache.go) and AttrCache are timeout caches: entries
//     are trusted for a fixed TTL after they were fetched, like the
//     Linux dcache with d_revalidate and the NFS client attribute cache
//     (acregmin/acregmax) (§2.1.2). Remote mutations are invisible until
//     the timeout lapses — cheap, but stale by design. NameCache keeps a
//     path's dentry and its attributes in one entry; AttrCache keeps
//     attributes alone.
//   - LeaseCache (lease.go) is the client half of an explicit coherence
//     protocol: entries are trusted until the server-granted lease
//     expires, the server revokes them with a callback, or the granting
//     authority's epoch moves on — the bulk invalidation applied when a
//     metadata server crashes and a backup takes over its slice
//     (internal/shard wires the server half; E22–E24 measure it).
//
// Every cache is unbounded: an entry leaves only when it is
// invalidated, revoked or cleared, or (leases and split levels) read
// after it lapsed. A timeout cache never drops a stale entry by itself.
// NameCache, AttrCache and LeaseCache keep their entries in a slot
// store (slots.go): an index from path to slot, and pages of entries
// that never move. A freed slot goes to the next new path, and no page
// is released before the cache itself, Clear included, so a cache's
// memory follows the most paths it ever held at once.
package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// AttrCache caches attributes by path with a fixed TTL, like the NFS
// client attribute cache (acregmin/acregmax).
type AttrCache struct {
	TTL time.Duration

	now func() time.Duration

	entries slots[attrEntry]
	hits    int64
	misses  int64
}

type attrEntry struct {
	attr    fs.Attr
	fetched time.Duration
}

// NewAttrCache returns a cache using now as its clock.
func NewAttrCache(ttl time.Duration, now func() time.Duration) *AttrCache {
	return &AttrCache{TTL: ttl, now: now}
}

// Get returns the cached attributes for path if fresh.
func (c *AttrCache) Get(path string) (fs.Attr, bool) {
	e := c.entries.get(path)
	if e == nil || c.now()-e.fetched > c.TTL {
		c.misses++
		return fs.Attr{}, false
	}
	c.hits++
	return e.attr, true
}

// Put stores attributes for path.
func (c *AttrCache) Put(path string, a fs.Attr) {
	_, e := c.entries.put(path)
	*e = attrEntry{attr: a, fetched: c.now()}
}

// Invalidate removes one path.
func (c *AttrCache) Invalidate(path string) { c.entries.drop(path) }

// Clear drops every entry and resets the hit/miss statistics
// (drop_caches before a fresh measurement, §3.4.3: a cleared cache's
// counters must describe only the run that follows).
func (c *AttrCache) Clear() {
	c.entries.reset()
	c.hits, c.misses = 0, 0
}

// Stats returns cumulative hits and misses.
func (c *AttrCache) Stats() (hits, misses int64) { return c.hits, c.misses }

// Len returns the number of cached entries (fresh or stale).
func (c *AttrCache) Len() int { return c.entries.len() }
