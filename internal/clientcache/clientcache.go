// Package clientcache provides the client-side metadata caches shared by
// the distributed file system models, in two consistency flavours:
//
//   - AttrCache and DentryCache are timeout caches: entries are trusted
//     for a fixed TTL after they were fetched, like the NFS client
//     attribute cache (acregmin/acregmax) and the Linux dcache with
//     d_revalidate (§2.1.2). Remote mutations are invisible until the
//     timeout lapses — cheap, but stale by design. NameCache
//     (namecache.go) is the pair in one map, one entry per path.
//   - LeaseCache (lease.go) is the client half of an explicit coherence
//     protocol: entries are trusted until the server-granted lease
//     expires, the server revokes them with a callback, or the granting
//     authority's epoch moves on — the bulk invalidation applied when a
//     metadata server crashes and a backup takes over its slice
//     (internal/shard wires the server half; E22–E24 measure it).
//
// Every cache is unbounded: an entry leaves only when it is
// invalidated, revoked or cleared, or (leases) read after it lapsed.
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

	entries map[string]attrEntry
	hits    int64
	misses  int64
}

type attrEntry struct {
	attr    fs.Attr
	fetched time.Duration
}

// NewAttrCache returns a cache using now as its clock.
func NewAttrCache(ttl time.Duration, now func() time.Duration) *AttrCache {
	return &AttrCache{TTL: ttl, now: now, entries: make(map[string]attrEntry)}
}

// Get returns the cached attributes for path if fresh.
func (c *AttrCache) Get(path string) (fs.Attr, bool) {
	e, ok := c.entries[path]
	if !ok || c.now()-e.fetched > c.TTL {
		c.misses++
		return fs.Attr{}, false
	}
	c.hits++
	return e.attr, true
}

// Put stores attributes for path.
func (c *AttrCache) Put(path string, a fs.Attr) {
	c.entries[path] = attrEntry{attr: a, fetched: c.now()}
}

// Invalidate removes one path.
func (c *AttrCache) Invalidate(path string) { delete(c.entries, path) }

// Clear drops every entry and resets the hit/miss statistics
// (drop_caches before a fresh measurement, §3.4.3: a cleared cache's
// counters must describe only the run that follows).
func (c *AttrCache) Clear() {
	c.entries = make(map[string]attrEntry)
	c.hits, c.misses = 0, 0
}

// Stats returns cumulative hits and misses.
func (c *AttrCache) Stats() (hits, misses int64) { return c.hits, c.misses }

// Len returns the number of cached entries (fresh or stale).
func (c *AttrCache) Len() int { return len(c.entries) }

// DentryCache caches name resolution results, including negative entries
// (name known not to exist), like the Linux dcache with d_revalidate.
type DentryCache struct {
	TTL time.Duration

	now func() time.Duration

	entries map[string]dentry
}

type dentry struct {
	ino      fs.Ino
	negative bool
	fetched  time.Duration
}

// NewDentryCache returns a dentry cache using now as its clock.
func NewDentryCache(ttl time.Duration, now func() time.Duration) *DentryCache {
	return &DentryCache{TTL: ttl, now: now, entries: make(map[string]dentry)}
}

// Lookup returns (ino, negative, ok): ok reports a fresh cache entry and
// negative reports a cached non-existence.
func (c *DentryCache) Lookup(path string) (fs.Ino, bool, bool) {
	e, ok := c.entries[path]
	if !ok || c.now()-e.fetched > c.TTL {
		return 0, false, false
	}
	return e.ino, e.negative, true
}

// PutPositive records that path resolves to ino.
func (c *DentryCache) PutPositive(path string, ino fs.Ino) {
	c.entries[path] = dentry{ino: ino, fetched: c.now()}
}

// PutNegative records that path does not exist.
func (c *DentryCache) PutNegative(path string) {
	c.entries[path] = dentry{negative: true, fetched: c.now()}
}

// Invalidate removes one path.
func (c *DentryCache) Invalidate(path string) { delete(c.entries, path) }

// Clear drops every entry.
func (c *DentryCache) Clear() { c.entries = make(map[string]dentry) }

// Len returns the number of cached entries (fresh or stale).
func (c *DentryCache) Len() int { return len(c.entries) }
