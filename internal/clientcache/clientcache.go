// Package clientcache provides the client-side metadata cache shared by
// the distributed file system models. A node keeps one NameCache
// (namecache.go), whose entry per path holds up to three halves, each
// with its own consistency flavour:
//
//   - the dentry and the attribute halves are timeout caches: they are
//     trusted for a fixed TTL after they were fetched, like the Linux
//     dcache with d_revalidate and the NFS client attribute cache
//     (acregmin/acregmax) (§2.1.2). Remote mutations are invisible until
//     the timeout lapses — cheap, but stale by design.
//   - the lease half (lease.go) is the client half of an explicit
//     coherence protocol: it is trusted until the server-granted lease
//     expires, the server revokes it with a callback, or the granting
//     authority's epoch moves on — the bulk invalidation applied when a
//     metadata server crashes and a backup takes over its slice
//     (internal/shard wires the server half; E22–E24 measure it).
//
// A SplitMap (splitmap.go) caches the split levels of giant
// directories beside a node's NameCache and ends them by its lease
// rule.
//
// Every cache is unbounded: an entry leaves only when it is
// invalidated, revoked or cleared, or (leases and split levels) read
// after it lapsed. A timeout half never drops itself when stale.
// NameCache keeps its entries in a slot store (slots.go): an index from
// path to slot, and pages of entries that never move. A freed slot goes
// to the next new path, and no page is released before the cache
// itself, Clear included, so a cache's memory follows the most paths it
// ever held at once.
package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// AttrCache is a NameCache that callers fill with attributes alone, by
// Put and Get. The substrate benchmarks time its Get as the attribute
// hit path.
type AttrCache struct{ NameCache }

// NewAttrCache returns an attribute cache with the given TTL using now
// as its clock.
func NewAttrCache(ttl time.Duration, now func() time.Duration) *AttrCache {
	return &AttrCache{NameCache{attrTTL: ttl, now: now}}
}

// Get returns the cached attributes for path if fresh (NameCache.Attr).
func (c *AttrCache) Get(path string) (fs.Attr, bool) { return c.Attr(path) }

// Put stores attributes for path (NameCache.PutAttr).
func (c *AttrCache) Put(path string, a fs.Attr) { c.PutAttr(path, a) }

// LeaseCache is a NameCache that callers fill with leases alone, by
// Put and Get. The substrate benchmarks time its Get as the lease hit
// path.
type LeaseCache struct{ NameCache }

// NewLeaseCache returns a lease cache using now as its clock and
// epochOf as its epoch function (nil disables epoch checks).
func NewLeaseCache(now func() time.Duration, epochOf func(authority int) uint64) *LeaseCache {
	return &LeaseCache{NameCache{now: now, epochOf: epochOf}}
}

// Get returns the leased attributes for path while the lease holds
// (NameCache.Lease).
func (c *LeaseCache) Get(path string) (fs.Attr, bool) { return c.Lease(path) }

// Put records a lease on path (NameCache.PutLease).
func (c *LeaseCache) Put(path string, a fs.Attr, expiry time.Duration, authority int, epoch uint64) {
	c.PutLease(path, a, expiry, authority, epoch)
}
