package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// LeaseCache is the client half of a lease-based metadata coherence
// protocol (the AFS/Lustre callback direction the thesis contrasts with
// NFS attribute timeouts in §2.1.2/§4.7.3, scaled out the way MetaFlow
// and HopsFS cache under explicit invalidation). An entry is trusted
// until one of three things ends the lease:
//
//  1. expiry — the server granted the lease for a bounded TTL and the
//     clock ran out;
//  2. revocation — the server delivered a callback because another
//     client mutated the path (Revoke);
//  3. an epoch move — the granting authority (a metadata-server slice
//     in internal/shard) crashed or failed over, and the client drops
//     every lease that authority granted in one step, without
//     per-entry traffic (the epochOf check).
//
// Epoch checking is optional: with a nil epochOf the cache trusts
// leases across failovers, which is exactly the stale-read window
// experiment E24 measures.
type LeaseCache struct {
	now     func() time.Duration
	epochOf func(authority int) uint64

	entries slots[leaseEntry]

	hits, misses, revoked, epochDrops int64
}

type leaseEntry struct {
	attr      fs.Attr
	expiry    time.Duration
	authority int
	epoch     uint64
}

// NewLeaseCache returns a lease cache using now as its clock. epochOf
// reports the current epoch of a granting authority; nil disables epoch
// checks (leases survive failovers until they expire or are revoked).
func NewLeaseCache(now func() time.Duration, epochOf func(authority int) uint64) *LeaseCache {
	return &LeaseCache{now: now, epochOf: epochOf}
}

// Get returns the cached attributes for path while its lease holds. A
// lease whose authority's epoch moved on is dropped (counted as an
// epoch drop); one past its expiry is dropped silently. Both count as
// misses.
func (c *LeaseCache) Get(path string) (fs.Attr, bool) {
	e := c.entries.get(path)
	if e == nil {
		c.misses++
		return fs.Attr{}, false
	}
	if c.epochOf != nil && c.epochOf(e.authority) != e.epoch {
		c.entries.drop(path)
		c.epochDrops++
		c.misses++
		return fs.Attr{}, false
	}
	if c.now() > e.expiry {
		c.entries.drop(path)
		c.misses++
		return fs.Attr{}, false
	}
	c.hits++
	return e.attr, true
}

// Put records a lease on path granted by authority at the given epoch,
// valid through expiry (inclusive), replacing any lease held on path.
func (c *LeaseCache) Put(path string, a fs.Attr, expiry time.Duration, authority int, epoch uint64) {
	*c.entries.put(path) = leaseEntry{attr: a, expiry: expiry, authority: authority, epoch: epoch}
}

// Revoke drops the lease on path in response to a server callback and
// reports whether a lease was actually held. A revocation racing a
// crash-time bulk invalidation (or an expiry) finds no entry and is a
// no-op — callbacks are idempotent, so either delivery order converges.
func (c *LeaseCache) Revoke(path string) bool {
	if !c.entries.drop(path) {
		return false
	}
	c.revoked++
	return true
}

// Invalidate removes one path without counting a revocation (local
// knowledge, e.g. the client itself unlinked the file).
func (c *LeaseCache) Invalidate(path string) { c.entries.drop(path) }

// Clear drops every entry and resets the statistics (§3.4.3 semantics,
// like AttrCache.Clear).
func (c *LeaseCache) Clear() {
	c.entries.reset()
	c.hits, c.misses, c.revoked, c.epochDrops = 0, 0, 0, 0
}

// Stats returns cumulative hits, misses, server revocations honoured,
// and leases dropped by epoch moves (crash-time bulk invalidation).
func (c *LeaseCache) Stats() (hits, misses, revoked, epochDrops int64) {
	return c.hits, c.misses, c.revoked, c.epochDrops
}

// Len returns the number of cached entries (live or lapsed).
func (c *LeaseCache) Len() int { return c.entries.len() }
