package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// The lease half of NameCache is the client half of a lease-based
// metadata coherence protocol (the AFS/Lustre callback direction the
// thesis contrasts with NFS attribute timeouts in §2.1.2/§4.7.3, scaled
// out the way MetaFlow and HopsFS cache under explicit invalidation). A
// lease is trusted until one of three things ends it:
//
//  1. expiry — the server granted the lease for a bounded TTL and the
//     clock ran out;
//  2. revocation — the server delivered a callback because another
//     client mutated the path (Revoke);
//  3. an epoch move — the granting authority (a metadata-server slice
//     in internal/shard) crashed or failed over, and the client drops
//     every lease that authority granted in one step, without
//     per-entry traffic (the cache's epochOf check).
//
// Epoch checking is optional: with a nil epochOf the cache trusts
// leases across failovers, which is exactly the stale-read window
// experiment E24 measures.

// term is how long a server grant holds: through expiry (inclusive),
// unless its granting authority's epoch moves on first. Leases and
// split levels (SplitMap) both end by it.
type term struct {
	expiry    time.Duration
	authority int
	epoch     uint64
}

// leaseHalf is one path's leased attributes and the lease's term.
type leaseHalf struct {
	attr fs.Attr
	term
}

// ended reports whether t no longer holds and, if so, whether its
// authority's epoch moved on, which is checked before the expiry.
func (c *NameCache) ended(t term) (ended, epochMoved bool) {
	if c.epochOf != nil && c.epochOf(t.authority) != t.epoch {
		return true, true
	}
	return c.now() > t.expiry, false
}

// Lease returns path's leased attributes while the lease holds. A lease
// whose authority's epoch moved on is dropped (counted as an epoch
// drop); one past its expiry is dropped silently. Both count as misses,
// and neither touches the path's other halves.
func (c *NameCache) Lease(path string) (fs.Attr, bool) {
	if i, e := c.entries.lookup(path); e != nil && e.hasLease {
		p, off := pageOf(i)
		l := &c.leasePages[p][off]
		ended, moved := c.ended(l.term)
		if !ended {
			c.hits++
			return l.attr, true
		}
		if moved {
			c.epochDrops++
		}
		c.dropLease(path, e)
	}
	c.misses++
	return fs.Attr{}, false
}

// PutLease records a lease on path granted by authority at the given
// epoch, valid through expiry (inclusive), replacing any lease held on
// path and leaving its other halves as they are.
func (c *NameCache) PutLease(path string, a fs.Attr, expiry time.Duration, authority int, epoch uint64) {
	i, e := c.entries.put(path)
	if !e.hasLease {
		e.hasLease = true
		c.leases++
	}
	*halfAt(&c.leasePages, i) = leaseHalf{attr: a, term: term{expiry: expiry, authority: authority, epoch: epoch}}
}

// Revoke drops path's lease and dentry in response to a server callback
// and reports whether a lease was actually held; only then does it
// count a revocation. A revocation racing a crash-time bulk
// invalidation (or an expiry) finds no lease and drops only the dentry
// — callbacks are idempotent, so either delivery order converges.
func (c *NameCache) Revoke(path string) bool {
	e := c.entries.get(path)
	if e == nil {
		return false
	}
	held := e.hasLease
	if held {
		c.revoked++
		e.hasLease = false
		c.leases--
	}
	if e.hasDentry {
		e.hasDentry = false
		c.dentries--
	}
	c.release(path, e)
	return held
}

// InvalidateLease drops path's lease without counting a revocation and
// keeps its other halves (local knowledge: the client's own mutation
// will refill it).
func (c *NameCache) InvalidateLease(path string) {
	if e := c.entries.get(path); e != nil && e.hasLease {
		c.dropLease(path, e)
	}
}

// dropLease drops e's lease half, e being path's entry.
func (c *NameCache) dropLease(path string, e *nameEntry) {
	e.hasLease = false
	c.leases--
	c.release(path, e)
}
