// Package clientcache provides the client-side metadata caches shared by
// the distributed file system models, in two consistency flavours:
//
//   - AttrCache and DentryCache are timeout caches: entries are trusted
//     for a fixed TTL after they were fetched, like the NFS client
//     attribute cache (acregmin/acregmax) and the Linux dcache with
//     d_revalidate (§2.1.2). Remote mutations are invisible until the
//     timeout lapses — cheap, but stale by design. NameCache
//     (namecache.go) is the unbounded pair in one map, one entry per
//     path.
//   - LeaseCache (lease.go) is the client half of an explicit coherence
//     protocol: entries are trusted until the server-granted lease
//     expires, the server revokes them with a callback, or the granting
//     authority's epoch moves on — the bulk invalidation applied when a
//     metadata server crashes and a backup takes over its slice
//     (internal/shard wires the server half; E22–E24 measure it).
//
// All caches but NameCache are optionally capacity-bounded (Cap): when
// full, insertion evicts strictly by expiry then insertion order — the
// oldest expired entry if one exists, else the oldest-inserted entry,
// never skewed by entry kind, so negative dentries cannot pin out
// positive ones.
package clientcache

import (
	"time"

	"dmetabench/internal/fs"
)

// slotState classifies one insertion-order slot during eviction.
type slotState int

const (
	// slotDead marks a slot whose entry was invalidated or re-inserted
	// since; it is compacted away.
	slotDead slotState = iota
	// slotLive marks a slot holding a fresh entry.
	slotLive
	// slotExpired marks a slot holding an entry past its TTL/lease.
	slotExpired
)

// slot is one insertion-order record; seq distinguishes a live entry
// from a stale record of an earlier incarnation of the same key.
type slot struct {
	key string
	seq uint64
}

// evictor tracks insertion order for the capacity-bounded caches.
type evictor struct {
	order []slot
	seq   uint64
}

// note records one insertion and returns its sequence number, which the
// cache stores on the entry so stale slots can be recognized.
func (v *evictor) note(key string) uint64 {
	v.seq++
	v.order = append(v.order, slot{key: key, seq: v.seq})
	return v.seq
}

// pick returns the key to evict — the oldest-inserted expired entry if
// any exists, else the oldest-inserted live entry — compacting dead
// slots as it scans. state classifies each candidate slot.
func (v *evictor) pick(state func(key string, seq uint64) slotState) (string, bool) {
	kept := v.order[:0]
	firstLive, firstExpired := -1, -1
	for _, s := range v.order {
		switch state(s.key, s.seq) {
		case slotDead:
			continue
		case slotExpired:
			if firstExpired < 0 {
				firstExpired = len(kept)
			}
		case slotLive:
			if firstLive < 0 {
				firstLive = len(kept)
			}
		}
		kept = append(kept, s)
	}
	v.order = kept
	switch {
	case firstExpired >= 0:
		return kept[firstExpired].key, true
	case firstLive >= 0:
		return kept[firstLive].key, true
	default:
		return "", false
	}
}

// maybeCompact drops dead slots once the order list has outgrown the
// capacity it serves. Churn below capacity (revocations, invalidations,
// re-inserts) leaves holes that pick would otherwise never visit,
// because pick only runs when the cache is full — without this the slot
// list grows by one entry per re-insert for the cache's lifetime.
func (v *evictor) maybeCompact(cap int, state func(key string, seq uint64) slotState) {
	if len(v.order) < 2*cap+16 {
		return
	}
	kept := v.order[:0]
	for _, s := range v.order {
		if state(s.key, s.seq) != slotDead {
			kept = append(kept, s)
		}
	}
	v.order = kept
}

// reset drops all insertion-order state.
func (v *evictor) reset() { v.order, v.seq = nil, 0 }

// AttrCache caches attributes by path with a fixed TTL, like the NFS
// client attribute cache (acregmin/acregmax).
type AttrCache struct {
	TTL time.Duration
	// Cap bounds the entry count (0 = unbounded). When full, Put evicts
	// by expiry then insertion order.
	Cap int

	now func() time.Duration

	entries map[string]attrEntry
	ev      evictor
	hits    int64
	misses  int64
}

type attrEntry struct {
	attr    fs.Attr
	fetched time.Duration
	seq     uint64
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

// slotState classifies one tracked slot for eviction at time now.
func (c *AttrCache) slotState(now time.Duration) func(key string, seq uint64) slotState {
	return func(key string, seq uint64) slotState {
		e, ok := c.entries[key]
		switch {
		case !ok || e.seq != seq:
			return slotDead
		case now-e.fetched > c.TTL:
			return slotExpired
		default:
			return slotLive
		}
	}
}

// Put stores attributes for path, evicting when at capacity.
func (c *AttrCache) Put(path string, a fs.Attr) {
	now := c.now()
	if e, ok := c.entries[path]; ok {
		e.attr, e.fetched = a, now
		c.entries[path] = e
		return
	}
	if c.Cap > 0 {
		state := c.slotState(now)
		if len(c.entries) >= c.Cap {
			if victim, ok := c.ev.pick(state); ok {
				delete(c.entries, victim)
			}
		}
		c.ev.maybeCompact(c.Cap, state)
	}
	var seq uint64
	if c.Cap > 0 {
		seq = c.ev.note(path)
	}
	c.entries[path] = attrEntry{attr: a, fetched: now, seq: seq}
}

// Invalidate removes one path.
func (c *AttrCache) Invalidate(path string) { delete(c.entries, path) }

// Clear drops every entry and resets the hit/miss statistics
// (drop_caches before a fresh measurement, §3.4.3: a cleared cache's
// counters must describe only the run that follows).
func (c *AttrCache) Clear() {
	c.entries = make(map[string]attrEntry)
	c.ev.reset()
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
	// Cap bounds the entry count (0 = unbounded). When full, insertion
	// evicts by expiry then insertion order regardless of entry kind:
	// an expired negative dentry goes before a fresh positive one, and
	// a fresh negative dentry is never privileged over an older
	// positive entry.
	Cap int

	now func() time.Duration

	entries map[string]dentry
	ev      evictor
}

type dentry struct {
	ino      fs.Ino
	negative bool
	fetched  time.Duration
	seq      uint64
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
	c.put(path, dentry{ino: ino})
}

// PutNegative records that path does not exist.
func (c *DentryCache) PutNegative(path string) {
	c.put(path, dentry{negative: true})
}

// slotState classifies one tracked slot for eviction at time now.
func (c *DentryCache) slotState(now time.Duration) func(key string, seq uint64) slotState {
	return func(key string, seq uint64) slotState {
		e, ok := c.entries[key]
		switch {
		case !ok || e.seq != seq:
			return slotDead
		case now-e.fetched > c.TTL:
			return slotExpired
		default:
			return slotLive
		}
	}
}

// put stores d for path with a fresh fetch time, evicting at capacity.
func (c *DentryCache) put(path string, d dentry) {
	now := c.now()
	d.fetched = now
	if e, ok := c.entries[path]; ok {
		d.seq = e.seq
		c.entries[path] = d
		return
	}
	if c.Cap > 0 {
		state := c.slotState(now)
		if len(c.entries) >= c.Cap {
			if victim, ok := c.ev.pick(state); ok {
				delete(c.entries, victim)
			}
		}
		c.ev.maybeCompact(c.Cap, state)
		d.seq = c.ev.note(path)
	}
	c.entries[path] = d
}

// Invalidate removes one path.
func (c *DentryCache) Invalidate(path string) { delete(c.entries, path) }

// Clear drops every entry.
func (c *DentryCache) Clear() {
	c.entries = make(map[string]dentry)
	c.ev.reset()
}

// Len returns the number of cached entries (fresh or stale).
func (c *DentryCache) Len() int { return len(c.entries) }
