package clientcache

import "time"

// SplitMap is the client half of dynamic directory partitioning
// (internal/shard split.go, the GIGA+ direction): for every giant
// directory the server has split, the client caches the directory's
// split level — the doubling radix that maps an entry's name hash to
// the partition (and so the shard) holding it. A fresh entry routes a
// lookup in one RPC; a stale or missing one makes the client route to
// the wrong shard and pay a bounce, after which the server's redirect
// refreshes the entry. GIGA+'s insight is that this staleness is safe:
// the bitmap is a routing hint, never an attribute cache, so it can lag
// arbitrarily without serving wrong data — only wrong addresses.
//
// Entries follow the same three invalidation paths as leases
// (lease.go), and end by the same rule: expiry (the bitmap TTL or the
// lease TTL, depending on the cache mode), revocation (a split revokes
// the directory's read leases, and the callback drops the holder's
// bitmap entry with them), and an epoch move of the granting authority
// (a crash takeover of the directory's home slice discards every bitmap
// it vouched for).
type SplitMap struct {
	// names is the node's name cache, whose lease rule ends each entry.
	names   *NameCache
	entries map[string]splitEnt

	hits, misses, epochDrops int64
}

type splitEnt struct {
	level int
	term
}

// NewSplitMap returns a split-bitmap cache that ends its entries by the
// lease rule of names: names' clock, and names' epoch function, where a
// nil one disables epoch checks (bitmaps survive failovers until they
// expire — still safe, just more bounces). The map keeps an index of
// its own, because a split level outlives its directory's dentry and
// lease in names.
func NewSplitMap(names *NameCache) *SplitMap {
	return &SplitMap{names: names, entries: make(map[string]splitEnt)}
}

// Get returns the cached split level of dir while its entry holds. An
// entry whose authority's epoch moved on is dropped (counted as an
// epoch drop); one past its expiry is dropped silently. Both count as
// misses, after which the caller routes as if the directory were
// unsplit and learns the real level from the bounce.
func (m *SplitMap) Get(dir string) (int, bool) {
	if e, ok := m.entries[dir]; ok {
		ended, moved := m.names.ended(e.term)
		if !ended {
			m.hits++
			return e.level, true
		}
		if moved {
			m.epochDrops++
		}
		delete(m.entries, dir)
	}
	m.misses++
	return 0, false
}

// Put records dir's split level as learned from authority at the given
// epoch, valid through expiry (inclusive).
func (m *SplitMap) Put(dir string, level int, expiry time.Duration, authority int, epoch uint64) {
	m.entries[dir] = splitEnt{level: level, term: term{expiry: expiry, authority: authority, epoch: epoch}}
}

// Invalidate removes one directory's entry (a revocation callback on
// the directory, or local knowledge that the directory is gone).
func (m *SplitMap) Invalidate(dir string) { delete(m.entries, dir) }

// Clear drops every entry and resets the statistics (§3.4.3 semantics,
// like NameCache.Clear).
func (m *SplitMap) Clear() {
	m.entries = make(map[string]splitEnt)
	m.hits, m.misses, m.epochDrops = 0, 0, 0
}

// Stats returns cumulative hits, misses, and entries dropped by epoch
// moves (crash-time bulk invalidation).
func (m *SplitMap) Stats() (hits, misses, epochDrops int64) {
	return m.hits, m.misses, m.epochDrops
}

// Len returns the number of cached entries (fresh or lapsed).
func (m *SplitMap) Len() int { return len(m.entries) }
