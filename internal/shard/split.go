package shard

// Dynamic giant-directory splitting (GIGA+ direction, experiments
// E25–E27): under hash placement a directory's files all live on
// hash(parent) — one slice, one dirLock, one thread pool — so a single
// million-file directory serializes on one shard no matter how many
// shards exist (the §4.3.3 wall reappearing at MDS granularity; E08's
// workload defeats E16's scaling). When a directory's entry count
// crosses Config.SplitThreshold, its entries are incrementally
// re-partitioned across shards by hash-of-name over a doubling radix:
// split level L maps entry e of directory d to partition
// hash(name(e)) mod 2^L, and partition q to slice (hash(d)+q) mod N.
// Splitting stops once the partitions cover every shard (2^L >= N) —
// beyond that another doubling adds addressing without parallelism.
//
// A split step is one atomic state change plus paid traffic, the same
// discipline as replicate() and revokePath(): the entry moves, the
// journal records (both slices, for takeover/restart replay), the lease
// drops on every moved entry and on the directory itself, and the level
// bump all land at the triggering mutation's commit instant — a
// concurrent request sees the old or the new partition map, never half
// a migration — while the triggering server then pays the interconnect
// migration (one hop per source→destination pair, splitMovePerEntry per
// entry on each side) and the parallel revocation callbacks before its
// RPC returns. Destinations that are down receive the state change
// logically, the way recovery replay would deliver it.
//
// Clients cache a per-directory split bitmap (clientcache.SplitMap):
// the cached level routes a lookup in one RPC when fresh, and a stale
// or missing entry routes to the wrong shard and pays a bounce — a
// misrouted lookup plus redirect, after which the client's bitmap is
// refreshed. GIGA+'s property holds here: the bitmap is a routing hint,
// so staleness costs latency, never correctness. Under CacheLease the
// bitmap rides the directory's lease (revoked by the split itself,
// epoch-checked across failovers); under the TTL and uncached modes it
// lives for Config.SplitBitmapTTL. ReadDir and ReadDirPlus of a split
// directory fan out across the partition slices and merge (the listing
// fan-out, shard.go), with down peers skipped and surfaced in
// FS.PartialListings.

import (
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/fs"
	"dmetabench/internal/namespace"
	"dmetabench/internal/sim"
)

// dirSplit is the server-side split state of one directory.
type dirSplit struct {
	// level is the current split level: entries are partitioned by
	// hash(name) mod 2^level.
	level int
	// migrating guards against re-triggering while a split's paid phase
	// is still in flight (the state change already landed; the next
	// doubling waits for the traffic to drain).
	migrating bool
}

// SplitEvent records one completed split step (the experiments' view).
type SplitEvent struct {
	// Dir is the split directory and Level its level after the step.
	Dir   string
	Level int
	// Moved is the number of entries migrated by the step.
	Moved int
	// At is the virtual time of the atomic state change.
	At time.Duration
}

// splitActive reports whether dynamic directory splitting is in effect:
// it needs a threshold, hash placement (subtree placement pins whole
// subtrees by design) and somewhere to spread to.
func (f *FS) splitActive() bool {
	return f.cfg.SplitThreshold > 0 && f.cfg.Placement == PlaceHashDir && len(f.shards) > 1
}

// splitLevel returns dir's current split level (0 = unsplit). The
// len check keeps the unsplit hot path at one branch.
func (f *FS) splitLevel(dir string) int {
	if len(f.splitDirs) == 0 {
		return 0
	}
	if ds, ok := f.splitDirs[dir]; ok {
		return ds.level
	}
	return 0
}

// SplitLevel exposes a directory's split level (tests, experiments).
func (f *FS) SplitLevel(dir string) int { return f.splitLevel(dir) }

// dropSplit forgets dir's split state (rmdir: the state dies with the
// directory incarnation; a recreated directory starts unsplit).
func (f *FS) dropSplit(dir string) {
	if len(f.splitDirs) != 0 {
		delete(f.splitDirs, dir)
	}
}

// baseName returns the final component of an already-clean path.
func baseName(p string) string {
	i := len(p) - 1
	for i >= 0 && p[i] != '/' {
		i--
	}
	return p[i+1:]
}

// partitionOf returns name's partition index at the given split level.
func partitionOf(name string, level int) uint32 {
	if level == 0 {
		return 0
	}
	return hashString(name) & (uint32(1)<<level - 1)
}

// sliceAt maps partition q of a directory with hash h to its slice.
func (f *FS) sliceAt(h, q uint32) int {
	return int((h + q) % uint32(len(f.shards)))
}

// splitSlices returns the distinct slices holding dir's partitions,
// home (partition 0) first. Partitions map to consecutive slices, so
// the first min(2^level, N) of them are exactly the distinct set.
func (f *FS) splitSlices(dir string) []int {
	h := hashString(dir)
	n := 1 << f.splitLevel(dir)
	if n > len(f.shards) {
		n = len(f.shards)
	}
	out := make([]int, n)
	for q := range out {
		out[q] = f.sliceAt(h, uint32(q))
	}
	return out
}

// maybeSplit triggers a split step when a successful entry insertion
// (a create or a rename's destination) left dir holding
// children entries on the serving slice — the per-partition load, since
// each slice's directory replica holds exactly its partitions' files
// (plus the replicated subdirectories). mutator is the inserting
// client's node, exempted from revocation callbacks like any mutation.
func (f *FS) maybeSplit(sp *sim.Proc, dir string, children int, mutator *nodeState) {
	if children <= f.cfg.SplitThreshold || !f.splitActive() {
		return
	}
	ds, ok := f.splitDirs[dir]
	if ok && (ds.migrating || 1<<ds.level >= len(f.shards)) {
		return
	}
	if !ok {
		ds = &dirSplit{}
		f.splitDirs[dir] = ds
	}
	f.split(sp, dir, ds, mutator)
}

// splitBatch is the migration traffic of one source→destination pair.
type splitBatch struct {
	src, dst int
	moved    int
}

// split advances dir one doubling step: level L → L+1. Entries whose
// name hash sets bit L move from partition q to partition q+2^L — from
// slice (h+q) mod N to slice (h+q+2^L) mod N. See the package comment
// at the top of this file for the atomicity discipline.
func (f *FS) split(sp *sim.Proc, dir string, ds *dirSplit, mutator *nodeState) {
	ds.migrating = true
	batches, victims := f.splitApply(dir, ds, mutator, sp.Now())
	f.splitPay(sp, batches, victims)
	ds.migrating = false
}

// splitApply is phase 1 — atomic at now: move the entries, journal both
// sides, drop the moved entries' leases and the directory's own (the
// callback carries the stale bitmap away with the stale attributes),
// bump the level. No virtual time passes in here.
func (f *FS) splitApply(dir string, ds *dirSplit, mutator *nodeState, now time.Duration) ([]splitBatch, []*nodeState) {
	oldLevel := ds.level
	oldParts := 1 << oldLevel
	h := hashString(dir)
	mask := uint32(oldParts - 1)
	bit := uint32(oldParts)
	var batches []splitBatch
	var victims []*nodeState
	moved := 0
	for q := 0; q < oldParts; q++ {
		src := f.sliceAt(h, uint32(q))
		dst := f.sliceAt(h, uint32(q)+bit)
		if src == dst {
			continue // the new partition co-locates: an addressing change only
		}
		srcState, dstState := f.shards[src], f.shards[dst]
		ents, err := srcState.ns.ReadDir(dir, now)
		if err != nil {
			continue
		}
		b := splitBatch{src: src, dst: dst}
		for _, e := range ents {
			nh := hashString(e.Name)
			if nh&mask != uint32(q) || nh&bit == 0 {
				continue // stays in partition q
			}
			path := childPath(dir, e.Name)
			if e.Type == fs.TypeDirectory {
				// Directory entries are replicated, not partitioned: the
				// namespace needs no move, but the entry's owner slice —
				// where its leases are keyed — still changes with the
				// level, so the old slice's grants must die or later
				// mutations would miss them and leak stale hits.
				victims = append(victims, f.splitRevoke(src, path, mutator)...)
				continue
			}
			if !f.moveEntry(src, dst, path, e, now) {
				continue
			}
			srcState.journalAppend(f.cfg.JournalCap)
			dstState.journalAppend(f.cfg.JournalCap)
			victims = append(victims, f.splitRevoke(src, path, mutator)...)
			b.moved++
		}
		if b.moved > 0 {
			batches = append(batches, b)
			moved += b.moved
		}
	}
	// The directory's read leases die with the old bitmap: holders are
	// told immediately (and their cached split level drops with the
	// callback); clients without a lease keep routing on whatever they
	// cached until it expires, and pay bounces (E27).
	victims = append(victims, f.splitRevoke(f.ownerSlice(dir), dir, mutator)...)
	ds.level = oldLevel + 1
	f.SplitMoved += int64(moved)
	f.Splits = append(f.Splits, SplitEvent{Dir: dir, Level: ds.level, Moved: moved, At: now})
	return batches, victims
}

// splitPay is phase 2 — paid: the triggering server coordinates. Per
// pair the source slice's server pays the read-and-pack cost and
// delivers the batch (unpack, insert, journal log) to the destination
// slice by the visit rule: one interconnect hop, or local work when a
// failover co-located both slices on one server. Per revoked lease it
// pays one callback round trip, fanned out in parallel like revokePath.
// Down destinations got the state logically and recovery replay prices
// their catch-up.
func (f *FS) splitPay(sp *sim.Proc, batches []splitBatch, victims []*nodeState) {
	for _, b := range batches {
		cost := time.Duration(b.moved) * splitMovePerEntry
		logBytes := int64(b.moved) * metaLogBytes
		srcSrv := f.srvFor(b.src)
		// The destination side is a bulk ingest into the backend: the
		// backend's move factor scales it (cheap append on an LSM store,
		// random inserts on a B-tree), computed from the unscaled cost so
		// the default backend stays byte-identical.
		dstCost := cost
		if mf := f.srvFor(b.dst).be.moveFactor(); mf != 1 {
			dstCost = time.Duration(float64(cost) * mf)
		}
		f.chargeOp(sp, srcSrv, cost, -1, scanInfo())
		f.visit(sp, srcSrv, b.dst, func(q *sim.Proc, dst *shardSrv) {
			f.charge(q, dst, dstCost, -1)
			dst.be.log(q, logBytes)
		})
	}
	if len(victims) > 0 {
		addI64(&f.Revocations, int64(len(victims)))
		sp.Fanout("splitrevoke", len(victims), func(q *sim.Proc, i int) { f.cbCost(q, victims[i]) })
	}
}

// entryID is the cluster-wide identity of one directory entry: slices
// number their inodes independently, so an ino is only meaningful
// together with its slice.
type entryID struct {
	slice int
	ino   fs.Ino
}

// moveEntry re-homes one file from slice src to slice dst, preserving
// mode and size, and records the identity move in FS.moved so open
// handles can chase it. It reports whether the entry actually moved (a
// lost race leaves both sides untouched). Like the cross-shard rename
// migrate, the move re-creates the file as a fresh inode.
func (f *FS) moveEntry(src, dst int, path string, e fs.DirEntry, now time.Duration) bool {
	srcNS, dstNS := f.shards[src].ns, f.shards[dst].ns
	node := srcNS.Get(e.Ino)
	if node == nil {
		return false
	}
	ni, err := dstNS.Create(path, node.Mode, now)
	if err != nil {
		return false
	}
	if node.Size > 0 {
		dstNS.SetSize(ni.Ino, node.Size, now)
	}
	srcNS.Unlink(path, now)
	f.moved[entryID{src, e.Ino}] = entryID{dst, ni.Ino}
	return true
}

// chaseMoves follows an entry identity through every migration it has
// been through since the caller recorded it.
func (f *FS) chaseMoves(id entryID) entryID {
	for {
		next, ok := f.moved[id]
		if !ok {
			return id
		}
		id = next
	}
}

// splitRevoke drops every live read lease on path from slice's table at
// the commit instant and returns the holders owed a callback delivery.
// The mutator — the client whose insertion triggered the split — is
// invalidated silently like in revokePath: its refresh rides its own
// reply. Unlike revokePath it never sleeps — split applies all its
// revocations atomically and pays the deliveries in one parallel
// fan-out after.
func (f *FS) splitRevoke(slice int, path string, mutator *nodeState) []*nodeState {
	t := f.leases[slice]
	grants := t.read[path]
	if len(grants) == 0 {
		return nil
	}
	now := f.k.Now()
	var out []*nodeState
	for _, g := range grants {
		if g.st == mutator {
			g.st.names.InvalidateLease(path)
			if g.st.splits != nil {
				g.st.splits.Invalidate(path)
			}
			continue
		}
		if g.expiry < now {
			continue
		}
		g.st.names.Revoke(path)
		if g.st.splits != nil {
			g.st.splits.Invalidate(path)
		}
		out = append(out, g.st)
	}
	delete(t.read, path)
	t.recycle(grants) // out is a copy
	return out
}

// routeEntry models the client's split-bitmap routing for the entry at
// p before the real RPC goes out: when the cached (possibly stale or
// missing) bitmap names a different slice than the authoritative
// routing, the client pays a bounce — a misrouted lookup at the guessed
// shard plus its redirect — and refreshes its bitmap either way. When
// nothing is split anywhere this is one map-length branch.
func (c *client) routeEntry(p string) {
	f := c.fsys
	if f.cfg.Placement != PlaceHashDir || len(f.shards) == 1 {
		return
	}
	st := c.st()
	if len(f.splitDirs) == 0 && (st.splits == nil || st.splits.Len() == 0) {
		return // nothing split anywhere: the fast path
	}
	dir := fs.ParentDir(p)
	h := hashString(dir)
	authLevel := f.splitLevel(dir)
	auth := f.sliceAt(h, partitionOf(baseName(p), authLevel))
	var cached int
	if st.splits != nil {
		cached, _ = st.splits.Get(dir)
	}
	if guess := f.sliceAt(h, partitionOf(baseName(p), cached)); guess != auth {
		// Misrouted: the shard the stale bitmap named pays a lookup,
		// finds the name outside its partitions, and redirects. Best
		// effort against a down server — the real operation's retry
		// engine owns failure handling.
		f.Bounces++
		srv := f.srvFor(guess)
		srv.conn.TryCall(c.p, 120, 90, func(sp *sim.Proc) {
			f.serviceOp(sp, srv, lookupService, -1, opInfo{cls: opRead, dirSize: -1})
		})
	}
	c.learnSplit(dir, authLevel)
}

// learnSplit refreshes the client's bitmap entry for dir after contact
// with a server that knows dir's current level. Under CacheLease the
// entry lives for the lease TTL and is epoch-checked like any lease;
// under the TTL and uncached modes it lives for SplitBitmapTTL.
func (c *client) learnSplit(dir string, level int) {
	st := c.st()
	if level <= 0 {
		if st.splits != nil {
			st.splits.Invalidate(dir)
		}
		return
	}
	f := c.fsys
	if st.splits == nil {
		st.splits = clientcache.NewSplitMap(st.names)
	}
	ttl := f.cfg.SplitBitmapTTL
	if f.cfg.CacheMode == CacheLease {
		ttl = f.cfg.LeaseTTL
	}
	home := int(hashString(dir) % uint32(len(f.shards)))
	st.splits.Put(dir, level, c.p.Now()+ttl, home, f.epochs[home])
}

// SplitBitmapStats sums the client split-bitmap counters across every
// node that touched the file system: routing served from a fresh bitmap
// (hits), routes taken blind (misses) and bitmaps dropped by epoch
// moves. Bounces are counted separately on FS.Bounces — a miss that
// happens to guess the right slice costs nothing.
func (f *FS) SplitBitmapStats() (hits, misses, epochDrops int64) {
	for _, st := range f.nodes {
		if st.splits != nil {
			h, m, e := st.splits.Stats()
			hits, misses, epochDrops = hits+h, misses+m, epochDrops+e
		}
	}
	return hits, misses, epochDrops
}

// filesOf filters list in place down to its non-directory entries: a
// split directory's peer slices hold replicas of its subdirectories,
// which the home partition already listed.
func filesOf(list []fs.DirEntry) []fs.DirEntry {
	out := list[:0]
	for _, e := range list {
		if e.Type != fs.TypeDirectory {
			out = append(out, e)
		}
	}
	return out
}

// hasFileEntries reports whether dir's replica in ns still holds any
// non-directory entry — the split-aware rmdir emptiness check, run
// against every partition slice before the removal commits.
func hasFileEntries(n *namespace.Namespace, dir string, now time.Duration) bool {
	ents, err := n.ReadDir(dir, now)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if e.Type != fs.TypeDirectory {
			return true
		}
	}
	return false
}
