package shard

// Client cache coherence for the sharded MDS: server-granted read
// leases, write-back directory delegations and revocation callbacks.
//
// The thesis contrasts two client-caching disciplines: NFS attribute
// timeouts (cheap, stale by design, §2.1.2) and AFS/Lustre-style
// callback coherence (§4.7.3). The sharded model supports both plus an
// uncached baseline, selected by Config.CacheMode:
//
//   - grant: a GETATTR/LOOKUP (or a readdirplus batch) returns the
//     attributes under a lease valid for Config.LeaseTTL; the serving
//     shard records the holder per slice.
//   - revoke: a conflicting mutation delivers one synchronous callback
//     per holder over a server→client simnet connection before the
//     mutating RPC returns, so a coherent cache hit is never stale.
//   - delegate: the sole writer of a directory holds a write delegation;
//     its own mutations write its cached directory attributes back in
//     place instead of triggering callbacks, and a second writer (or a
//     reader leasing the directory) forces a recall first.
//   - epoch: every slice carries a lease epoch. A crash takeover or a
//     failback bumps it and discards the slice's server-side lease
//     state; with Config.CrashInvalidate clients verify epochs on every
//     cache hit, so one bump bulk-invalidates every lease the slice
//     ever granted — the difference between a bounded and an
//     O(LeaseTTL) stale-read window after failover (E24).
//
// Lease bookkeeping is global state keyed by the owner slice of each
// path; only the callbacks themselves cost simulated time. Negative
// dentries stay on DentryCache TTL semantics in every mode.

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"dmetabench/internal/clientcache"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
	"dmetabench/internal/simnet"
)

// CacheMode selects the client attribute-cache consistency model.
type CacheMode int

// Cache modes. CacheTTL is the zero value so existing configurations
// keep the NFS-style behaviour they had before leases existed.
const (
	// CacheTTL trusts cached attributes for Config.AttrTTL after fetch
	// (NFS acregmin/acregmax): remote mutations are invisible until the
	// timeout lapses.
	CacheTTL CacheMode = iota
	// CacheNone disables client attribute caching: every Stat is an RPC.
	CacheNone
	// CacheLease grants per-path read leases with revocation callbacks
	// and write-back directory delegations: cache hits are coherent.
	CacheLease
)

func (m CacheMode) String() string {
	switch m {
	case CacheNone:
		return "nocache"
	case CacheLease:
		return "lease"
	default:
		return "ttl"
	}
}

// leaseGrant records one node holding a read lease on a path.
type leaseGrant struct {
	st     *nodeState
	expiry time.Duration
}

// sliceLeases is the server-side coherence state of one namespace
// slice: read-lease holders per path (grant order, so revocation
// callbacks replay deterministically) and the write-delegation holder
// per directory. The whole struct is discarded on crash takeover and on
// failback — a promoted backup knows nothing about the leases its dead
// partner granted.
type sliceLeases struct {
	read  map[string][]leaseGrant
	deleg map[string]*nodeState
}

func newSliceLeases() *sliceLeases {
	return &sliceLeases{
		read:  make(map[string][]leaseGrant),
		deleg: make(map[string]*nodeState),
	}
}

// Epoch returns slice i's current lease epoch (bumped on takeover and
// failback).
func (f *FS) Epoch(i int) uint64 { return f.epochs[i] }

// invalidateSliceLeases models the lease state lost with a serving
// change of slice i: the server-side tables are discarded and the
// slice's epoch moves on, which (with CrashInvalidate) kills every
// outstanding client lease the slice granted.
func (f *FS) invalidateSliceLeases(i int) {
	f.epochs[i]++
	f.leases[i] = newSliceLeases()
}

// cbServer lazily creates the node's callback endpoint — the client-side
// service that receives lease revocations and delegation recalls, with
// its own thread pool so callbacks can never deadlock against the MDS
// pools — and the server→client connection used to reach it.
func (f *FS) cbServer(st *nodeState, n *cluster.Node) {
	if st.cb != nil {
		return
	}
	st.cb = simnet.NewServer(f.k, "cb:node"+strconv.Itoa(n.Index), 1)
	st.cbConn = simnet.NewConn(f.k, st.cb, f.cfg.OneWayLatency, 0)
}

// callback delivers one coherence message (revocation or recall) for
// path to the node behind st. The cached state drops at the instant the
// server commits the conflicting change — the callback is on the wire
// before the mutation's reply — while the server still pays the full
// server→client round trip plus the client-side handler before its RPC
// returns: the same atomic-apply + paid-cost discipline as
// FS.replicate, so a coherent cache can never serve a hit newer
// mutations already invalidated.
func (f *FS) callback(p *sim.Proc, st *nodeState, path string) {
	if !f.domained() {
		st.leases.Revoke(path)
		st.dentries.Invalidate(path)
	}
	f.cbDeliver(p, st, func() {
		st.leases.Revoke(path)
		st.dentries.Invalidate(path)
	})
}

// cbCost charges one callback's delivery: the server→client round trip
// plus the client-side handler, serialized on the node's callback
// channel.
func (f *FS) cbCost(p *sim.Proc, st *nodeState) { f.cbDeliver(p, st, nil) }

// cbDeliver pays one callback round trip. Under kernel domains the
// client-side invalidation rides the callback and applies in the
// client's domain at delivery — a server body must not reach into
// another domain's cache, so the drop lands when the message does
// (instead of at the commit instant, the single-kernel idealization).
// Undomained, the caller already applied it and inval is ignored.
func (f *FS) cbDeliver(p *sim.Proc, st *nodeState, inval func()) {
	svc := f.cfg.CallbackService
	apply := inval
	if !f.domained() {
		apply = nil
	}
	st.cbConn.Call(p, 90, 60, func(q *sim.Proc) {
		if apply != nil {
			apply()
		}
		q.Sleep(svc)
	})
}

// grant issues (or refreshes) a read lease on path to the node behind
// st and fills its lease cache: the server records the holder on the
// path's owner slice, the client trusts the attributes until expiry,
// revocation or an epoch move. Granting a lease on a directory another
// node holds a write delegation for recalls the delegation first — the
// writer loses its private write-back state the moment a second party
// starts caching the directory.
// Each lease table belongs to the domain serving its slice, so both
// halves route there (withLeaseSlice): cross-server lease management
// pays an interconnect message, the way a distributed lock manager's
// does. The client-side lease fill rides the RPC reply (simnet.Defer).
func (f *FS) grant(p *sim.Proc, st *nodeState, path string, a fs.Attr) {
	if a.Type == fs.TypeDirectory && f.cfg.Delegations {
		if cs := f.contentSlice(path); cs >= 0 {
			f.withLeaseSlice(p, cs, func(q *sim.Proc) {
				if holder, ok := f.leases[cs].deleg[path]; ok && holder != st {
					addI64(&f.DelegationRecalls, 1)
					f.callback(q, holder, path)
					delete(f.leases[cs].deleg, path)
				}
			})
		}
	}
	slice := f.ownerSlice(path)
	f.withLeaseSlice(p, slice, func(q *sim.Proc) {
		f.grantAt(q, st, path, a, slice)
	})
}

// grantAt records the grant in slice's table; the caller must already
// execute in the slice's owning domain.
func (f *FS) grantAt(q *sim.Proc, st *nodeState, path string, a fs.Attr, slice int) {
	t := f.leases[slice]
	exp := q.Now() + f.cfg.LeaseTTL
	grants := t.read[path]
	found := false
	for i := range grants {
		if grants[i].st == st {
			grants[i].expiry = exp
			found = true
			break
		}
	}
	if !found {
		t.read[path] = append(grants, leaseGrant{st: st, expiry: exp})
	}
	addI64(&f.LeaseGrants, 1)
	simnet.Defer(q, clientcache.LeaseFill(st.leases, path, a, exp, slice, f.epochs[slice]))
}

// revokePath drops every read lease on path: one callback per holder
// other than the mutator, whose own node entry is invalidated silently
// (its refresh rides the mutation reply). Expired grants are dropped
// without traffic.
func (f *FS) revokePath(p *sim.Proc, mutator *nodeState, path string) {
	t := f.leases[f.ownerSlice(path)]
	grants := t.read[path]
	if len(grants) == 0 {
		return
	}
	now := p.Now()
	// Every holder is invalidated at the commit instant; the delivery
	// costs are paid afterwards, fanned out in parallel — the server
	// issues all callbacks at once and waits for every ack, so a wide
	// revocation costs one round trip plus callback-channel queueing,
	// not one round trip per holder. Under kernel domains the victims'
	// drops ride the callbacks instead (cbDeliver) and the mutator's
	// silent invalidation rides its own RPC reply — a server body never
	// reaches into a client domain's cache.
	dom := f.domained()
	victims := grants[:0]
	for _, g := range grants {
		switch {
		case g.st == mutator:
			simnet.Defer(p, clientcache.LeaseDropFill(g.st.leases, path))
		case g.expiry < now:
		default:
			if !dom {
				g.st.leases.Revoke(path)
				g.st.dentries.Invalidate(path)
			}
			victims = append(victims, g)
		}
	}
	delete(t.read, path)
	if len(victims) == 0 {
		return
	}
	procs := make([]*sim.Proc, 0, len(victims))
	for _, g := range victims {
		addI64(&f.Revocations, 1)
		st := g.st
		procs = append(procs, p.Spawn("revoke", func(q *sim.Proc) {
			f.cbDeliver(q, st, func() {
				st.leases.Revoke(path)
				st.dentries.Invalidate(path)
			})
		}))
	}
	for _, q := range procs {
		p.Join(q)
	}
}

// dropDelegation forgets any write delegation on dir; Rmdir and
// directory Rename run it — the delegation dies with the directory
// incarnation it covered (the holder's cached entry is revoked
// alongside). Without this, a recreated directory would inherit a stale
// holder: spurious recalls for everyone else, and a silently skipped
// first-write revocation for the old holder. Creation-type mutations
// must not run it: a delegation granted while a fresh mkdir is still
// paying its broadcast costs is already legitimate.
func (f *FS) dropDelegation(p *sim.Proc, dir string) {
	if !f.cfg.Delegations {
		return
	}
	if cs := f.contentSlice(dir); cs >= 0 {
		f.withLeaseSlice(p, cs, func(q *sim.Proc) {
			delete(f.leases[cs].deleg, dir)
		})
	}
}

// revokeSubtree revokes every lease on strict descendants of dir held
// in slice's table — a directory rename moved the whole incarnation, so
// leases keyed by the old paths now describe names that no longer
// exist. Keys are collected and sorted so the callbacks replay in
// deterministic order; directory renames are rare (subtree placement
// only), so the table scan is off the hot path.
func (f *FS) revokeSubtree(p *sim.Proc, mutator *nodeState, dir string, slice int) {
	t := f.leases[slice]
	prefix := dir + "/"
	var paths []string
	for path := range t.read {
		if strings.HasPrefix(path, prefix) {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	for _, path := range paths {
		f.revokePath(p, mutator, path)
	}
	// Delegations on moved subdirectories die with their old names too.
	for path := range t.deleg {
		if strings.HasPrefix(path, prefix) {
			delete(t.deleg, path)
		}
	}
}

// dirCovered runs the write-delegation protocol for a mutation under
// dir by the node behind mutator, and reports whether the directory's
// attribute coherence is covered by the mutator's delegation (in which
// case the caller skips the dir-lease revocation: the sole writer
// maintains its own cached dir attributes by write-back).
func (f *FS) dirCovered(p *sim.Proc, mutator *nodeState, dir string) bool {
	if !f.cfg.Delegations {
		return false
	}
	slice := f.contentSlice(dir)
	if slice < 0 {
		return false
	}
	t := f.leases[slice]
	holder, ok := t.deleg[dir]
	switch {
	case !ok:
		t.deleg[dir] = mutator
		addI64(&f.DelegationGrants, 1)
		return false // first write under the delegation still revokes readers
	case holder == mutator:
		return true
	default:
		// A second writer: recall the delegation, then hand it over.
		addI64(&f.DelegationRecalls, 1)
		f.callback(p, holder, dir)
		t.deleg[dir] = mutator
		return false
	}
}

// revokeOnMutate is the coherence hook every successful mutation of
// path runs before its RPC returns: read leases on the path die, and so
// do leases on the parent directory (its mtime/size changed) unless the
// mutator's write delegation covers it. withParent is false for content
// mutations (Write) that leave the parent untouched.
// Each lease-table touch routes to the domain owning its slice
// (withLeaseSlice): the path's own leases live on the executing slice
// (free), but the parent directory's delegation and leases are keyed by
// other slices — under a split, even the delegation's content slice —
// and reaching them across domains costs a hop.
func (f *FS) revokeOnMutate(p *sim.Proc, mutator *nodeState, path string, withParent bool) {
	if f.cfg.CacheMode != CacheLease {
		return
	}
	f.withLeaseSlice(p, f.ownerSlice(path), func(q *sim.Proc) {
		f.revokePath(q, mutator, path)
	})
	if !withParent {
		return
	}
	dir := fs.ParentDir(path)
	if dir == "." || dir == path {
		return
	}
	covered := false
	if cs := f.contentSlice(dir); f.cfg.Delegations && cs >= 0 {
		f.withLeaseSlice(p, cs, func(q *sim.Proc) {
			covered = f.dirCovered(q, mutator, dir)
		})
	}
	if covered {
		return
	}
	f.withLeaseSlice(p, f.ownerSlice(dir), func(q *sim.Proc) {
		f.revokePath(q, mutator, dir)
	})
}

// noteStale is the staleness instrument of E22–E24: with
// Config.TrackStaleness a cache hit is compared (bookkeeping only,
// no simulated cost) against the authoritative slice state, and a
// mismatch is counted with its virtual time.
func (f *FS) noteStale(p *sim.Proc, path string, a fs.Attr) {
	if !f.cfg.TrackStaleness || f.domained() {
		// The comparison needs a free global-snapshot read of another
		// domain's namespace, which a partitioned simulation does not
		// have: the instrument is single-kernel-only.
		return
	}
	auth, err := f.shards[f.ownerSlice(path)].ns.Stat(path)
	if err != nil || auth.Ino != a.Ino || auth.Size != a.Size ||
		auth.Mtime != a.Mtime || auth.Ctime != a.Ctime || auth.Nlink != a.Nlink {
		f.StaleReads++
		f.LastStaleAt = p.Now()
	}
}

// CacheStats sums the client attribute-cache counters across every node
// that touched the file system: hits, misses, leases dropped by server
// revocation, and leases dropped by epoch moves (crash-time bulk
// invalidation). The TTL and uncached modes report zero for the last
// two.
func (f *FS) CacheStats() (hits, misses, revoked, epochDrops int64) {
	for _, st := range f.nodes {
		if st.leases != nil {
			h, m, r, e := st.leases.Stats()
			hits, misses, revoked, epochDrops = hits+h, misses+m, revoked+r, epochDrops+e
		}
		if st.attrs != nil {
			h, m := st.attrs.Stats()
			hits, misses = hits+h, misses+m
		}
	}
	return hits, misses, revoked, epochDrops
}

// cachedAttr serves path from the node's attribute cache under the
// configured mode; hits are checked against the authoritative state
// when staleness tracking is on.
func (c *client) cachedAttr(p string) (fs.Attr, bool) {
	st := c.st()
	var a fs.Attr
	var ok bool
	switch c.cfg().CacheMode {
	case CacheNone:
		return fs.Attr{}, false
	case CacheLease:
		a, ok = st.leases.Get(p)
	default:
		a, ok = st.attrs.Get(p)
	}
	if ok {
		c.fsys.noteStale(c.p, p, a)
	}
	return a, ok
}

// fillEntry caches the attributes of p on the client under the
// configured mode — a plain TTL put, or a server-recorded lease grant.
// The client-side cache writes go through simnet.Defer: immediate on
// the single-kernel path (and from client-side callers), once the
// caller is home when the fill happens inside a cross-domain service
// body.
func (c *client) fillEntry(p2 *sim.Proc, p string, a fs.Attr) {
	st := c.st()
	attrs := st.attrs
	if c.cfg().CacheMode != CacheTTL {
		attrs = nil
	}
	simnet.Defer(p2, clientcache.PositiveFill(attrs, st.dentries, p, a))
	if c.cfg().CacheMode == CacheLease {
		c.fsys.grant(p2, st, p, a)
	}
}

// dropEntry discards the client's cached state for p (local knowledge:
// the client itself removed or moved the entry).
func (c *client) dropEntry(p string) {
	st := c.st()
	if st.attrs != nil {
		st.attrs.Invalidate(p)
	}
	if st.leases != nil {
		st.leases.Invalidate(p)
	}
	st.dentries.Invalidate(p)
}

// ReadDirPlus lists a directory and returns each entry's attributes
// from one RPC (fs.ReadDirPlusser): the server pays the readdir paging
// cost plus ReaddirPlusPerEntry per attribute instead of one GETATTR
// round trip each, and the reply fills the client's dentry and
// attribute caches — under CacheLease, as a bulk lease grant. A
// directory that spans every shard (the root under subtree placement)
// falls back to the merged ReadDir plus cached per-entry Stats.
func (c *client) ReadDirPlus(p string) ([]fs.DirEntry, []fs.Attr, error) {
	f := c.fsys
	cfg := c.cfg()
	if f.splitActive() {
		// Like ReadDir: the fan-out reads the split level at service
		// time, closing the queued-request race with a concurrent
		// split.
		return c.splitReadDirPlus(p)
	}
	slice := f.contentSlice(p)
	if slice < 0 {
		return fs.StatEntries(c, p)
	}
	c.node.Syscall(c.p)
	var ents []fs.DirEntry
	var attrs []fs.Attr
	var err error
	cerr := c.call("readdirplus", p, slice, 140, 320, func(sp *sim.Proc, state, srv *shardSrv) {
		ents, err = state.ns.ReadDir(p, sp.Now())
		if err != nil {
			f.serviceOp(sp, srv, cfg.ReaddirService, -1, scanInfo())
			return
		}
		f.serviceOp(sp, srv, readdirCost(cfg, len(ents))+
			time.Duration(len(ents))*cfg.ReaddirPlusPerEntry, -1, scanInfo())
		attrs = make([]fs.Attr, len(ents))
		for i, e := range ents {
			node := state.ns.Get(e.Ino)
			if node == nil {
				continue
			}
			attrs[i] = node.Attr()
			c.fillEntry(sp, childPath(p, e.Name), attrs[i])
		}
	})
	if cerr != nil {
		return nil, nil, cerr
	}
	if err != nil {
		return nil, nil, err
	}
	return ents, attrs, nil
}

// childPath joins a clean directory path and an entry name.
func childPath(dir, name string) string {
	b := make([]byte, 0, len(dir)+1+len(name))
	b = append(b, dir...)
	if dir != "/" {
		b = append(b, '/')
	}
	b = append(b, name...)
	return string(b)
}
