package shard

// Kernel-domain plumbing for the sharded MDS (conservative-lookahead
// parallel simulation, internal/sim domain.go). With Config.Domains > 1
// the cell's event processing partitions into domains: domain 0 runs
// the clients (workers, the measurement master, fault injectors) and
// domains 1..D-1 each run a subset of the shards — every shard's
// thread pools, WAFL, backend, namespace slice and directory locks
// live on its own kernel, and RPCs, interconnect hops, mirrors and
// coherence callbacks become timestamped cross-domain messages.
//
// The correctness discipline has three parts:
//
//   - Slice-state ownership. A slice's namespace, journal, lease table
//     and lock map belong to the domain of the server CURRENTLY SERVING
//     it. Service bodies execute in that domain, so the single-threaded
//     invariant every data structure relies on holds per domain.
//     Ownership moves only at sync points (below), and the window
//     barrier is the happens-before edge for the transfer.
//
//   - Sync points. Rare global transitions — crash, takeover, failback,
//     epoch bumps, serving[] changes, split phase 1 — run at registered
//     virtual instants where every domain is parked at exactly that
//     time (sim.DomainGroup.AtSync). Between sync points that state is
//     immutable, so the hot paths (routing, retry redirection, split
//     levels, down checks) read it from any domain without
//     synchronization.
//
//   - Forwarding. When a request discovers mid-body that the state it
//     must touch lives in another domain — a split or failback re-homed
//     the entry while it waited in a queue — the contacted server
//     forwards the work over the interconnect (applyState), paying a
//     real hop where the single-kernel model let it "proxy" for free.
//     The same rule routes lease-table operations whose owner slice is
//     not the executing slice (withLeaseSlice): a distributed lock
//     manager pays messages between servers.
//
// With Domains <= 1 none of this engages: every helper degrades to the
// exact single-kernel code path, byte for byte.

import (
	"sort"
	"sync/atomic"
	"time"

	"dmetabench/internal/fs"
	"dmetabench/internal/sim"
)

// placeShards partitions k into kernel domains for the given shard
// count. The domain count is clamped to one client domain plus one per
// shard; domain 0 (k itself) keeps the clients, and shard i lives on
// domain 1 + i mod (D-1). It returns no group — every shard stays on k
// — when domains <= 1, and when k already belongs to a group: the FS
// then embeds into that group's kernel. lookahead must be the smallest
// one-way delay any cross-domain interaction pays.
func placeShards(k *sim.Kernel, shards, domains int, lookahead time.Duration) (*sim.DomainGroup, []*sim.Kernel) {
	nd := min(domains, shards+1)
	if nd <= 1 || k.Group() != nil {
		return nil, nil
	}
	g := sim.AddDomains(k, nd-1, lookahead)
	kernels := make([]*sim.Kernel, shards)
	for i := range kernels {
		kernels[i] = g.Kernel(1 + i%(nd-1))
	}
	return g, kernels
}

// domained reports whether the FS runs on a multi-domain group.
func (f *FS) domained() bool { return f.g != nil }

// Group exposes the FS's domain group (nil when Domains <= 1).
func (f *FS) Group() *sim.DomainGroup { return f.g }

// kFor returns the kernel server i lives on (f.k when undomained).
func (f *FS) kFor(i int) *sim.Kernel {
	if f.kernels == nil {
		return f.k
	}
	return f.kernels[i]
}

// sliceKernel returns the kernel owning slice s's state — the kernel of
// the server currently serving it. serving[] changes only at sync
// points, so the read is safe from any domain.
func (f *FS) sliceKernel(s int) *sim.Kernel { return f.kFor(f.serving[s]) }

// atSync runs fn at the next safe global instant: immediately when
// undomained (the single kernel is always globally quiescent between
// events), else at a sync point one lookahead window ahead, with every
// domain parked at exactly that time.
func (f *FS) atSync(p *sim.Proc, fn func()) {
	if f.g == nil {
		fn()
		return
	}
	f.g.AtSync(p, p.Now(), fn)
}

// peerLeg runs body on ps's peer pool across the interconnect:
// coordination CPU on the caller, the round trip, and the body holding
// one peer thread. When ps lives in another domain the caller migrates
// there for the body (sim.Call) and the one-way latencies ride the
// migration; the virtual-time cost is identical to the inline path.
func (f *FS) peerLeg(sp *sim.Proc, ps *shardSrv, name string, body func(q *sim.Proc)) {
	sp.Sleep(crossShardOverhead)
	sim.Call(sp, f.kFor(ps.index), crossShardLatency, name, func(q *sim.Proc) {
		ps.peer.Threads.Acquire(q)
		q.Sleep(crossShardOverhead)
		body(q)
		ps.peer.Threads.Release()
	})
}

// applyState runs fn against slice state at the commit instant. When
// the slice's owning domain is not the executing one — a split or a
// failback re-homed it while this request sat in a queue or paid its
// service charge — the contacted server forwards the work to the
// current owner over the interconnect: fn then runs in the owner's
// domain on its peer pool, with at set to the owning server and fwd
// true. Undomained (and in the common domained case where ownership
// did not move) fn runs inline with at = srv, exactly the legacy
// proxying path.
func (f *FS) applyState(sp *sim.Proc, state, srv *shardSrv, fn func(q *sim.Proc, at *shardSrv, fwd bool)) {
	if f.domained() && f.sliceKernel(state.index) != sp.Kernel() {
		own := f.srvFor(state.index)
		f.hop(sp, own, func(q *sim.Proc) { fn(q, own, true) })
		return
	}
	fn(sp, srv, false)
}

// withLeaseSlice runs fn in the domain owning slice s's lease table,
// forwarding over the interconnect when the caller executes elsewhere —
// cross-server lease management costs a message, the way a distributed
// lock manager's does. Undomained it is a direct call.
func (f *FS) withLeaseSlice(p *sim.Proc, s int, fn func(q *sim.Proc)) {
	if f.domained() && f.sliceKernel(s) != p.Kernel() {
		f.hop(p, f.srvFor(s), fn)
		return
	}
	fn(p)
}

// persistAt is persist, except that work forwarded onto a peer pool
// (srv != orig) commits per-op: peer-pool threads must never wait on a
// group-commit batch whose leader may need this very pool for its
// mirror round trip — the same acyclicity rule the cross-shard rename
// migrate follows.
func (f *FS) persistAt(q *sim.Proc, state, srv, orig *shardSrv, kind fs.OpKind, path string, logBytes int64) {
	if srv != orig {
		srv.be.log(q, logBytes)
		f.commit(q, state, srv, kind, path)
		return
	}
	f.persist(q, state, srv, kind, path, logBytes)
}

// recordCompaction appends one LSM compaction event. Under domains the
// shards stall concurrently, so the slice is mutex-guarded and kept
// ordered by (At, Shard) — the set of events is deterministic, their
// wall-clock arrival order is not. Undomained it is a plain append (the
// single kernel already appends in virtual-time order).
func (f *FS) recordCompaction(ev CompactionEvent) {
	if !f.domained() {
		f.Compactions = append(f.Compactions, ev)
		return
	}
	f.evMu.Lock()
	defer f.evMu.Unlock()
	i := sort.Search(len(f.Compactions), func(i int) bool {
		c := f.Compactions[i]
		if c.At != ev.At {
			return c.At > ev.At
		}
		return c.Shard > ev.Shard
	})
	f.Compactions = append(f.Compactions, CompactionEvent{})
	copy(f.Compactions[i+1:], f.Compactions[i:])
	f.Compactions[i] = ev
}

// addI64 bumps a counter that service bodies increment from several
// domains concurrently. Sums are order-independent, so the totals stay
// deterministic; undomained the atomic op is just an add.
func addI64(ctr *int64, d int64) { atomic.AddInt64(ctr, d) }

// loadI64 reads such a counter (safe during a run from any domain).
func loadI64(ctr *int64) int64 { return atomic.LoadInt64(ctr) }
