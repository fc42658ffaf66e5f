package shard

// Kernel-domain plumbing for the sharded MDS (conservative-lookahead
// parallel simulation, internal/sim domain.go). With Config.Domains > 1
// the cell's event processing partitions into domains: domain 0 runs
// the clients (workers, the measurement master) and domains 1..D-1 each
// run a subset of the shards — every shard's thread pools, WAFL,
// backend, namespace slice and directory locks live on its own kernel,
// and RPCs, interconnect hops and mirrors migrate the calling process
// into the owning domain for their bodies (sim.Call).
//
// The partition is static: a slice's state lives on its own shard's
// kernel for the whole run, and service bodies execute there, so the
// single-threaded invariant every data structure relies on holds per
// domain. Nothing re-homes a slice under domains, because everything
// that would — a crash takeover or failback, a directory split, the
// lease tables a mutation reaches on other slices — is rejected there
// (Config.Validate, Crash, Restart). Global routing state (serving[],
// split levels, down flags) therefore never changes during a domained
// run, and every domain reads it without synchronization.
//
// With Domains <= 1 none of this engages: every helper degrades to the
// exact single-kernel code path, byte for byte.

import (
	"sort"
	"sync/atomic"
	"time"

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
