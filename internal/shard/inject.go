package shard

// Aggregate-arrival injection (E31–E33): analytically-modeled
// background load (internal/agg) enters the sharded MDS as batched
// virtual-time demand instead of per-client processes. The mechanism —
// daemon injector lanes per server, open-loop shedding, Acquire/Sleep/
// Release holds on the client-facing pool — lives in the shared service
// runtime (internal/service); this file wires it to the sharded MDS:
// ShardThreads lanes per shard on the shard's own kernel domain, priced
// with the same base service times real RPCs pay, scaled by the WAFL
// consistency-point factor.
//
// Determinism: lanes touch only their own shard's pool and the atomic
// FS counters, and each (shard, lane) draws from a private source
// stream in strict tick order, so runs are byte-identical at any
// Domains/worker count (domain_test.go's aggregate case pins this).

import (
	"time"

	"dmetabench/internal/service"
	"dmetabench/internal/sim"
)

// AttachAggregate starts the background injector: ShardThreads daemon
// lanes per shard, each calling src(shard, lane, tick) once per tick in
// strictly increasing tick order and occupying one server of the
// shard's pool for the priced duration. Call before the kernel runs;
// the lanes are daemons, so they never keep a finished simulation
// alive. src runs on the shard's kernel domain: with Domains > 1 it is
// called concurrently for shards in different domains, so per-(shard,
// lane) source state must not be shared across shards (internal/agg's
// replicated-stream design).
func (f *FS) AttachAggregate(tick time.Duration, src func(shard, lane, tick int) service.Demand) {
	service.AttachAggregate(service.AggregateConfig{
		Servers: len(f.shards),
		Lanes:   f.cfg.ShardThreads,
		Tick:    tick,
		Kernel:  f.kFor,
		Pool:    func(i int) *sim.Resource { return f.shards[i].srv.Threads },
		Source:  src,
		Price:   func(i int, d service.Demand) time.Duration { return f.priceAggregate(f.shards[i], d) },
		Ops:     &f.AggOps,
		Shed:    &f.AggShedOps,
		Busy:    &f.AggBusy,
	})
}

// AggCounts returns the injected / shed operation counts and the
// cumulative injected service time. Unlike reading the FS fields
// directly, it is safe mid-run from any domain, while lanes in other
// domains advance.
func (f *FS) AggCounts() (ops, shed int64, busy time.Duration) {
	return loadI64(&f.AggOps), loadI64(&f.AggShedOps),
		time.Duration(loadI64(&f.AggBusy))
}

// priceAggregate converts one demand batch into service time: the base
// per-class costs of the config, scaled by the shard's current WAFL
// service factor (sampled once per batch) so background load slows
// through consistency points exactly as foreground RPCs do. Per-entry
// directory-index and backend factors are deliberately not applied —
// the analytic stream has no concrete directories — which prices the
// background conservatively.
func (f *FS) priceAggregate(sh *shardSrv, d service.Demand) time.Duration {
	base := f.priceTable().Price(d)
	if base <= 0 {
		return 0
	}
	return time.Duration(float64(base) * sh.wafl.ServiceFactor())
}

// priceTable exposes the config's base per-class service times in the
// shared runtime's form.
func (f *FS) priceTable() service.PriceTable {
	return service.PriceTable{
		Getattr: getattrService,
		Lookup:  lookupService,
		Readdir: readdirService,
		Create:  createService,
	}
}

// CapacityStats is a point-in-time census of the state that grows with
// scale: server-side lease tables and journals, split bookkeeping, and
// the per-node client caches. E33 reads it after a run to estimate
// memory pressure; call it only when the simulation is quiescent (after
// Run), because it walks state owned by every domain.
type CapacityStats struct {
	// LeaseEntries counts read-lease grants across every slice's table;
	// Delegations the directory write delegations outstanding.
	LeaseEntries int
	Delegations  int
	// SplitDirs counts directories with split bookkeeping server-side.
	SplitDirs int
	// JournalEntries sums the dirty journal entries across shards.
	JournalEntries int
	// Nodes counts client nodes with cache state; the Client* fields
	// sum those nodes' attribute/dentry/lease/split-bitmap entries.
	Nodes           int
	ClientAttrs     int
	ClientDentries  int
	ClientLeases    int
	ClientSplitDirs int
}

// Entries sums every counted entry, server- and client-side.
func (c CapacityStats) Entries() int {
	return c.LeaseEntries + c.Delegations + c.SplitDirs + c.JournalEntries +
		c.ClientAttrs + c.ClientDentries + c.ClientLeases + c.ClientSplitDirs
}

// CapacityStats reports the current capacity census.
func (f *FS) CapacityStats() CapacityStats {
	var st CapacityStats
	for _, sl := range f.leases {
		for _, grants := range sl.read {
			st.LeaseEntries += len(grants)
		}
		st.Delegations += len(sl.deleg)
	}
	st.SplitDirs = len(f.splitDirs)
	for _, sh := range f.shards {
		st.JournalEntries += sh.journal
	}
	st.Nodes = len(f.nodes)
	for _, ns := range f.nodes {
		st.ClientAttrs += ns.names.AttrLen()
		st.ClientDentries += ns.names.DentryLen()
		st.ClientLeases += ns.names.LeaseLen()
		if ns.splits != nil {
			st.ClientSplitDirs += ns.splits.Len()
		}
	}
	return st
}
