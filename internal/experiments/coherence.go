package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/fault"
	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// The E22–E24 family measures client metadata cache coherence on the
// sharded MDS (internal/shard coherence.go, internal/clientcache
// LeaseCache). The thesis shows client-side caching dominating
// perceived metadata performance and contrasts NFS attribute timeouts
// with AFS-style callbacks (§2.1.2, §4.7.3); MetaFlow and HopsFS show
// that scaling metadata past one server only pays when clients cache
// aggressively under explicit invalidation. E22 sweeps the lease TTL
// (hit rate vs. revocation traffic under Zipf skew), E23 races the
// coherent cache against timeout and uncached clients across shard
// counts, and E24 puts a cached load through PR 3's failover with and
// without crash-time lease invalidation.

// e22Load is the shared coherence stress load: a pool of files every
// rank stats (Zipf-hot) and periodically rewrites. The pool is wide
// enough that a mid-popularity file's per-node revisit interval spans
// the E22 TTL sweep: hot files stay lease-covered at any TTL, cold
// files need a long one.
func e22Load(skew float64) core.StatMutateFiles {
	return core.StatMutateFiles{Files: 640, MutateEvery: 16, Skew: skew}
}

// runCoherence measures a fixed-size StatMutateFiles run on k with an
// 8-node x 2-process cluster and returns the measurement plus the FS for
// counter readout.
func runCoherence(k *sim.Kernel, cfg shard.Config, plugin core.Plugin, problem int) (*results.Measurement, *shard.FS, error) {
	cl := cluster.New(k, cluster.DefaultConfig(8))
	fsys := newShardFS(k, "meta", cfg)
	m, err := measure(cl, fsys, 8, 2, core.Params{ProblemSize: problem, WorkDir: "/bench"}, plugin, nil)
	return m, fsys, err
}

// hitRate returns hits/(hits+misses) as a percentage.
func hitRate(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}

// e22LeaseTTL sweeps the lease TTL under a Zipf-skewed stat+mutate
// load: longer leases convert expiry misses into hits, and what they
// cost is revocation callbacks — every rewrite must chase down more
// live holders — while staleness stays at zero, because a coherent hit
// is revoked before the mutation returns.
func e22LeaseTTL() plan {
	plugin := e22Load(1.8)
	ttls := []time.Duration{25 * time.Millisecond, 100 * time.Millisecond,
		500 * time.Millisecond, 4 * time.Second}
	// One cell per lease TTL, all with the same seed (the E16 sweep
	// discipline: TTL is the only variable).
	type e22cell struct {
		hr, rate    float64
		revocations int64
		grants      int64
		stale       int64
	}
	names := make([]string, len(ttls))
	for i, ttl := range ttls {
		names[i] = ttl.String()
	}
	cells, cs := cellsOf(names, func(int) int64 { return 2200 }, func(i int, k *sim.Kernel) (e22cell, error) {
		cfg := shard.DefaultConfig(4)
		cfg.CacheMode = shard.CacheLease
		cfg.LeaseTTL = ttls[i]
		cfg.TrackStaleness = true
		m, fsys, err := runCoherence(k, cfg, plugin, 8000)
		if err != nil {
			return e22cell{}, err
		}
		hits, misses, _, _ := fsys.CacheStats()
		return e22cell{hr: hitRate(hits, misses), rate: wallOf(m),
			revocations: fsys.Revocations, grants: fsys.LeaseGrants,
			stale: fsys.StaleReads}, nil
	})
	return plan{cs, func(r *Report) {
		var xs, ys []float64
		var firstHit, lastHit, firstRev, lastRev float64
		for i, ttl := range ttls {
			c := cells[i]
			xs = append(xs, ttl.Seconds())
			ys = append(ys, c.hr)
			if len(xs) == 1 {
				firstHit, firstRev = c.hr, float64(c.revocations)
			}
			lastHit, lastRev = c.hr, float64(c.revocations)
			r.row(fmt.Sprintf("lease %5s: hit rate", ttl), c.hr, "%",
				fmt.Sprintf("%.0f stats/s", c.rate))
			r.row(fmt.Sprintf("lease %5s: revocations", ttl), float64(c.revocations), "",
				fmt.Sprintf("%d grants, %d stale reads", c.grants, c.stale))
		}
		r.finding("the lease TTL buys hit rate with revocation traffic: %.0f%% -> %.0f%% "+
			"hits from 25ms to 4s leases while callbacks grow %.0f -> %.0f (longer "+
			"leases leave more live holders for every mutation to chase down), and "+
			"stale reads stay at zero at every point — the coherence invariant the "+
			"timeout cache of E23 cannot offer at any TTL",
			firstHit, lastHit, firstRev, lastRev)
		r.Charts = append(r.Charts, charts.Render(
			"Cache hit rate vs. lease TTL (Zipf 1.8 stat+mutate, 4 shards)",
			"lease s", "hit %", chartW, chartH,
			[]charts.Series{{Name: "coherent hits", X: xs, Y: ys}}))
	}}
}

// e23CacheModes races the three client cache modes across shard counts
// on the shared stat+mutate load, then pins the hit-rate/staleness
// trade-off at 4 shards. The timeout cache can only reach the coherent
// cache's hit rate by serving stale attributes, and can only reach its
// freshness by shrinking the TTL to nothing — at which point it is no
// cache at all. Adding shards, meanwhile, barely moves a stat-heavy
// load: request latency and client caching dominate, not server count
// (the §4.6 lesson resurfacing at MDS scale).
func e23CacheModes() plan {
	plugin := e22Load(1.8)
	type e23cell struct {
		rate, hit float64
		stale     int64
	}
	// run is one cell on its own kernel.
	run := func(k *sim.Kernel, n int, mode shard.CacheMode, attrTTL time.Duration) (e23cell, error) {
		cfg := shard.DefaultConfig(n)
		cfg.CacheMode = mode
		cfg.TrackStaleness = true
		if attrTTL > 0 {
			cfg.AttrTTL = attrTTL
		}
		if mode == shard.CacheLease {
			cfg.LeaseTTL = 30 * time.Second
		}
		m, fsys, err := runCoherence(k, cfg, plugin, 2000)
		if err != nil {
			return e23cell{}, err
		}
		hits, misses, _, _ := fsys.CacheStats()
		return e23cell{rate: wallOf(m), hit: hitRate(hits, misses), stale: fsys.StaleReads}, nil
	}
	shardCounts := []int{1, 2, 4, 8}
	// 13 cells: (lease, ttl, none) per shard count, seeded
	// 2300+10*shard step+mode, plus the hit-rate-matched TTL cell at 4
	// shards, seeded 2340.
	modes := []struct {
		tag  string
		mode shard.CacheMode
	}{{"lease", shard.CacheLease}, {"ttl", shard.CacheTTL}, {"none", shard.CacheNone}}
	var names []string
	for _, n := range shardCounts {
		for _, m := range modes {
			names = append(names, fmt.Sprintf("%dshards-%s", n, m.tag))
		}
	}
	names = append(names, "4shards-ttl2ms")
	seed := func(i int) int64 {
		if i == len(names)-1 {
			return 2340
		}
		return int64(2300 + 10*(i/len(modes)) + i%len(modes))
	}
	cells, cs := cellsOf(names, seed, func(i int, k *sim.Kernel) (e23cell, error) {
		if i == len(names)-1 {
			return run(k, 4, shard.CacheTTL, 2*time.Millisecond)
		}
		return run(k, shardCounts[i/len(modes)], modes[i%len(modes)].mode, 0)
	})
	return plan{cs, func(r *Report) {
		var xs, leaseY, ttlY, noneY []float64
		var lease4, ttl4 e23cell
		for i, n := range shardCounts {
			lease, ttl, none := cells[3*i], cells[3*i+1], cells[3*i+2]
			xs = append(xs, float64(n))
			leaseY = append(leaseY, lease.rate)
			ttlY = append(ttlY, ttl.rate)
			noneY = append(noneY, none.rate)
			r.row(fmt.Sprintf("stats/s @ %d shards, lease 30s", n), lease.rate, "ops/s",
				fmt.Sprintf("%.0f%% hits, %d stale", lease.hit, lease.stale))
			r.row(fmt.Sprintf("stats/s @ %d shards, ttl 3s", n), ttl.rate, "ops/s",
				fmt.Sprintf("%.0f%% hits, %d stale", ttl.hit, ttl.stale))
			r.row(fmt.Sprintf("stats/s @ %d shards, no cache", n), none.rate, "ops/s", "")
			if n == 4 {
				lease4, ttl4 = lease, ttl
			}
		}
		// The trade-off pinned at 4 shards: a TTL matched to the hot files'
		// ~2ms mutation interval reaches the coherent cache's hit rate and
		// still serves stale hits, because hot files are revisited faster
		// than they are mutated.
		matched := cells[len(cells)-1]
		r.row("4 shards: lease 30s hit rate", lease4.hit, "%",
			fmt.Sprintf("%d stale reads", lease4.stale))
		r.row("4 shards: ttl 3s hit rate", ttl4.hit, "%",
			fmt.Sprintf("%d stale reads", ttl4.stale))
		r.row("4 shards: ttl 2ms hit rate", matched.hit, "%",
			fmt.Sprintf("%d stale reads (hit-rate-matched TTL)", matched.stale))
		r.finding("the timeout cache cannot buy freshness with its TTL on a write-shared "+
			"load: at the 3s NFS default it tops the hit rate (%.0f%%) by serving %d "+
			"stale hits, and even shrunk to the ~2ms hot-file mutation interval it "+
			"matches the coherent hit rate (%.0f%% vs %.0f%%) while still serving %d "+
			"stale reads — at equal (zero) staleness its only configuration is no cache "+
			"at all, 0%% hits against the coherent cache's %.0f%%",
			ttl4.hit, ttl4.stale, matched.hit, lease4.hit, matched.stale, lease4.hit)
		r.Charts = append(r.Charts, charts.Render(
			"Stat+mutate throughput vs. shard count by cache mode",
			"shards", "ops/s", chartW, chartH,
			[]charts.Series{
				{Name: "lease 30s", X: xs, Y: leaseY},
				{Name: "ttl 3s", X: xs, Y: ttlY},
				{Name: "no cache", X: xs, Y: noneY},
			}))
	}}
}

// e24FailoverCachedLoad puts a lease-cached stat+mutate load through
// PR 3's crash/takeover path. The promoted backup knows nothing about
// the dead primary's leases, so it cannot revoke them: without
// crash-time invalidation every mutation it applies leaves stale
// client hits behind until the leases expire on their own. Epoch-based
// bulk invalidation (Config.CrashInvalidate) closes that window to the
// takeover itself.
func e24FailoverCachedLoad() plan {
	const (
		window    = 16 * time.Second
		crashAt   = 6 * time.Second
		restartAt = 13 * time.Second
	)
	// Two cells: with and without crash-time lease invalidation. A cell
	// keeps only what assembly reads, so its simulated world is garbage
	// once the run ends.
	type e24cell struct {
		m           *results.Measurement
		takeovers   []shard.Takeover
		staleReads  int64
		lastStaleAt time.Duration
		epochDrops  int64
	}
	run := func(k *sim.Kernel, invalidate bool) (e24cell, error) {
		outage := (&fault.Plan{}).Outage(crashAt, restartAt, 0)
		if err := outage.Validate(); err != nil {
			return e24cell{}, err
		}
		cfg := shard.DefaultConfig(2)
		cfg.Replicate = true
		cfg.CacheMode = shard.CacheLease
		cfg.LeaseTTL = 8 * time.Second
		cfg.TrackStaleness = true
		cfg.CrashInvalidate = invalidate
		cl := cluster.New(k, cluster.DefaultConfig(8))
		fsys := newShardFS(k, "meta", cfg)
		m, err := measure(cl, fsys, 8, 2,
			core.Params{ProblemSize: 1 << 20, TimeLimit: window, WorkDir: "/bench"}, e22Load(0),
			func(mp *sim.Proc, _ core.MeasurementInfo) { outage.Start(mp, fsys) })
		if err == nil && len(fsys.Takeovers) == 0 {
			err = fmt.Errorf("no takeover")
		}
		_, _, _, epochDrops := fsys.CacheStats()
		return e24cell{m: m, takeovers: fsys.Takeovers, staleReads: fsys.StaleReads,
			lastStaleAt: fsys.LastStaleAt, epochDrops: epochDrops}, err
	}
	seed := func(i int) int64 { return int64(2400 + i) }
	cells, cs := cellsOf([]string{"invalidate", "no-invalidate"}, seed, func(i int, k *sim.Kernel) (e24cell, error) {
		return run(k, i == 0)
	})
	return plan{cs, func(r *Report) {
		inval, stale := cells[0], cells[1]
		staleWindow := func(c e24cell) time.Duration {
			w := c.lastStaleAt - c.takeovers[0].CrashAt
			if c.staleReads == 0 || w < 0 {
				return 0
			}
			return w
		}
		r.row("invalidate: takeover latency", inval.takeovers[0].Total().Seconds()*1000, "ms",
			fmt.Sprintf("detect + %d entries replayed", inval.takeovers[0].Entries))
		r.row("invalidate: stale reads", float64(inval.staleReads), "", "epoch check on every hit")
		r.row("invalidate: stale-read window", staleWindow(inval).Seconds(), "s", "")
		r.row("invalidate: leases bulk-dropped", float64(inval.epochDrops), "", "epoch moves observed by clients")
		r.row("no invalidate: takeover latency", stale.takeovers[0].Total().Seconds()*1000, "ms", "")
		r.row("no invalidate: stale reads", float64(stale.staleReads), "",
			"no serving change can revoke its predecessor's leases")
		r.row("no invalidate: stale-read window", staleWindow(stale).Seconds(), "s",
			fmt.Sprintf("takeover and failback each leak up to the %s lease TTL", 8*time.Second))
		r.finding("failover without lease invalidation leaks staleness: neither the "+
			"promoted backup (crash at 6s) nor the restarted primary (failback at 13s) "+
			"can revoke leases its predecessor granted, so mutations they serve leave "+
			"clients trusting dead leases — a %.1fs stale window, %d stale reads, each "+
			"leak bounded only by the 8s lease TTL. Crash-time epoch invalidation "+
			"shrinks the window to %.1fs (%d stale reads) at the same %.0fms takeover "+
			"latency",
			staleWindow(stale).Seconds(), stale.staleReads,
			staleWindow(inval).Seconds(), inval.staleReads,
			inval.takeovers[0].Total().Seconds()*1000)
		r.Charts = append(r.Charts,
			"lease cache + crash-time invalidation, crash at 6s, restart at 13s\n"+
				charts.TimeChart(inval.m, chartW, chartH),
			"lease cache without invalidation, same fault plan\n"+
				charts.TimeChart(stale.m, chartW, chartH))
	}}
}
