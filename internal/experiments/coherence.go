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

// runCoherence measures a fixed-size StatMutateFiles run on an 8-node x
// 2-process cluster and returns the measurement plus the FS for counter
// readout.
func runCoherence(seed int64, cfg shard.Config, plugin core.Plugin, problem int) (*results.Measurement, *shard.FS, error) {
	k := sim.New(seed)
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

// E22LeaseTTL sweeps the lease TTL under a Zipf-skewed stat+mutate
// load: longer leases convert expiry misses into hits, and what they
// cost is revocation callbacks — every rewrite must chase down more
// live holders — while staleness stays at zero, because a coherent hit
// is revoked before the mutation returns.
func E22LeaseTTL() *Report {
	r := &Report{ID: "E22", Title: "Lease TTL sweep: hit rate vs. revocation traffic",
		PaperRef: "beyond §2.1.2 (callback coherence; MetaFlow/HopsFS direction)"}
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
	cells, err := parCells("E22", names, func(i int) (e22cell, error) {
		cfg := shard.DefaultConfig(4)
		cfg.CacheMode = shard.CacheLease
		cfg.LeaseTTL = ttls[i]
		cfg.TrackStaleness = true
		m, fsys, err := runCoherence(2200, cfg, plugin, 8000)
		if err != nil {
			return e22cell{}, err
		}
		hits, misses, _, _ := fsys.CacheStats()
		return e22cell{hr: hitRate(hits, misses), rate: wallOf(m),
			revocations: fsys.Revocations, grants: fsys.LeaseGrants,
			stale: fsys.StaleReads}, nil
	})
	if err != nil {
		return r.fail(err)
	}
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
	return r
}

// E23CacheModes races the three client cache modes across shard counts
// on the shared stat+mutate load, then pins the hit-rate/staleness
// trade-off at 4 shards. The timeout cache can only reach the coherent
// cache's hit rate by serving stale attributes, and can only reach its
// freshness by shrinking the TTL to nothing — at which point it is no
// cache at all. Adding shards, meanwhile, barely moves a stat-heavy
// load: request latency and client caching dominate, not server count
// (the §4.6 lesson resurfacing at MDS scale).
func E23CacheModes() *Report {
	r := &Report{ID: "E23", Title: "Coherent vs. timeout vs. no client cache across shard counts",
		PaperRef: "beyond §4.7.3 (AFS callbacks vs. NFS timeouts, per shard count)"}
	plugin := e22Load(1.8)
	type cell struct {
		rate, hit float64
		stale     int64
	}
	// run is one cell on its own kernel.
	run := func(n int, mode shard.CacheMode, attrTTL time.Duration, seed int64) (cell, error) {
		cfg := shard.DefaultConfig(n)
		cfg.CacheMode = mode
		cfg.TrackStaleness = true
		if attrTTL > 0 {
			cfg.AttrTTL = attrTTL
		}
		if mode == shard.CacheLease {
			cfg.LeaseTTL = 30 * time.Second
		}
		m, fsys, err := runCoherence(seed, cfg, plugin, 2000)
		if err != nil {
			return cell{}, err
		}
		hits, misses, _, _ := fsys.CacheStats()
		return cell{rate: wallOf(m), hit: hitRate(hits, misses), stale: fsys.StaleReads}, nil
	}
	shardCounts := []int{1, 2, 4, 8}
	// 13 cells: (lease, ttl, none) per shard count plus the
	// hit-rate-matched TTL cell at 4 shards.
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
	cells, err := parCells("E23", names, func(i int) (cell, error) {
		if i == len(names)-1 {
			return run(4, shard.CacheTTL, 2*time.Millisecond, 2340)
		}
		si, mi := i/len(modes), i%len(modes)
		return run(shardCounts[si], modes[mi].mode, 0, int64(2300+10*si+mi))
	})
	if err != nil {
		return r.fail(err)
	}
	var xs, leaseY, ttlY, noneY []float64
	var lease4, ttl4 cell
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
	return r
}

// E24FailoverCachedLoad puts a lease-cached stat+mutate load through
// PR 3's crash/takeover path. The promoted backup knows nothing about
// the dead primary's leases, so it cannot revoke them: without
// crash-time invalidation every mutation it applies leaves stale
// client hits behind until the leases expire on their own. Epoch-based
// bulk invalidation (Config.CrashInvalidate) closes that window to the
// takeover itself.
func E24FailoverCachedLoad() *Report {
	r := &Report{ID: "E24", Title: "Failover under cached load: the stale-read window",
		PaperRef: "beyond §4.2 + §2.1.2 (cache coherence across failover)"}
	const (
		window    = 16 * time.Second
		crashAt   = 6 * time.Second
		restartAt = 13 * time.Second
	)
	plan := (&fault.Plan{}).Outage(crashAt, restartAt, 0)
	if err := plan.Validate(); err != nil {
		return r.fail(err)
	}
	// Two cells: with and without crash-time lease invalidation.
	type e24cell struct {
		m  *results.Measurement
		fs *shard.FS
	}
	run := func(seed int64, invalidate bool) (e24cell, error) {
		cfg := shard.DefaultConfig(2)
		cfg.Replicate = true
		cfg.CacheMode = shard.CacheLease
		cfg.LeaseTTL = 8 * time.Second
		cfg.TrackStaleness = true
		cfg.CrashInvalidate = invalidate
		k := sim.New(seed)
		cl := cluster.New(k, cluster.DefaultConfig(8))
		c := e24cell{fs: newShardFS(k, "meta", cfg)}
		var err error
		c.m, err = measure(cl, c.fs, 8, 2,
			core.Params{ProblemSize: 1 << 20, TimeLimit: window, WorkDir: "/bench"}, e22Load(0),
			func(mp *sim.Proc, _ core.MeasurementInfo) { plan.Start(mp, c.fs) })
		if err == nil && len(c.fs.Takeovers) == 0 {
			err = fmt.Errorf("no takeover")
		}
		return c, err
	}
	cells, err := parCells("E24", []string{"invalidate", "no-invalidate"}, func(i int) (e24cell, error) {
		return run(int64(2400+i), i == 0)
	})
	if err != nil {
		return r.fail(err)
	}
	inval, ifs := cells[0].m, cells[0].fs
	stale, sfs := cells[1].m, cells[1].fs
	staleWindow := func(f *shard.FS) time.Duration {
		w := f.LastStaleAt - f.Takeovers[0].CrashAt
		if f.StaleReads == 0 || w < 0 {
			return 0
		}
		return w
	}
	_, _, _, epochDrops := ifs.CacheStats()
	r.row("invalidate: takeover latency", ifs.Takeovers[0].Total().Seconds()*1000, "ms",
		fmt.Sprintf("detect + %d entries replayed", ifs.Takeovers[0].Entries))
	r.row("invalidate: stale reads", float64(ifs.StaleReads), "", "epoch check on every hit")
	r.row("invalidate: stale-read window", staleWindow(ifs).Seconds(), "s", "")
	r.row("invalidate: leases bulk-dropped", float64(epochDrops), "", "epoch moves observed by clients")
	r.row("no invalidate: takeover latency", sfs.Takeovers[0].Total().Seconds()*1000, "ms", "")
	r.row("no invalidate: stale reads", float64(sfs.StaleReads), "",
		"no serving change can revoke its predecessor's leases")
	r.row("no invalidate: stale-read window", staleWindow(sfs).Seconds(), "s",
		fmt.Sprintf("takeover and failback each leak up to the %s lease TTL", 8*time.Second))
	r.finding("failover without lease invalidation leaks staleness: neither the "+
		"promoted backup (crash at 6s) nor the restarted primary (failback at 13s) "+
		"can revoke leases its predecessor granted, so mutations they serve leave "+
		"clients trusting dead leases — a %.1fs stale window, %d stale reads, each "+
		"leak bounded only by the 8s lease TTL. Crash-time epoch invalidation "+
		"shrinks the window to %.1fs (%d stale reads) at the same %.0fms takeover "+
		"latency",
		staleWindow(sfs).Seconds(), sfs.StaleReads,
		staleWindow(ifs).Seconds(), ifs.StaleReads,
		ifs.Takeovers[0].Total().Seconds()*1000)
	r.Charts = append(r.Charts,
		"lease cache + crash-time invalidation, crash at 6s, restart at 13s\n"+
			charts.TimeChart(inval, chartW, chartH),
		"lease cache without invalidation, same fault plan\n"+
			charts.TimeChart(stale, chartW, chartH))
	return r
}
