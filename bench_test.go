package dmetabench

// One benchmark per table/figure of the thesis evaluation (see DESIGN.md
// for the experiment index) plus micro-benchmarks of the substrates.
// Each experiment benchmark performs a full simulated run per iteration;
// the headline result is attached via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the complete evaluation.
//
// Experiment benchmarks run their cells serially by default so ns/op
// stays comparable across the committed BENCH_*.json trajectory (a
// wider pool would fold scheduling luck into the numbers). Pass
// -bench-workers N to measure an experiment's parallel wall-clock
// instead; the reported metrics are byte-identical either way.

import (
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/experiments"
	"dmetabench/internal/namespace"
	"dmetabench/internal/nfs"
	"dmetabench/internal/par"
	"dmetabench/internal/realrun"
	"dmetabench/internal/service"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

var benchWorkers = flag.Int("bench-workers", 1,
	"worker pool size for experiment-benchmark cells (1 = serial, snapshot-comparable)")

func TestMain(m *testing.M) {
	flag.Parse()
	par.SetWorkers(*benchWorkers)
	os.Exit(m.Run())
}

// runExperiment executes one experiment per iteration and reports the
// named rows as benchmark metrics.
func runExperiment(b *testing.B, run func() *experiments.Report, metrics ...string) {
	b.Helper()
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = run()
	}
	if rep == nil {
		b.Fatal("experiment returned nil")
	}
	if rep.Err != nil {
		b.Fatalf("%s failed: %v", rep.ID, rep.Err)
	}
	want := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		want[m] = true
	}
	for _, row := range rep.Rows {
		if want[row.Name] {
			unit := row.Unit
			if unit == "" {
				unit = "val"
			}
			b.ReportMetric(row.Value, sanitize(row.Name)+"_"+sanitize(unit))
		}
	}
	if len(rep.Findings) == 0 {
		b.Fatalf("%s produced no findings", rep.ID)
	}
	b.Logf("%s: %s", rep.ID, rep.Findings[0])
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ', r == '/', r == '-':
			out = append(out, '_')
		}
	}
	return string(out)
}

func BenchmarkE01SyscallCounts(b *testing.B) {
	runExperiment(b, experiments.E01SyscallCounts, "ops amplification")
}

func BenchmarkE02HarnessOverhead(b *testing.B) {
	runExperiment(b, experiments.E02HarnessOverhead, "overhead per op")
}

func BenchmarkE03CPUHogCOV(b *testing.B) {
	runExperiment(b, experiments.E03CPUHogCOV,
		"throughput before hog", "throughput during hog", "max COV during hog")
}

func BenchmarkE04SnapshotNoise(b *testing.B) {
	runExperiment(b, experiments.E04SnapshotNoise, "max COV during snapshots")
}

func BenchmarkE05ConsistencyPoints(b *testing.B) {
	runExperiment(b, experiments.E05ConsistencyPoints,
		"peak interval throughput", "trough interval throughput")
}

func BenchmarkE06WriteInterference(b *testing.B) {
	runExperiment(b, experiments.E06WriteInterference,
		"throughput before write", "throughput during write")
}

func BenchmarkE07CreateScaling(b *testing.B) {
	runExperiment(b, experiments.E07CreateScaling,
		"NFS creates/s @ 16 nodes x1", "Lustre creates/s @ 16 nodes x1")
}

func BenchmarkE08LargeDirectories(b *testing.B) {
	runExperiment(b, experiments.E08LargeDirectories,
		"NFS (linear dirs) @ 100000 entries", "NFS/WAFL (hash dirs) @ 100000 entries")
}

func BenchmarkE09AllocationBursts(b *testing.B) {
	runExperiment(b, experiments.E09AllocationBursts,
		"OSS pre-allocation refills", "dip depth")
}

func BenchmarkE10PriorityScheduling(b *testing.B) {
	runExperiment(b, experiments.E10PriorityScheduling,
		"nice 0 ops/s during load", "nice 10 ops/s during load")
}

func BenchmarkE11SMPScaling(b *testing.B) {
	runExperiment(b, experiments.E11SMPScaling,
		"NFS creates/s @ ppn 32", "CXFS creates/s @ ppn 32")
}

func BenchmarkE12LatencySweep(b *testing.B) {
	runExperiment(b, experiments.E12LatencySweep,
		"RTT 10.0ms: NFS creates", "RTT 10.0ms: write-back creates")
}

func BenchmarkE13NamespaceAggregation(b *testing.B) {
	runExperiment(b, experiments.E13NamespaceAggregation,
		"remote efficiency", "per-node volumes @ 8 nodes x4", "single volume @ 8 nodes x4")
}

func BenchmarkE14AFS(b *testing.B) {
	runExperiment(b, experiments.E14AFS,
		"AFS StatNocacheFiles", "NFS StatNocacheFiles")
}

func BenchmarkE15WritebackCaching(b *testing.B) {
	runExperiment(b, experiments.E15WritebackCaching,
		"burst rate (first 200ms)", "sustained rate (4..8s)")
}

func BenchmarkE16ShardScaling(b *testing.B) {
	runExperiment(b, experiments.E16ShardScaling,
		"creates/s @  1 shards", "creates/s @  8 shards", "speedup 1->16 shards")
}

func BenchmarkE17ShardSkew(b *testing.B) {
	runExperiment(b, experiments.E17ShardSkew,
		"hash advantage under skew", "subtree advantage under uniform")
}

func BenchmarkE18CrossShard(b *testing.B) {
	runExperiment(b, experiments.E18CrossShard,
		"cross-shard rename penalty", "merge penalty")
}

func BenchmarkE19Failover(b *testing.B) {
	runExperiment(b, experiments.E19FailoverTimeline,
		"single: outage window", "repl: outage window", "repl: takeover latency")
}

func BenchmarkE20ReplicationOverhead(b *testing.B) {
	runExperiment(b, experiments.E20ReplicationOverhead,
		"replication cost @ 2 shards", "replication cost @ 8 shards")
}

func BenchmarkE21RecoveryScaling(b *testing.B) {
	runExperiment(b, experiments.E21RecoveryScaling, "detection floor")
}

func BenchmarkE22LeaseTTL(b *testing.B) {
	runExperiment(b, experiments.E22LeaseTTL,
		"lease  25ms: hit rate", "lease    4s: hit rate")
}

func BenchmarkE23CacheModes(b *testing.B) {
	runExperiment(b, experiments.E23CacheModes,
		"4 shards: lease 30s hit rate", "4 shards: ttl 3s hit rate")
}

func BenchmarkE24FailoverCachedLoad(b *testing.B) {
	runExperiment(b, experiments.E24FailoverCachedLoad,
		"invalidate: stale-read window", "no invalidate: stale-read window")
}

func BenchmarkE25SplitScaling(b *testing.B) {
	runExperiment(b, experiments.E25SplitScaling,
		"creates/s @  8 shards, split off", "creates/s @  8 shards, split on",
		"split advantage @ 8 shards")
}

func BenchmarkE26SplitStorm(b *testing.B) {
	runExperiment(b, experiments.E26SplitStorm,
		"threshold   512: deepest split dip", "threshold  8192: deepest split dip")
}

func BenchmarkE27SplitRouting(b *testing.B) {
	runExperiment(b, experiments.E27SplitRouting,
		"bitmap ttl  50ms: bounces/revisit", "bitmap ttl   10s: bounces/revisit",
		"fan-out penalty")
}

func BenchmarkE28BackendProfile(b *testing.B) {
	runExperiment(b, experiments.E28BackendProfile,
		"memjournal: create", "btree     : create", "lsm ENOENT discount")
}

func BenchmarkE29CompactionTimeline(b *testing.B) {
	runExperiment(b, experiments.E29CompactionTimeline,
		"compact every  2MB: deepest dip", "compact every 32MB: deepest dip")
}

func BenchmarkE30GroupCommit(b *testing.B) {
	runExperiment(b, experiments.E30GroupCommit,
		"throughput cost, window    0us", "mirror traffic, window 4000us")
}

// scaledPeriod wraps a long-horizon experiment (E31-E33) with a reduced
// virtual-time horizon: the defaults simulate hours per cell, which is
// more than a benchmark iteration should cost. The scaled runs keep the
// full pipeline — aggregate injection, stage harness, interval series.
func scaledPeriod(d time.Duration, run func() *experiments.Report) func() *experiments.Report {
	return func() *experiments.Report {
		old := experiments.Period
		experiments.Period = d
		defer func() { experiments.Period = old }()
		return run()
	}
}

func BenchmarkE31AggregateDay(b *testing.B) {
	runExperiment(b, scaledPeriod(10*time.Minute, experiments.E31AggregateDay),
		"diurnal        mean background", "diurnal+flash  peak/trough",
		"diurnal+flash  shed fraction")
}

func BenchmarkE32ForegroundTail(b *testing.B) {
	runExperiment(b, scaledPeriod(10*time.Minute, experiments.E32ForegroundTail),
		"10k   clients  shared  p99", "1M    clients  shared  p99")
}

func BenchmarkE33CapacityPressure(b *testing.B) {
	runExperiment(b, scaledPeriod(10*time.Minute, experiments.E33CapacityPressure),
		"1M    clients  server lease entries", "1M    clients  modeled per-client table")
}

func BenchmarkE35FilerAtScale(b *testing.B) {
	runExperiment(b, scaledPeriod(10*time.Minute, experiments.E35FilerAtScale),
		"shed fraction", "loaded  foreground p99")
}

func BenchmarkA01AveragingMethods(b *testing.B) {
	runExperiment(b, experiments.A01AveragingMethods,
		"wall-clock average", "stonewall average")
}

func BenchmarkA02WritebackWindow(b *testing.B) {
	runExperiment(b, experiments.A02WritebackWindow,
		"window  4096: burst", "window  4096: sustained")
}

// --- substrate micro-benchmarks ---

// BenchmarkSimulatedCreate measures the real-time cost of one simulated
// NFS create — the simulator's own efficiency (DESIGN.md ablation).
func BenchmarkSimulatedCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := nfs.New(k, "bench", nfs.DefaultConfig())
	k.Spawn("creator", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < b.N; i++ {
			if i%5000 == 0 {
				c.Mkdir(fmt.Sprintf("/d/s%d", i/5000))
			}
			c.Create(fmt.Sprintf("/d/s%d/%d", i/5000, i))
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShardedCreate measures the real-time cost of one simulated
// create on the sharded MDS model (4 shards, hash placement) — the
// multi-server counterpart of BenchmarkSimulatedCreate.
func BenchmarkShardedCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := shard.New(k, "bench", shard.DefaultConfig(4))
	k.Spawn("creator", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < b.N; i++ {
			if i%5000 == 0 {
				c.Mkdir(fmt.Sprintf("/d/s%d", i/5000))
			}
			c.Create(fmt.Sprintf("/d/s%d/%d", i/5000, i))
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkDomainCreate measures the real-time cost of one simulated
// create on the domained sharded MDS (8 shards partitioned into 9
// event-kernel domains, 8 concurrent client processes): the
// conservative-lookahead substrate — window barriers, cross-domain
// mailboxes, RPCs that migrate the caller into the shard's domain and
// back — on top of the BenchmarkShardedCreate path, gated alongside it.
func BenchmarkDomainCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(8))
	cfg := shard.DefaultConfig(8)
	cfg.Domains = 9
	fsys := shard.New(k, "bench", cfg)
	per := b.N/8 + 1
	for c := 0; c < 8; c++ {
		c := c
		k.Spawn(fmt.Sprintf("creator-%d", c), func(p *sim.Proc) {
			cli := fsys.NewClient(cl.Nodes[c], p)
			cli.Mkdir(fmt.Sprintf("/d%d", c))
			for i := 0; i < per; i++ {
				if i%5000 == 0 {
					cli.Mkdir(fmt.Sprintf("/d%d/s%d", c, i/5000))
				}
				cli.Create(fmt.Sprintf("/d%d/s%d/%d", c, i/5000, i))
			}
		})
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// domainedCell runs one heavy replicated 8-shard cell — E20's 16-node x
// 4-process create load — with the given domain partitioning and worker
// pool, and returns the FS for counter readout.
func domainedCell(domains, workers int) *shard.FS {
	k := sim.New(1600)
	cl := cluster.New(k, cluster.DefaultConfig(16))
	cfg := shard.DefaultConfig(8)
	cfg.Replicate = true
	cfg.Domains = domains
	fsys := shard.New(k, "bench", cfg)
	if g := fsys.Group(); g != nil && workers > 0 {
		g.Workers = workers
	}
	r := &core.Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       core.Params{ProblemSize: 500, WorkDir: "/"},
		SlotsPerNode: 4,
		Plugins:      []core.Plugin{core.MakeFiles{}},
		Filter:       func(c core.Combo) bool { return c.Nodes == 16 && c.PPN == 4 },
	}
	if _, err := r.Run(); err != nil {
		panic(err)
	}
	return fsys
}

// BenchmarkDomainedCell measures the wall-clock of one heavy replicated
// 8-shard cell on the single-heap kernel vs partitioned into 9 kernel
// domains (8 shard domains + the client domain) on a full worker pool.
// The domained runs additionally report their parallelism headroom:
// total events dispatched divided by the busiest domain's share — the
// wall-clock speedup bound an ideal multi-core run converges to (see
// DESIGN.md, "Parallel DES"). On a single-core host the domained
// wall-clock shows pure protocol overhead; the headroom metric is
// hardware-independent.
func BenchmarkDomainedCell(b *testing.B) {
	headroom := func(f *shard.FS) float64 {
		g := f.Group()
		var tot, max int64
		for i := 0; i < g.NumDomains(); i++ {
			d := g.Kernel(i).Dispatched()
			tot += d
			if d > max {
				max = d
			}
		}
		return float64(tot) / float64(max)
	}
	b.Run("single-heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			domainedCell(0, 0)
		}
	})
	b.Run("domains-9-workers-1", func(b *testing.B) {
		var f *shard.FS
		for i := 0; i < b.N; i++ {
			f = domainedCell(9, 1)
		}
		b.ReportMetric(headroom(f), "headroomx")
	})
	b.Run("domains-9-workers-8", func(b *testing.B) {
		var f *shard.FS
		for i := 0; i < b.N; i++ {
			f = domainedCell(9, 8)
		}
		b.ReportMetric(headroom(f), "headroomx")
	})
}

// BenchmarkCachedGetattr measures the real-time cost of one coherent
// cache hit: a stat served from a live lease on the sharded MDS model
// (4 shards, lease mode) — the fast path every E22–E24 run spends most
// of its operations on, gated alongside SimulatedCreate.
func BenchmarkCachedGetattr(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	cfg := shard.DefaultConfig(4)
	cfg.CacheMode = shard.CacheLease
	cfg.LeaseTTL = time.Hour
	fsys := shard.New(k, "bench", cfg)
	k.Spawn("statter", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		c.Create("/d/f")
		if _, err := c.Stat("/d/f"); err != nil { // take the lease
			b.Error(err)
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Stat("/d/f"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBackendCreate measures the real-time cost of one simulated
// create on the LSM-backed sharded MDS (4 shards, hash placement): the
// backend pricing hooks — opInfo classification, the factor multiply,
// write-amplified logging and compaction-debt bookkeeping — on top of
// the BenchmarkShardedCreate path, gated alongside it.
func BenchmarkBackendCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	cfg := shard.DefaultConfig(4)
	cfg.Backend = shard.BackendLSM
	fsys := shard.New(k, "bench", cfg)
	k.Spawn("creator", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/d")
		for i := 0; i < b.N; i++ {
			if i%5000 == 0 {
				c.Mkdir(fmt.Sprintf("/d/s%d", i/5000))
			}
			c.Create(fmt.Sprintf("/d/s%d/%d", i/5000, i))
		}
	})
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSplitCreate measures the real-time cost of one simulated
// create into an already-split giant directory (4 shards, split level
// capped): the steady-state split path every E25–E27 run spends most of
// its operations on — bitmap routing, partition hashing, the split-aware
// owner resolution — gated alongside SimulatedCreate.
func BenchmarkSplitCreate(b *testing.B) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	cfg := shard.DefaultConfig(4)
	cfg.SplitThreshold = 256
	fsys := shard.New(k, "bench", cfg)
	k.Spawn("creator", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		c.Mkdir("/wide")
		for i := 0; i < 2000; i++ {
			c.Create(fmt.Sprintf("/wide/w%d", i))
		}
		if fsys.SplitLevel("/wide") == 0 {
			b.Error("directory did not split during setup")
			return
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Create(fmt.Sprintf("/wide/b%d", i))
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAggregateInject measures the real-time cost per injected
// background operation of the aggregate arrival path (E31-E33): source
// draw, batch pricing and the pool hold, across 4 shards x 4 injector
// lanes. Each lane is a sim task, so its wake-ups at the tick boundary,
// on a granted thread and at the end of a hold are direct calls from
// the dispatch loop, not coroutine switches. The per-iteration work is
// one modeled operation, not one simulated client — that is the point
// of the aggregate model — and the steady-state loop is allocation-free
// (bench_gate.sh fails the build if allocs/op ever leaves 0).
func BenchmarkAggregateInject(b *testing.B) {
	k := sim.New(1)
	fsys := shard.New(k, "bench", shard.DefaultConfig(4))
	const perTick = 64 // per lane per tick: 2.56ms priced vs a 10ms tick
	const tick = 10 * time.Millisecond
	fsys.AttachAggregate(tick, func(_, _, _ int) service.Demand {
		return service.Demand{Getattr: perTick}
	})
	lanes := 4 * 4
	ticks := b.N/(lanes*perTick) + 1
	k.Spawn("horizon", func(p *sim.Proc) {
		p.Sleep(time.Duration(ticks) * tick)
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelHandoff measures one park/resume round trip between two
// processes — the kernel-handoff rung of the per-op layer ledger: they
// ping-pong a pair of sim.Semaphores, so each iteration blocks and
// resumes each side once. The steady state is allocation-free
// (bench_gate.sh guards 0 allocs/op).
func BenchmarkKernelHandoff(b *testing.B) {
	k := sim.New(1)
	ping, pong := sim.NewSemaphore(k, "ping", 0), sim.NewSemaphore(k, "pong", 0)
	k.Spawn("ping", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ping.Release(1)
			pong.Acquire(p, 1)
		}
	})
	k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ping.Acquire(p, 1)
			pong.Release(1)
		}
	})
	b.ReportAllocs()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelSpawn measures one short process lifetime: a parent
// spawns a child and joins it. Finished bodies hand their carrier to the
// next process, so the steady state starts no goroutine (bench_gate.sh
// caps it at 3 allocs/op).
func BenchmarkKernelSpawn(b *testing.B) {
	k := sim.New(1)
	child := func(q *sim.Proc) { q.Sleep(time.Microsecond) }
	k.Spawn("parent", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Join(p.Spawn("child", child))
		}
	})
	b.ReportAllocs()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNamespaceCreate measures the raw data-structure cost.
func BenchmarkNamespaceCreate(b *testing.B) {
	ns := namespace.New()
	ns.Mkdir("/d", 0o755, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			ns.Mkdir(fmt.Sprintf("/d/s%d", i/10000), 0o755, 0)
		}
		ns.Create(fmt.Sprintf("/d/s%d/%d", i/10000, i), 0o644, 0)
	}
}

// BenchmarkOSClientCreate measures real create+unlink pairs on the host
// file system through the benchmark API.
func BenchmarkOSClientCreate(b *testing.B) {
	c := realrun.NewOSClient(b.TempDir())
	c.Mkdir("/d")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("/d/%d", i)
		if err := c.Create(name); err != nil {
			b.Fatal(err)
		}
		if err := c.Unlink(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerMeasurement measures a complete framework measurement
// cycle (prepare/doBench/cleanup with supervisor) end to end.
func BenchmarkRunnerMeasurement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.New(int64(i))
		cl := cluster.New(k, cluster.DefaultConfig(2))
		fsys := nfs.New(k, "home", nfs.DefaultConfig())
		r := &core.Runner{
			Cluster:      cl,
			FS:           fsys,
			Params:       core.Params{ProblemSize: 500, WorkDir: "/bench"},
			SlotsPerNode: 1,
			Plugins:      []core.Plugin{core.MakeFiles{}},
			Filter:       func(c core.Combo) bool { return c.Nodes == 2 },
		}
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInterval quantifies the DESIGN.md ablation: result
// fidelity and cost of the 0.1 s interval grid vs. a coarser 1 s grid.
func BenchmarkAblationInterval(b *testing.B) {
	for _, interval := range []time.Duration{100 * time.Millisecond, time.Second} {
		interval := interval
		b.Run(interval.String(), func(b *testing.B) {
			var stone float64
			for i := 0; i < b.N; i++ {
				k := sim.New(3)
				cl := cluster.New(k, cluster.DefaultConfig(4))
				fsys := nfs.New(k, "home", nfs.DefaultConfig())
				r := &core.Runner{
					Cluster: cl,
					FS:      fsys,
					Params: core.Params{
						ProblemSize: 5000, TimeLimit: 10 * time.Second,
						WorkDir: "/bench", Interval: interval,
					},
					SlotsPerNode: 1,
					Plugins:      []core.Plugin{core.MakeFiles{}},
					Filter:       func(c core.Combo) bool { return c.Nodes == 4 },
				}
				set, err := r.Run()
				if err != nil {
					b.Fatal(err)
				}
				stone = set.Measurements[0].Averages().Stonewall
			}
			b.ReportMetric(stone, "stonewall_ops_per_s")
		})
	}
}
