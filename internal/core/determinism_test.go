package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"dmetabench/internal/agg"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fault"
	"dmetabench/internal/lustre"
	"dmetabench/internal/namespace"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
	"dmetabench/internal/service"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
	"dmetabench/internal/workload"
)

// runAndSave executes one canonical experiment with the given seed
// and returns the serialized result set as a map of file name to content.
// domains > 1 partitions the shard-mode simulations into that many kernel
// domains with the given worker-pool size; both are ignored for the
// NFS, Lustre and stage modes. Every server namespace must pass fsck (Check) after
// the run.
func runAndSave(t *testing.T, seed int64, mode string, domains, workers int) map[string]string {
	t.Helper()
	k := sim.New(seed)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	var r interface{ Run() (*results.Set, error) }
	var grouped *shard.FS
	var servers []*namespace.Namespace
	sharded := func(fsys *shard.FS) {
		grouped = fsys
		for i := 0; i < fsys.NumShards(); i++ {
			servers = append(servers, fsys.Namespace(i))
		}
	}
	switch mode {
	case "shard-hash", "shard-subtree":
		cfg := shard.DefaultConfig(4)
		cfg.Domains = domains
		if mode == "shard-subtree" {
			cfg.Placement = shard.PlaceSubtree
		}
		fsys := shard.New(k, "meta", cfg)
		sharded(fsys)
		r = &Runner{
			Cluster:      cl,
			FS:           fsys,
			Params:       Params{ProblemSize: 200, WorkDir: "/bench"},
			SlotsPerNode: 2,
			// ZipfDirFiles exercises broadcasts and skewed routing;
			// RenameFiles adds the migrating cross-shard path.
			Plugins: []Plugin{
				ZipfDirFiles{Projects: 6, SubdirsPerProject: 4, Skew: 1.4, MkdirEvery: 25},
				MakeFiles{}, RenameFiles{},
			},
		}
	case "shard-failover":
		// Replicated shards with a mid-run crash and restart: takeover,
		// journal replay, client retry backoff and failback must all
		// happen at identical virtual times across identically-seeded
		// runs.
		cfg := shard.DefaultConfig(4)
		cfg.Replicate = true
		cfg.TakeoverDetect = 100 * time.Millisecond
		cfg.Domains = domains
		fsys := shard.New(k, "meta", cfg)
		sharded(fsys)
		plan := (&fault.Plan{}).Outage(200*time.Millisecond, 700*time.Millisecond, 1)
		r = &Runner{
			Cluster: cl,
			FS:      fsys,
			Params: Params{ProblemSize: 250, WorkDir: "/bench",
				TimeLimit: 1500 * time.Millisecond, Interval: 100 * time.Millisecond},
			SlotsPerNode: 2,
			Plugins:      []Plugin{MakeFiles{}},
			BenchStartHook: func(mp *sim.Proc, _ MeasurementInfo) {
				plan.Start(mp, fsys)
			},
		}
	case "shard-coherent":
		// Lease-coherent client caches on a replicated sharded service
		// under a mid-run crash: lease grants, revocation callbacks,
		// delegation handoffs, the takeover's epoch bump (bulk lease
		// invalidation) and the post-failover refetches must all land
		// at identical virtual times across identically-seeded runs.
		cfg := shard.DefaultConfig(4)
		cfg.Replicate = true
		cfg.CacheMode = shard.CacheLease
		cfg.TrackStaleness = true
		cfg.LeaseTTL = 2 * time.Second
		cfg.TakeoverDetect = 100 * time.Millisecond
		cfg.Domains = domains
		fsys := shard.New(k, "meta", cfg)
		sharded(fsys)
		plan := (&fault.Plan{}).Outage(300*time.Millisecond, 900*time.Millisecond, 1)
		r = &Runner{
			Cluster: cl,
			FS:      fsys,
			Params: Params{ProblemSize: 300, WorkDir: "/bench",
				TimeLimit: 1300 * time.Millisecond, Interval: 100 * time.Millisecond},
			SlotsPerNode: 2,
			Plugins:      []Plugin{StatMutateFiles{Files: 48, MutateEvery: 5}, MakeFiles{}},
			BenchStartHook: func(mp *sim.Proc, _ MeasurementInfo) {
				plan.Start(mp, fsys)
			},
		}
	case "shard-split":
		// Giant-directory splitting under lease coherence and fault
		// injection: WideDirFiles pushes one shared directory over the
		// split threshold repeatedly while a shard crashes and restarts
		// mid-run, so split migrations, bounce routing, bitmap
		// revocations and a split racing the takeover/failback must all
		// land at identical virtual times across identically-seeded
		// runs.
		cfg := shard.DefaultConfig(4)
		cfg.Replicate = true
		cfg.SplitThreshold = 48
		cfg.CacheMode = shard.CacheLease
		cfg.TrackStaleness = true
		cfg.LeaseTTL = 2 * time.Second
		cfg.TakeoverDetect = 100 * time.Millisecond
		cfg.Domains = domains
		fsys := shard.New(k, "meta", cfg)
		sharded(fsys)
		plan := (&fault.Plan{}).Outage(150*time.Millisecond, 800*time.Millisecond, 1)
		r = &Runner{
			Cluster: cl,
			FS:      fsys,
			Params: Params{ProblemSize: 300, WorkDir: "/bench",
				TimeLimit: 1400 * time.Millisecond, Interval: 100 * time.Millisecond},
			SlotsPerNode: 2,
			Plugins:      []Plugin{WideDirFiles{StatEvery: 7}},
			BenchStartHook: func(mp *sim.Proc, _ MeasurementInfo) {
				plan.Start(mp, fsys)
			},
		}
	case "shard-lsm":
		// LSM backend with group commit under fault injection: batched
		// flushes, deterministic compaction-pause windows, a compaction
		// racing the crash/takeover and replay priced by the backend's
		// ReplayFactor must all land at identical virtual times across
		// identically-seeded runs.
		cfg := shard.DefaultConfig(4)
		cfg.Replicate = true
		cfg.Backend = shard.BackendLSM
		cfg.CompactEvery = 32 << 10
		cfg.GroupCommitWindow = time.Millisecond
		cfg.TakeoverDetect = 100 * time.Millisecond
		cfg.Domains = domains
		fsys := shard.New(k, "meta", cfg)
		sharded(fsys)
		plan := (&fault.Plan{}).Outage(200*time.Millisecond, 700*time.Millisecond, 1)
		r = &Runner{
			Cluster: cl,
			FS:      fsys,
			Params: Params{ProblemSize: 250, WorkDir: "/bench",
				TimeLimit: 1500 * time.Millisecond, Interval: 100 * time.Millisecond},
			SlotsPerNode: 2,
			Plugins:      []Plugin{MakeFiles{}},
			BenchStartHook: func(mp *sim.Proc, _ MeasurementInfo) {
				plan.Start(mp, fsys)
			},
		}
	case "shard-agg":
		// One million aggregate background clients injected as priced
		// arrival batches (Zipf popularity, diurnal modulation, flash
		// spikes, session churn) under a lease-coherent foreground
		// workload: every stochastic draw is a pure function of (seed,
		// source, tick), so the injected holds — and the queueing they
		// impose on the foreground — must land at identical virtual
		// times at any domain/worker split.
		cfg := shard.DefaultConfig(4)
		cfg.CacheMode = shard.CacheLease
		cfg.Domains = domains
		fsys := shard.New(k, "meta", cfg)
		sharded(fsys)
		lanes := cfg.ShardThreads
		model := agg.Model{
			Clients:      1_000_000,
			OpsPerClient: 0.2,
			Mix:          workload.DefaultMetaMix(),
			Zipf:         agg.ZipfPop{S: 1.2, V: 1, N: 128},
			Diurnal:      agg.Diurnal{Amplitude: 0.5, Period: 800 * time.Millisecond},
			Spikes:       agg.Spikes{MeanInterval: 300 * time.Millisecond, Peak: 2, Decay: 50 * time.Millisecond},
			Churn:        agg.Churn{ActiveFrac: 0.5, SessionMean: 500 * time.Millisecond, Tick: 10 * time.Millisecond},
			Tick:         10 * time.Millisecond,
			Seed:         seed,
		}
		sources := agg.NewSources(model, cfg.NumShards, lanes,
			func(obj int) int { return obj % cfg.NumShards })
		fsys.AttachAggregate(model.Tick, func(si, lane, tick int) service.Demand {
			return sources[si*lanes+lane].Tick(int64(tick))
		})
		r = &Runner{
			Cluster: cl,
			FS:      fsys,
			Params: Params{ProblemSize: 250, WorkDir: "/bench",
				TimeLimit: 1200 * time.Millisecond, Interval: 100 * time.Millisecond},
			SlotsPerNode: 2,
			Plugins:      []Plugin{StatMutateFiles{Files: 32, MutateEvery: 4}, MakeFiles{}},
		}
	case "shard-lsm-agg":
		// The domained-only mode: the replicated 4-shard MDS on the LSM
		// backend with group commit, under one million aggregate
		// background clients and no fault plan (kernel domains refuse a
		// crash). Group-commit batches, their mirror round trips,
		// compaction stalls recorded from several domains and the
		// injector lanes must land at identical virtual times at any
		// worker count.
		cfg := shard.DefaultConfig(4)
		cfg.Replicate = true
		cfg.Backend = shard.BackendLSM
		cfg.CompactEvery = 32 << 10
		cfg.GroupCommitWindow = time.Millisecond
		cfg.Domains = domains
		fsys := shard.New(k, "meta", cfg)
		sharded(fsys)
		lanes := cfg.ShardThreads
		model := agg.Model{
			Clients:      1_000_000,
			OpsPerClient: 0.2,
			Mix:          workload.DefaultMetaMix(),
			Zipf:         agg.ZipfPop{S: 1.2, V: 1, N: 128},
			Diurnal:      agg.Diurnal{Amplitude: 0.5, Period: 800 * time.Millisecond},
			Tick:         10 * time.Millisecond,
			Seed:         seed,
		}
		sources := agg.NewSources(model, cfg.NumShards, lanes,
			func(obj int) int { return obj % cfg.NumShards })
		fsys.AttachAggregate(model.Tick, func(si, lane, tick int) service.Demand {
			return sources[si*lanes+lane].Tick(int64(tick))
		})
		r = &Runner{
			Cluster: cl,
			FS:      fsys,
			Params: Params{ProblemSize: 250, WorkDir: "/bench",
				TimeLimit: 1200 * time.Millisecond, Interval: 100 * time.Millisecond},
			SlotsPerNode: 2,
			Plugins:      []Plugin{MakeFiles{}, StatFiles{}},
		}
	case "nfs-zipf":
		// The single filer under skewed directory traffic: mkdirs,
		// creates, renames and stats across a Zipf-weighted project
		// tree, with the dentry and attribute fills the LOOKUP, CREATE,
		// MKDIR and RENAME replies carry.
		fsys := nfs.New(k, "home", nfs.DefaultConfig())
		servers = append(servers, fsys.Namespace())
		r = &Runner{
			Cluster: cl,
			FS:      fsys,
			Params: Params{ProblemSize: 250, WorkDir: "/bench",
				TimeLimit: time.Second, Interval: 100 * time.Millisecond},
			SlotsPerNode: 2,
			Plugins: []Plugin{
				ZipfDirFiles{Projects: 4, SubdirsPerProject: 3, Skew: 1.2, MkdirEvery: 20},
				MakeFiles{}, RenameFiles{}, StatFiles{},
			},
		}
	case "stage":
		// The long-horizon stage harness on a plain kernel: three probes
		// on two nodes watch one NFS filer loaded by aggregate background
		// lanes whose counter feeds Aux. Stage one runs the default
		// prepare and stat probe, stage two a custom create probe; the
		// series (throughput, COV, Aux, percentiles) and the per-stage
		// traces must land identically across identically-seeded runs.
		cfg := nfs.DefaultConfig()
		fsys := nfs.New(k, "home", cfg)
		servers = append(servers, fsys.Namespace())
		const tick = 5 * time.Millisecond
		model := agg.Model{
			Clients:      100_000,
			OpsPerClient: 0.5,
			Mix:          workload.DefaultMetaMix(),
			Zipf:         agg.ZipfPop{S: 1.1, V: 1, N: 64},
			Diurnal:      agg.Diurnal{Amplitude: 0.5, Period: time.Second},
			Tick:         tick,
			Seed:         seed,
		}
		sources := agg.NewSources(model, 1, cfg.ServerThreads, func(int) int { return 0 })
		fsys.AttachAggregate(tick, func(_, lane, i int) service.Demand {
			return sources[lane].Tick(int64(i))
		})
		r = &StageRunner{
			Cluster:  cl,
			FS:       fsys,
			Probes:   3,
			Interval: 25 * time.Millisecond,
			Think:    time.Millisecond,
			Label:    "stage",
			Stages: []Stage{
				{Name: "stat", Duration: 250 * time.Millisecond},
				{Name: "create", Duration: 250 * time.Millisecond, Op: func(c *Ctx, i int) error {
					return c.FS.Create(fileName(c.Dir, defaultProbeFiles+i))
				}},
			},
			Aux: func() int64 {
				ops, _, _ := fsys.AggCounts()
				return ops
			},
		}
	case "lustre-writeback":
		cfg := lustre.DefaultConfig()
		cfg.Writeback = true
		fsys := lustre.New(k, "scratch", cfg)
		servers = append(servers, fsys.Namespace())
		r = &Runner{
			Cluster:      cl,
			FS:           fsys,
			Params:       Params{ProblemSize: 400, WorkDir: "/bench"},
			SlotsPerNode: 2,
			Plugins:      []Plugin{MakeFiles{}},
		}
	default:
		fsys := nfs.New(k, "home", nfs.DefaultConfig())
		servers = append(servers, fsys.Namespace())
		r = &Runner{
			Cluster: cl,
			FS:      fsys,
			Params: Params{ProblemSize: 300, WorkDir: "/bench",
				TimeLimit: time.Second, Interval: 100 * time.Millisecond},
			SlotsPerNode: 2,
			Plugins:      []Plugin{MakeFiles{}, StatFiles{}, DeleteFiles{}},
		}
	}
	if grouped != nil && grouped.Group() != nil && workers > 0 {
		grouped.Group().Workers = workers
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) == 0 {
		t.Fatalf("mode %s names no server namespace", mode)
	}
	for i, ns := range servers {
		if problems := ns.Check(); len(problems) != 0 {
			t.Errorf("%s: server namespace %d fails fsck: %v", mode, i, problems)
		}
	}
	dir := t.TempDir()
	if err := set.Save(dir); err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	if grouped != nil {
		// Compaction stalls are appended from several domains at once
		// under a domain group; their recorded order must not depend on
		// thread timing either.
		files["compactions"] = fmt.Sprint(grouped.Compactions)
	}
	return files
}

// TestRunnerDeterministic is the safety net for the event-kernel fast
// paths: two runs with the same seed must produce byte-identical
// serialized result sets — identical traces, identical interval
// sampling, identical environment. It covers the synchronous NFS model,
// the Lustre write-back model (daemon flushers, queues, semaphore
// windows exercise every scheduling primitive), the sharded MDS
// model under both placement policies (broadcast replication, peer
// pools, Zipf routing and cross-shard migrates), the replicated
// sharded model under fault injection (crash, timer-driven takeover,
// retry backoff, restart recovery and failback), the lease-coherent
// client cache under fault injection (grants, revocation callbacks,
// delegations, crash-time epoch invalidation), and giant-directory
// splitting racing a crash/takeover (migrations, bounce routing,
// bitmap revocations), and the stage harness (per-stage traces, the
// interval series and its Aux readings).
func TestRunnerDeterministic(t *testing.T) {
	for _, mode := range []string{
		"nfs-timed", "lustre-writeback", "shard-hash", "shard-subtree",
		"shard-failover", "shard-coherent", "shard-split", "shard-lsm",
		"shard-agg", "nfs-zipf", "stage",
	} {
		t.Run(mode, func(t *testing.T) {
			diffSets(t,
				runAndSave(t, 77, mode, 0, 0),
				runAndSave(t, 77, mode, 0, 0),
				"identically-seeded runs")
		})
	}
}

// diffSets fails the test if the two serialized result sets are not
// byte-identical.
func diffSets(t *testing.T, a, b map[string]string, what string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("file counts differ between %s: %d vs %d", what, len(a), len(b))
	}
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if a[n] != b[n] {
			t.Errorf("%s differs between %s", n, what)
		}
	}
}

// shardModes are the TestRunnerDeterministic modes that run on the
// sharded MDS model.
var shardModes = []string{
	"shard-hash", "shard-subtree", "shard-failover",
	"shard-coherent", "shard-split", "shard-lsm", "shard-agg",
}

// TestRunnerDeterministicDomains is the parallel-DES determinism matrix:
// the shard modes that kernel domains can run (a static partition: no
// crash, lease or split) are run partitioned into 5 kernel domains (4
// shard domains + the client domain) and byte-diffed between a single
// worker thread and a full pool. Broadcasts, cross-shard renames,
// mirrors, group-commit batches, LSM compactions and injected load must
// all land at identical virtual times no matter how the domains are
// scheduled onto OS threads.
func TestRunnerDeterministicDomains(t *testing.T) {
	for _, mode := range []string{"shard-hash", "shard-subtree", "shard-lsm-agg"} {
		t.Run(mode, func(t *testing.T) {
			diffSets(t,
				runAndSave(t, 77, mode, 5, 1),
				runAndSave(t, 77, mode, 5, 8),
				"1-worker and 8-worker domained runs")
		})
	}
}

// TestRunnerDomainsDisabledIsLegacy pins the compatibility contract:
// Domains<=1 must be byte-identical to the single-heap kernel, so the
// committed experiment corpus stays reproducible with the feature off.
func TestRunnerDomainsDisabledIsLegacy(t *testing.T) {
	for _, mode := range shardModes {
		t.Run(mode, func(t *testing.T) {
			diffSets(t,
				runAndSave(t, 77, mode, 0, 0),
				runAndSave(t, 77, mode, 1, 1),
				"Domains=0 and Domains=1 runs")
		})
	}
}
