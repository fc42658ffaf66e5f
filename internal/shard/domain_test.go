package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dmetabench/internal/agg"
	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/service"
	"dmetabench/internal/sim"
	"dmetabench/internal/workload"
)

// domainFingerprint summarizes one finished run: end time, the FS-wide
// counters, per-shard load, and the final presence of every workload
// path. Two runs of the same configuration must produce identical
// fingerprints regardless of worker threads.
func domainFingerprint(k *sim.Kernel, f *FS, paths []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "end=%v rpcs=%d cross=%d bcast=%d mirror=%d takeovers=%d splitmoved=%d bounces=%d revocations=%d\n",
		k.Now(), f.RPCCount(), f.CrossCount, f.BroadcastCount, f.MirrorCount,
		len(f.Takeovers), f.SplitMoved, f.Bounces, f.Revocations)
	fmt.Fprintf(&b, "ops=%v\n", f.ShardOps())
	aggOps, aggShed, aggBusy := f.AggCounts()
	fmt.Fprintf(&b, "agg=%d shed=%d busy=%v\n", aggOps, aggShed, aggBusy)
	for _, p := range paths {
		st := "absent"
		if _, err := f.Namespace(f.ShardOfEntry(p)).Stat(p); err == nil {
			st = "present"
		}
		fmt.Fprintf(&b, "%s=%s\n", p, st)
	}
	return b.String()
}

// domainWorkloadPaths returns the file paths the workload touches.
func domainWorkloadPaths(clients, files int) []string {
	var paths []string
	for c := 0; c < clients; c++ {
		for i := 0; i < files; i++ {
			paths = append(paths, fmt.Sprintf("/dir%d/f%d-%d", c%3, c, i))
		}
	}
	return paths
}

// runDomainWorkload drives a mixed metadata workload (creates, stats,
// opens/writes, readdirs, unlinks) from several concurrent client
// processes, optionally with a crash/takeover/failback in the middle,
// and returns the run's fingerprint.
func runDomainWorkload(t *testing.T, cfg Config, workers int, faults bool) string {
	return runDomainWorkloadHook(t, cfg, workers, faults, nil)
}

// runDomainWorkloadHook additionally calls attach on the built FS before
// any process runs — the seam the aggregate-injection case uses.
func runDomainWorkloadHook(t *testing.T, cfg Config, workers int, faults bool, attach func(*FS)) string {
	t.Helper()
	const clients, files = 4, 40
	k := sim.New(7)
	cl := cluster.New(k, cluster.DefaultConfig(clients))
	f := New(k, "dom", cfg)
	if attach != nil {
		attach(f)
	}
	if cfg.Domains > 1 {
		g := f.Group()
		if g == nil {
			t.Fatal("Domains > 1 built no domain group")
		}
		g.Workers = workers
	} else if f.Group() != nil {
		t.Fatal("Domains <= 1 must stay on the single-heap kernel")
	}
	for c := 0; c < clients; c++ {
		c := c
		node := cl.Nodes[c]
		k.Spawn(fmt.Sprintf("client-%d", c), func(p *sim.Proc) {
			cli := f.NewClient(node, p)
			cli.Mkdir(fmt.Sprintf("/dir%d", c%3))
			for i := 0; i < files; i++ {
				path := fmt.Sprintf("/dir%d/f%d-%d", c%3, c, i)
				cli.Create(path)
				cli.Stat(path)
				if i%5 == 0 {
					if h, err := cli.Open(path); err == nil {
						cli.Write(h, 4096)
						cli.Close(h)
					}
				}
				if i%7 == 0 {
					cli.ReadDir(fmt.Sprintf("/dir%d", c%3))
				}
				if i%11 == 3 {
					cli.Unlink(path)
					cli.Create(path)
				}
			}
		})
	}
	if faults {
		k.Spawn("fault", func(p *sim.Proc) {
			p.Sleep(3 * time.Millisecond)
			f.Crash(p, 1)
			p.Sleep(400 * time.Millisecond)
			f.Restart(p, 1)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	return domainFingerprint(k, f, domainWorkloadPaths(clients, files))
}

// TestDomainedDeterministic pins the worker-count invariance of the
// domained shard model: the same configuration produces byte-identical
// results on one worker thread and on a full pool, with and without
// crash/takeover/failback and split storms in the mix.
func TestDomainedDeterministic(t *testing.T) {
	base := DefaultConfig(8)
	base.Domains = 9

	lease := base
	lease.CacheMode = CacheLease

	stress := base
	stress.Replicate = true
	stress.CacheMode = CacheLease
	stress.SplitThreshold = 16

	cases := []struct {
		name   string
		cfg    Config
		faults bool
	}{
		{"plain", base, false},
		{"lease", lease, false},
		{"faults-splits", stress, true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			one := runDomainWorkload(t, tc.cfg, 1, tc.faults)
			many := runDomainWorkload(t, tc.cfg, 8, tc.faults)
			if one != many {
				t.Errorf("fingerprints differ between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", one, many)
			}
		})
	}
}

// attachMillionClients wires an aggregate arrival process for one
// million analytically-modeled background clients (Zipf popularity,
// diurnal + spike rate modulation, session churn) into every shard of f.
func attachMillionClients(f *FS, shards int) {
	lanes := f.cfg.ShardThreads
	model := agg.Model{
		Clients:      1_000_000,
		OpsPerClient: 0.2,
		Mix:          workload.DefaultMetaMix(),
		Zipf:         agg.ZipfPop{S: 1.2, V: 1, N: 64},
		Diurnal:      agg.Diurnal{Amplitude: 0.5, Period: 400 * time.Millisecond},
		Spikes:       agg.Spikes{MeanInterval: 100 * time.Millisecond, Peak: 2, Decay: 20 * time.Millisecond},
		Churn:        agg.Churn{ActiveFrac: 0.5, SessionMean: 200 * time.Millisecond, Tick: 5 * time.Millisecond},
		Tick:         5 * time.Millisecond,
		Seed:         7,
	}
	sources := agg.NewSources(model, shards, lanes,
		func(obj int) int { return obj % shards })
	f.AttachAggregate(model.Tick, func(si, lane, tick int) service.Demand {
		return sources[si*lanes+lane].Tick(int64(tick))
	})
}

// TestDomainedAggregateDeterministic pins the aggregate-load leg of the
// fingerprint matrix: one million background clients injecting into a
// lease-coherent 4-shard MDS partitioned into 5 domains must produce
// byte-identical fingerprints — including the injected/shed counters —
// on one worker thread and on a full pool.
func TestDomainedAggregateDeterministic(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Domains = 5
	cfg.CacheMode = CacheLease
	attach := func(f *FS) { attachMillionClients(f, cfg.NumShards) }
	one := runDomainWorkloadHook(t, cfg, 1, false, attach)
	many := runDomainWorkloadHook(t, cfg, 8, false, attach)
	if one != many {
		t.Errorf("aggregate fingerprints differ between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", one, many)
	}
	if !strings.Contains(one, "agg=") || strings.Contains(one, "agg=0 ") {
		t.Errorf("aggregate injection recorded no operations:\n%s", one)
	}
}

// TestDomainsDisabledIsLegacy pins that Domains <= 1 is the unchanged
// single-kernel path: no group is built, and Domains=0 and Domains=1
// produce byte-identical runs.
func TestDomainsDisabledIsLegacy(t *testing.T) {
	zero := DefaultConfig(8)
	one := zero
	one.Domains = 1
	a := runDomainWorkload(t, zero, 1, false)
	b := runDomainWorkload(t, one, 1, false)
	if a != b {
		t.Errorf("Domains=0 and Domains=1 fingerprints differ:\n%s\n%s", a, b)
	}
}

// TestDomainedRaceStress is the race-detector stress test: concurrent
// creates, a crash/takeover/failback cycle and a split storm across 8
// shard domains on a full worker pool. Run under `go test -race` it
// checks that no service body ever touches another domain's state
// outside a rendezvous or sync point; the built-in causality checker
// (on by default) panics on any lookahead violation.
func TestDomainedRaceStress(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Domains = 9
	cfg.Replicate = true
	cfg.CacheMode = CacheLease
	cfg.SplitThreshold = 16
	runDomainWorkload(t, cfg, 8, true)
}

// TestDomainedClientsSeeOneNamespace sanity-checks cross-domain
// semantics end to end: a file created by one client is visible to
// another (through its own RPC), unlinked files disappear, and a root
// readdir merges every top-level directory.
func TestDomainedClientsSeeOneNamespace(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Domains = 5
	k := sim.New(11)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	f := New(k, "vis", cfg)
	k.Spawn("a", func(p *sim.Proc) {
		ca := f.NewClient(cl.Nodes[0], p)
		if err := ca.Mkdir("/shared"); err != nil {
			t.Errorf("mkdir: %v", err)
		}
		if err := ca.Create("/shared/file"); err != nil {
			t.Errorf("create: %v", err)
		}
		p.Sleep(10 * time.Millisecond)
		cb := f.NewClient(cl.Nodes[1], p)
		if _, err := cb.Stat("/shared/file"); err != nil {
			t.Errorf("stat from second client: %v", err)
		}
		ents, err := cb.ReadDir("/shared")
		if err != nil || len(ents) != 1 {
			t.Errorf("readdir = %v, %v; want one entry", ents, err)
		}
		if err := cb.Unlink("/shared/file"); err != nil {
			t.Errorf("unlink: %v", err)
		}
		ca.DropCaches()
		var got fs.Attr
		if a, err := ca.Stat("/shared/file"); err == nil {
			got = a
			t.Errorf("stat after unlink succeeded: %+v", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
