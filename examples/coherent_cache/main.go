// coherent_cache walks through the lease-based client cache coherence
// of the sharded MDS model (internal/shard coherence.go): a batched
// readdirplus scan warming a client cache in one RPC per directory, a
// revocation callback keeping a cached attribute fresh across a remote
// write (where the NFS-style timeout cache serves the stale value), and
// the crash-time lease invalidation that keeps failover from leaking
// stale reads (experiments E22–E24 measure all three at load).
//
//	go run ./examples/coherent_cache
package main

import (
	"fmt"
	"log"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
	"dmetabench/internal/workload"
)

// env builds a kernel, a two-node cluster and a 4-shard FS.
func env(cfg shard.Config) (*sim.Kernel, *cluster.Cluster, *shard.FS) {
	k := sim.New(11)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	return k, cl, shard.New(k, "meta", cfg)
}

// leaseCfg returns a lease-coherent 4-shard configuration.
func leaseCfg() shard.Config {
	cfg := shard.DefaultConfig(4)
	cfg.CacheMode = shard.CacheLease
	cfg.TrackStaleness = true
	return cfg
}

// buildTree creates dirs directories of files files each under /proj.
func buildTree(c fs.Client, dirs, files int) error {
	if err := c.Mkdir("/proj"); err != nil {
		return err
	}
	for d := 0; d < dirs; d++ {
		dir := fmt.Sprintf("/proj/d%d", d)
		if err := c.Mkdir(dir); err != nil {
			return err
		}
		for i := 0; i < files; i++ {
			if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// scanDemo shows the readdirplus prefetch: a cold "ls -lR" costs one
// RPC per directory instead of one per entry, and leaves every entry
// leased so a re-scan is nearly free.
func scanDemo() {
	k, cl, f := env(leaseCfg())
	k.Spawn("scan", func(p *sim.Proc) {
		c := f.NewClient(cl.Nodes[0], p)
		if err := buildTree(c, 4, 25); err != nil {
			log.Fatal(err)
		}
		c.DropCaches()
		rpcs := f.RPCCount()
		cold, err := workload.Scan(c, "/proj", p.Now)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cold scan: %d dirs, %d entries, %d RPCs, %v (batched=%v)\n",
			cold.Dirs, cold.Entries, f.RPCCount()-rpcs, cold.Elapsed, cold.Batched)
		// Every entry came back leased: a follow-up stat of the whole
		// tree is served from the client cache without a single RPC.
		rpcs = f.RPCCount()
		for d := 0; d < 4; d++ {
			for i := 0; i < 25; i++ {
				if _, err := c.Stat(fmt.Sprintf("/proj/d%d/f%d", d, i)); err != nil {
					log.Fatal(err)
				}
			}
		}
		hits, _, _, _ := f.CacheStats()
		fmt.Printf("  stat of all 100 entries after the scan: %d RPCs — %d lease hits, %d stale reads\n",
			f.RPCCount()-rpcs, hits, f.StaleReads)
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
}

// coherenceDemo runs the same remote-write sequence against the lease
// cache and the TTL cache: node 0 caches a file's attributes, node 1
// grows the file, node 0 stats it again.
func coherenceDemo(cfg shard.Config, label string) {
	k, cl, f := env(cfg)
	k.Spawn("demo", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		if err := a.Mkdir("/d"); err != nil {
			log.Fatal(err)
		}
		if err := a.Create("/d/f"); err != nil {
			log.Fatal(err)
		}
		if _, err := a.Stat("/d/f"); err != nil {
			log.Fatal(err)
		}
		h, err := b.Open("/d/f")
		if err != nil {
			log.Fatal(err)
		}
		b.Write(h, 4096)
		b.Close(h)
		at, err := a.Stat("/d/f")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: node 0 sees size %d after node 1 wrote 4096"+
			" (revocations %d, stale reads %d)\n",
			label, at.Size, f.Revocations, f.StaleReads)
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
}

// failoverDemo crashes the shard that granted node 0's lease, lets the
// promoted backup serve node 1's write, and shows what node 0 reads
// with and without crash-time lease invalidation.
func failoverDemo(invalidate bool) {
	cfg := leaseCfg()
	cfg.NumShards = 2
	cfg.Replicate = true
	cfg.CrashInvalidate = invalidate
	cfg.LeaseTTL = time.Hour
	k := sim.New(11)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	f := shard.New(k, "meta", cfg)
	dir := ""
	for i := 0; i < 64 && dir == ""; i++ {
		if cand := fmt.Sprintf("/d%d", i); f.ShardOfDir(cand) == 0 {
			dir = cand
		}
	}
	k.Spawn("fo", func(p *sim.Proc) {
		a := f.NewClient(cl.Nodes[0], p)
		b := f.NewClient(cl.Nodes[1], p)
		if err := a.Mkdir(dir); err != nil {
			log.Fatal(err)
		}
		if err := a.Create(dir + "/f"); err != nil {
			log.Fatal(err)
		}
		if _, err := a.Stat(dir + "/f"); err != nil {
			log.Fatal(err)
		}
		f.Crash(p, 0)
		p.Sleep(200 * time.Millisecond)
		h, err := b.Open(dir + "/f")
		if err != nil {
			log.Fatal(err)
		}
		b.Write(h, 512)
		b.Close(h)
		at, err := a.Stat(dir + "/f")
		if err != nil {
			log.Fatal(err)
		}
		to := f.Takeovers[0]
		fmt.Printf("  invalidate=%-5v: takeover after %v; node 0 then reads size %d"+
			" (stale reads %d)\n", invalidate, to.Total(), at.Size, f.StaleReads)
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
}

func main() {
	fmt.Println("1. readdirplus prefetch: one RPC per directory fills the lease cache")
	scanDemo()

	fmt.Println("\n2. a remote write: revocation callback vs. NFS-style attribute timeout")
	coherenceDemo(leaseCfg(), "lease cache  ")
	ttl := shard.DefaultConfig(4)
	ttl.TrackStaleness = true
	coherenceDemo(ttl, "ttl cache    ")

	fmt.Println("\n3. failover under cached load: crash-time lease invalidation")
	failoverDemo(true)
	failoverDemo(false)
	fmt.Println("\nE22-E24 (go run ./cmd/experiments -run E22,E23,E24) measure all three at load.")
}
