package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// The E16–E18 family leaves the single-MDS world of the thesis: the
// namespace is partitioned across N simulated metadata servers
// (internal/shard), the scaling step HopsFS and MetaFlow report
// order-of-magnitude gains from. The experiments measure when sharding
// pays (E16), how placement policy interacts with popularity skew
// (E17), and what an operation that spans two shards costs (E18).

// e16Workload is the steady-state create/mkdir mix used by the shard
// sweeps: uniform directory popularity, one mkdir per 50 creates so
// directory-mutation traffic (broadcast under hash placement) stays
// part of the load.
func e16Workload(skew float64) core.ZipfDirFiles {
	return core.ZipfDirFiles{Projects: 24, SubdirsPerProject: 32, Skew: skew, MkdirEvery: 50}
}

// e16SubtreeAssign pins the 24 project subtrees round-robin across n
// shards — the administrative volume placement of §4.7.2.
func e16SubtreeAssign(n int) map[string]int {
	m := make(map[string]int, 24)
	for j := 0; j < 24; j++ {
		m[fmt.Sprintf("zp%d", j)] = j % n
	}
	return m
}

// runSharded measures the shard workload on a 16-node x 4-process
// cluster (64 workers: enough demand to oversubscribe a small shard
// count) and returns the measurement plus the FS for counter readout.
func runSharded(seed int64, cfg shard.Config, plugin core.Plugin, problem int) (*results.Measurement, *shard.FS, error) {
	k := sim.New(seed)
	cl := cluster.New(k, cluster.DefaultConfig(16))
	fsys := newShardFS(k, "meta", cfg)
	m, err := measure(cl, fsys, 16, 4, core.Params{ProblemSize: problem, WorkDir: "/"}, plugin, nil)
	return m, fsys, err
}

// E16ShardScaling sweeps the shard count 1→16 under a fixed 32-process
// create load: throughput scales while per-shard queueing dominates and
// flattens once the servers are no longer the bottleneck while every
// directory mutation still pays a broadcast that grows with the shard
// count.
func E16ShardScaling() *Report {
	r := &Report{ID: "E16", Title: "Shard-count scaling of create throughput",
		PaperRef: "beyond §4.3 (HopsFS/MetaFlow direction)"}
	plugin := e16Workload(0)
	shardsSwept := []int{1, 2, 4, 8, 16}
	// One cell per shard count. One seed for every sweep point: the only
	// variable between cells is the shard count, not the storage service
	// jitter.
	type e16cell struct {
		rate  float64
		cross int64
	}
	names := make([]string, len(shardsSwept))
	for i, n := range shardsSwept {
		names[i] = fmt.Sprintf("%dshards", n)
	}
	cells, err := parCells("E16", names, func(i int) (e16cell, error) {
		m, fsys, err := runSharded(1600, shard.DefaultConfig(shardsSwept[i]), plugin, 500)
		if err != nil {
			return e16cell{}, err
		}
		return e16cell{rate: wallOf(m), cross: fsys.CrossCount}, nil
	})
	if err != nil {
		return r.fail(err)
	}
	var xs, ys []float64
	var rates []float64
	var crosses []int64
	for i, n := range shardsSwept {
		c := cells[i]
		rates = append(rates, c.rate)
		crosses = append(crosses, c.cross)
		xs = append(xs, float64(n))
		ys = append(ys, c.rate)
		r.row(fmt.Sprintf("creates/s @ %2d shards", n), c.rate, "ops/s",
			fmt.Sprintf("%d cross-shard hops", c.cross))
	}
	best := 0
	for i := range rates {
		if rates[i] > rates[best] {
			best = i
		}
	}
	r.row("speedup 1->16 shards", rates[len(rates)-1]/rates[0], "x", "64 procs")
	r.row("best shard count", float64(shardsSwept[best]), "shards", "")
	r.finding("related work: partitioned metadata scales until coordination "+
		"dominates; here creates/s grow %.1fx from 1 to %d shards, while "+
		"cross-shard hops grow %d -> %d and the curve flattens (best at %d shards)",
		rates[best]/rates[0], shardsSwept[best],
		crosses[0], crosses[len(crosses)-1], shardsSwept[best])
	r.Charts = append(r.Charts, charts.Render(
		"Create throughput vs. shard count (64 processes)",
		"shards", "ops/s", chartW, chartH,
		[]charts.Series{{Name: "ZipfDirFiles uniform", X: xs, Y: ys}}))
	return r
}

// E17ShardSkew compares the two placement policies under uniform and
// Zipf-skewed directory popularity on 8 shards: hash placement spreads
// a hot project's directories across every server, subtree placement
// keeps whole projects local (no broadcast) but concentrates popular
// subtrees on one shard.
func E17ShardSkew() *Report {
	r := &Report{ID: "E17", Title: "Hot-directory skew: hash vs. subtree placement",
		PaperRef: "beyond §4.7 (placement under skew)"}
	const nShards = 8
	mkCfg := func(p shard.Policy) shard.Config {
		cfg := shard.DefaultConfig(nShards)
		cfg.Placement = p
		if p == shard.PlaceSubtree {
			cfg.SubtreeAssign = e16SubtreeAssign(nShards)
		}
		return cfg
	}
	type cell struct {
		rate      float64
		imbalance float64
	}
	// run is one cell: it runs on its own kernel and touches nothing
	// shared.
	run := func(p shard.Policy, skew float64, seed int64) (cell, error) {
		m, fsys, err := runSharded(seed, mkCfg(p), e16Workload(skew), 400)
		if err != nil {
			return cell{}, err
		}
		ops := fsys.ShardOps()
		var max, sum int64
		for _, n := range ops {
			sum += n
			if n > max {
				max = n
			}
		}
		c := cell{rate: wallOf(m)}
		if sum > 0 {
			c.imbalance = float64(max) * float64(len(ops)) / float64(sum)
		}
		return c, nil
	}
	cells, err := parCells("E17", []string{"hash-uniform", "subtree-uniform",
		"hash-zipf", "subtree-zipf"}, func(i int) (cell, error) {
		switch i {
		case 0:
			return run(shard.PlaceHashDir, 0, 1701)
		case 1:
			return run(shard.PlaceSubtree, 0, 1702)
		case 2:
			return run(shard.PlaceHashDir, 2.0, 1703)
		default:
			return run(shard.PlaceSubtree, 2.0, 1704)
		}
	})
	if err != nil {
		return r.fail(err)
	}
	hashU, subU, hashZ, subZ := cells[0], cells[1], cells[2], cells[3]
	r.row("hash placement, uniform", hashU.rate, "ops/s",
		fmt.Sprintf("hottest shard %.1fx mean", hashU.imbalance))
	r.row("subtree placement, uniform", subU.rate, "ops/s",
		fmt.Sprintf("hottest shard %.1fx mean", subU.imbalance))
	r.row("hash placement, Zipf 2.0", hashZ.rate, "ops/s",
		fmt.Sprintf("hottest shard %.1fx mean", hashZ.imbalance))
	r.row("subtree placement, Zipf 2.0", subZ.rate, "ops/s",
		fmt.Sprintf("hottest shard %.1fx mean", subZ.imbalance))
	r.row("hash advantage under skew", hashZ.rate/subZ.rate, "x", "")
	r.row("subtree advantage under uniform", subU.rate/hashU.rate, "x", "")
	r.finding("related work: hash partitioning absorbs popularity skew that "+
		"subtree placement concentrates (hottest shard %.1fx mean vs %.1fx); "+
		"here hash wins %.2fx under Zipf skew while subtree wins %.2fx under "+
		"uniform load by avoiding replicated directory mutations",
		hashZ.imbalance, subZ.imbalance,
		hashZ.rate/subZ.rate, subU.rate/hashU.rate)
	return r
}

// E18CrossShard prices a single operation that spans a shard boundary:
// a rename whose source and destination directories live on different
// shards migrates the file over the MDS interconnect, and a root
// listing under subtree placement merges every shard's top level.
func E18CrossShard() *Report {
	r := &Report{ID: "E18", Title: "Cross-shard operation cost",
		PaperRef: "beyond §4.6 (MDS interconnect hops)"}
	const ops = 200

	// Part 1 cell: same-shard vs. cross-shard rename on hash placement.
	var sameAvg, crossAvg time.Duration
	var crossings int64
	probeRename := func() error {
		k := sim.New(1801)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := newShardFS(k, "meta", shard.DefaultConfig(8))
		// Probe the routing for a same-shard and a cross-shard directory
		// pair before spawning any load.
		var local, remote string
		base := "/d0"
		for i := 1; i < 128 && (local == "" || remote == ""); i++ {
			cand := fmt.Sprintf("/d%d", i)
			if fsys.ShardOfDir(cand) == fsys.ShardOfDir(base) {
				if local == "" {
					local = cand
				}
			} else if remote == "" {
				remote = cand
			}
		}
		err := runProbe(k, "probe", func(p *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], p)
			for _, d := range []string{base, local, remote} {
				if err := c.Mkdir(d); err != nil {
					return err
				}
			}
			for i := 0; i < ops; i++ {
				if err := c.Create(fmt.Sprintf("%s/f%d", base, i)); err != nil {
					return err
				}
			}
			start := p.Now()
			for i := 0; i < ops; i++ {
				if err := c.Rename(fmt.Sprintf("%s/f%d", base, i), fmt.Sprintf("%s/f%d", local, i)); err != nil {
					return err
				}
			}
			sameAvg = (p.Now() - start) / ops
			start = p.Now()
			for i := 0; i < ops; i++ {
				if err := c.Rename(fmt.Sprintf("%s/f%d", local, i), fmt.Sprintf("%s/f%d", remote, i)); err != nil {
					return err
				}
			}
			crossAvg = (p.Now() - start) / ops
			return nil
		})
		crossings = fsys.CrossCount
		return err
	}

	// Part 2 cell: root readdir under subtree placement merges all
	// shards; a subtree-local listing stays on one.
	var rootAvg, localAvg time.Duration
	probeReaddir := func() error {
		k := sim.New(1802)
		cl := cluster.New(k, cluster.DefaultConfig(1))
		cfg := shard.DefaultConfig(8)
		cfg.Placement = shard.PlaceSubtree
		cfg.SubtreeAssign = e16SubtreeAssign(8)
		fsys := newShardFS(k, "meta", cfg)
		return runProbe(k, "readdir", func(p *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], p)
			for j := 0; j < 24; j++ {
				if err := c.Mkdir(fmt.Sprintf("/zp%d", j)); err != nil {
					return err
				}
			}
			for i := 0; i < 32; i++ {
				if err := c.Create(fmt.Sprintf("/zp0/f%d", i)); err != nil {
					return err
				}
			}
			start := p.Now()
			for i := 0; i < ops; i++ {
				if _, err := c.ReadDir("/"); err != nil {
					return err
				}
			}
			rootAvg = (p.Now() - start) / ops
			start = p.Now()
			for i := 0; i < ops; i++ {
				if _, err := c.ReadDir("/zp0"); err != nil {
					return err
				}
			}
			localAvg = (p.Now() - start) / ops
			return nil
		})
	}

	// Each probe writes only its own variables; parCells has joined both
	// before they are read below.
	if _, err := parCells("E18", []string{"rename", "readdir"}, func(i int) (struct{}, error) {
		if i == 0 {
			return struct{}{}, probeRename()
		}
		return struct{}{}, probeReaddir()
	}); err != nil {
		return r.fail(err)
	}
	r.row("same-shard rename", float64(sameAvg.Microseconds()), "us", "hash placement, 8 shards")
	r.row("cross-shard rename", float64(crossAvg.Microseconds()), "us", "migrate + interconnect hop")
	r.row("cross-shard rename penalty", float64(crossAvg)/float64(sameAvg), "x", "")
	r.row("interconnect crossings", float64(crossings), "", "")

	r.row("root readdir (8-shard merge)", float64(rootAvg.Microseconds()), "us", "subtree placement")
	r.row("subtree-local readdir", float64(localAvg.Microseconds()), "us", "")
	r.row("merge penalty", float64(rootAvg)/float64(localAvg), "x", "")
	r.finding("a shard boundary turns one RPC into a coordinated pair: "+
		"cross-shard rename costs %.1fx a local one (%.0f vs %.0f us), and a "+
		"root listing that merges 8 shards costs %.1fx a subtree-local one",
		float64(crossAvg)/float64(sameAvg), float64(crossAvg.Microseconds()),
		float64(sameAvg.Microseconds()), float64(rootAvg)/float64(localAvg))
	return r
}
