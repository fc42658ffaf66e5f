package experiments

import (
	"fmt"

	"dmetabench/internal/afs"
	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/nfs"
	"dmetabench/internal/ontapgx"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// e13NamespaceAggregation reproduces §4.7.1–4.7.2: on a clustered NFS
// server, requests for a volume owned by the mount filer run at full
// speed while forwarded requests pay the cluster-interconnect penalty;
// with per-node volumes the cluster scales with the number of filers,
// while a single hot volume is limited by its owner.
func e13NamespaceAggregation() plan {
	const filers = 8

	// Part (a) cell: single client, local vs. remote volume, on its own
	// probe kernel.
	type e13a struct {
		local, remote float64
		forwards      int64
	}
	probeLocalRemote := func(k *sim.Kernel) (e13a, error) {
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := ontapgx.New(k, "gx", filers, ontapgx.DefaultConfig())
		for i := 0; i < filers; i++ {
			fsys.AddVolume(fmt.Sprintf("vol%d", i), i)
		}
		fsys.MountThrough(cl.Nodes[0], 0)
		var a e13a
		err := runProbe(k, "probe", func(p *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], p)
			rate := func(dir string) (float64, error) {
				if err := core.MkdirAll(c, dir); err != nil {
					return 0, err
				}
				start := p.Now()
				const n = 500
				for i := 0; i < n; i++ {
					if err := c.Create(fmt.Sprintf("%s/%d", dir, i)); err != nil {
						return 0, err
					}
				}
				return n / (p.Now() - start).Seconds(), nil
			}
			var err error
			if a.local, err = rate("/vol0/bench"); err != nil { // owned by the mount filer
				return err
			}
			a.remote, err = rate("/vol3/bench") // owned by filer 3: forwarded
			return err
		})
		a.forwards = fsys.ForwardCount
		return a, err
	}

	// Part (b): multi-node scaling, per-node local volumes vs one shared
	// volume — one cell per (volume layout, nodes, ppn) sweep point, each
	// on a fresh kernel seeded with its layout's seed.
	points := []combo{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {1, 4}, {2, 4}, {4, 4}, {8, 4}}
	scale := func(k *sim.Kernel, oneVolume bool, pt combo) (*results.Measurement, error) {
		cl := cluster.New(k, cluster.DefaultConfig(filers))
		fsys := ontapgx.New(k, "gx", filers, ontapgx.DefaultConfig())
		var paths []string
		for i := 0; i < filers; i++ {
			fsys.AddVolume(fmt.Sprintf("vol%d", i), i)
			fsys.MountThrough(cl.Nodes[i], i)
			if oneVolume {
				paths = append(paths, "/vol0")
			} else {
				paths = append(paths, fmt.Sprintf("/vol%d", i))
			}
		}
		return measure(cl, fsys, pt.nodes, pt.ppn,
			core.Params{ProblemSize: 1200, PathList: paths, WorkDir: "/vol0"}, core.MakeFiles{}, nil)
	}

	// 17 cells: the probe (seed 1313) plus the two 8-point sweeps (seeds
	// 1314 and 1315). a is written only by the probe cell and read at
	// assembly, after every cell has finished.
	names := []string{"local-vs-remote"}
	for _, layout := range []string{"per-node-volumes", "one-volume"} {
		for _, pt := range points {
			names = append(names, layout+"-"+pt.String())
		}
	}
	seed := func(i int) int64 {
		if i == 0 {
			return 1313
		}
		return int64(1314 + (i-1)/len(points))
	}
	var a e13a
	ms, cs := cellsOf(names, seed, func(i int, k *sim.Kernel) (m *results.Measurement, err error) {
		if i == 0 {
			a, err = probeLocalRemote(k)
			return nil, err
		}
		return scale(k, (i-1)/len(points) == 1, points[(i-1)%len(points)])
	})
	return plan{cs, func(r *Report) {
		perVol := &results.Set{Measurements: ms[1 : 1+len(points)]}
		oneVol := &results.Set{Measurements: ms[1+len(points):]}
		r.row("creates/s in local volume", a.local, "ops/s", "volume on mount filer")
		r.row("creates/s in forwarded volume", a.remote, "ops/s", "via cluster interconnect")
		r.row("remote efficiency", 100*a.remote/a.local, "%", "[ECK+07] claims ~75%")
		r.row("forwarded requests", float64(a.forwards), "", "")
		r.finding("paper/[ECK+07]: forwarding costs ~25%%; here remote volume "+
			"runs at %.0f%% of local", 100*a.remote/a.local)

		for _, n := range []int{1, 4, 8} {
			r.row(fmt.Sprintf("per-node volumes @ %d nodes x1", n), stoneOf(perVol, "MakeFiles", n, 1), "ops/s", "")
			r.row(fmt.Sprintf("single volume @ %d nodes x1", n), stoneOf(oneVol, "MakeFiles", n, 1), "ops/s", "")
		}
		r.row("per-node volumes @ 8 nodes x4", stoneOf(perVol, "MakeFiles", 8, 4), "ops/s", "32 procs, all local")
		r.row("single volume @ 8 nodes x4", stoneOf(oneVol, "MakeFiles", 8, 4), "ops/s", "32 procs on one D-blade")
		p1 := stoneOf(perVol, "MakeFiles", 1, 1)
		p8 := stoneOf(perVol, "MakeFiles", 8, 4)
		o8 := stoneOf(oneVol, "MakeFiles", 8, 4)
		r.finding("paper: distributing load across volumes/filers scales while one "+
			"volume is bounded by its owner; here per-node volumes reach %.1fx the "+
			"single-node rate at 8x4 while one hot volume reaches only %.1fx "+
			"(owner-filer bound)", p8/p1, o8/p1)
		r.Charts = append(r.Charts, charts.VsNodes([]charts.LabeledSeries{
			{Label: "MakeFiles, one volume per node (local)", Points: perVol.ScaleSeries("MakeFiles")},
			{Label: "MakeFiles, all nodes in one volume", Points: oneVol.ScaleSeries("MakeFiles")},
		}, 1, chartW, chartH))
	}}
}

// afsRun measures plugin at nodes x 1 on k with a 4-node cluster, a
// 2-server AFS cell and one volume per node, and returns the wall-clock
// rate and the cell for counter readout.
func afsRun(k *sim.Kernel, plugin core.Plugin, nodes, problem int) (float64, *afs.FS, error) {
	cl := cluster.New(k, cluster.DefaultConfig(4))
	cell := afs.New(k, "cell", 2, afs.DefaultConfig())
	var paths []string
	for i := 0; i < 4; i++ {
		cell.AddVolume(fmt.Sprintf("vol%d", i), -1)
		paths = append(paths, fmt.Sprintf("/vol%d", i))
	}
	m, err := measure(cl, cell, nodes, 1,
		core.Params{ProblemSize: problem, PathList: paths, WorkDir: "/vol0"}, plugin, nil)
	if err != nil {
		return 0, nil, err
	}
	return wallOf(m), cell, nil
}

// e14AFS reproduces §4.7.3: AFS serves cached attribute reads from its
// persistent client cache — even after drop_caches — while cross-node
// reads and namespace modifications pay full server round trips.
func e14AFS() plan {
	const problem = 800

	// Six cells: four AFS runs plus the two NFS contrast probes, each on
	// its own kernel, seeded 1401..1406.
	type e14cell struct {
		rate float64
		cell *afs.FS
	}
	nfsMk := func(k *sim.Kernel) core.FileSystem { return nfs.New(k, "home", nfs.DefaultConfig()) }
	nfsParams := core.Params{ProblemSize: problem, WorkDir: "/bench"}
	names := []string{"afs-warm", "afs-nocache", "afs-multinode", "afs-creates", "nfs-warm", "nfs-nocache"}
	cells, cs := cellsOf(names, func(i int) int64 { return int64(1401 + i) }, func(i int, k *sim.Kernel) (c e14cell, err error) {
		switch i {
		case 0:
			c.rate, c.cell, err = afsRun(k, core.StatFiles{}, 1, problem)
		case 1:
			c.rate, c.cell, err = afsRun(k, core.StatNocacheFiles{}, 1, problem)
		case 2:
			c.rate, c.cell, err = afsRun(k, core.StatMultinodeFiles{}, 2, problem)
		case 3:
			c.rate, c.cell, err = afsRun(k, core.MakeFiles{}, 4, 600)
		case 4:
			c.rate, err = singleProc(k, nfsMk, core.StatFiles{}, nfsParams)
		default:
			c.rate, err = singleProc(k, nfsMk, core.StatNocacheFiles{}, nfsParams)
		}
		return c, err
	})
	return plan{cs, func(r *Report) {
		aWarm, aNo, aMulti, aCreate := cells[0].rate, cells[1].rate, cells[2].rate, cells[3].rate
		cell := cells[1].cell

		// NFS contrast: dropping caches forces RPCs.
		nfsWarm, nfsNoCache := cells[4].rate, cells[5].rate

		hits, misses := cell.CacheStats()
		r.row("AFS StatFiles (warm cache)", aWarm, "ops/s", "")
		r.row("AFS StatNocacheFiles", aNo, "ops/s", "persistent cache survives drop_caches")
		r.row("AFS StatMultinodeFiles", aMulti, "ops/s", "peer files: server FetchStatus")
		r.row("AFS MakeFiles 4x1", aCreate, "ops/s", "")
		r.row("NFS StatFiles (warm cache)", nfsWarm, "ops/s", "")
		r.row("NFS StatNocacheFiles", nfsNoCache, "ops/s", "drop_caches forces GETATTR")
		r.row("AFS cache hits", float64(hits), "", "")
		r.row("AFS cache misses", float64(misses), "", "")
		r.finding("paper: AFS's disk cache is unaffected by the Linux cache drop, so "+
			"StatNocacheFiles stays near the warm rate (here %.1f%%) while NFS falls "+
			"to %.1f%% of warm; cross-node stats drop to %.1f%% on AFS",
			100*aNo/aWarm, 100*nfsNoCache/nfsWarm, 100*aMulti/aWarm)
	}}
}
