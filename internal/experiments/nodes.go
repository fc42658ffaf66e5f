package experiments

import (
	"errors"
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/cxfs"
	"dmetabench/internal/localfs"
	"dmetabench/internal/nfs"
	"dmetabench/internal/sim"
)

// E10PriorityScheduling reproduces §4.4: under CPU contention the OS
// scheduling priority of the benchmark process determines its metadata
// throughput. Two processes run cached-stat loops on a one-core node at
// different niceness; a burst of mid-priority compute load starves the
// low-priority process only.
func E10PriorityScheduling() *Report {
	r := &Report{ID: "E10", Title: "Process priority vs. metadata throughput",
		PaperRef: "§4.4"}
	k := sim.New(1010)
	cl := cluster.New(k, cluster.Config{Nodes: 1, Cores: 1, SyscallTime: 3 * time.Microsecond})
	node := cl.Nodes[0]
	fsys := localfs.New(k, node, localfs.DefaultConfig())

	const window = 6 * time.Second
	hogFrom, hogTo := 2*time.Second, 4*time.Second
	node.StartCPUHog(4, 5, hogFrom, hogTo-hogFrom)

	type res struct {
		total      int64
		during     int64
		atHogStart int64
		err        error
	}
	run := func(name string, nice int, out *res) {
		k.Spawn(name, func(p *sim.Proc) {
			c := fsys.NewClient(node, p)
			if out.err = c.Create("/" + name); out.err != nil {
				return
			}
			for p.Now() < window {
				if _, out.err = c.Stat("/" + name); out.err != nil {
					return
				}
				node.ExecNice(p, 2*time.Microsecond, nice)
				out.total++
				if p.Now() <= hogFrom {
					out.atHogStart = out.total
				}
				if p.Now() > hogFrom && p.Now() <= hogTo {
					out.during++
				}
			}
		})
	}
	var hi, lo res
	run("nice0", 0, &hi)
	run("nice10", 10, &lo)
	if err := k.Run(); err != nil {
		return r.fail(err)
	}
	if err := errors.Join(hi.err, lo.err); err != nil {
		return r.fail(err)
	}
	hogSecs := (hogTo - hogFrom).Seconds()
	r.row("nice 0 total ops", float64(hi.total), "ops", "6s window")
	r.row("nice 10 total ops", float64(lo.total), "ops", "")
	r.row("nice 0 ops/s during load", float64(hi.during)/hogSecs, "ops/s", "t=2..4s, 4 hogs at nice 5")
	r.row("nice 10 ops/s during load", float64(lo.during)/hogSecs, "ops/s", "")
	ratio := float64(hi.during+1) / float64(lo.during+1)
	r.row("priority advantage during load", ratio, "x", "")
	r.finding("paper: metadata throughput follows CPU scheduling priority under "+
		"contention; here the nice-0 process sustains %.0f ops/s while the "+
		"nice-10 process gets %.0f ops/s behind the nice-5 load",
		float64(hi.during)/hogSecs, float64(lo.during)/hogSecs)
	return r
}

// E11SMPScaling reproduces §4.5.3: file creation on a large SMP partition
// scales with intra-node process count on NFS but not on CXFS, whose
// client-side metadata path serializes on the node token.
func E11SMPScaling() *Report {
	r := &Report{ID: "E11", Title: "Large-SMP intra-node scaling: CXFS vs NFS",
		PaperRef: "§4.5.3"}
	sets, err := createSweep("E11", []sweepFS{
		{"nfs", 1111, func(k *sim.Kernel) core.FileSystem { return nfs.New(k, "home", nfs.DefaultConfig()) }},
		{"cxfs", 1112, func(k *sim.Kernel) core.FileSystem { return cxfs.New(k, "cxfs", cxfs.DefaultConfig()) }},
	}, []combo{{1, 1}, {1, 2}, {1, 4}, {1, 8}, {1, 16}, {1, 32}},
		func(k *sim.Kernel) *cluster.Cluster { return cluster.NewSMP(k, 64) },
		core.Params{ProblemSize: 1200, WorkDir: "/bench"})
	if err != nil {
		return r.fail(err)
	}
	nfsSet, cxSet := sets[0], sets[1]
	for _, ppn := range []int{1, 8, 32} {
		r.row(fmt.Sprintf("NFS creates/s @ ppn %d", ppn), stoneOf(nfsSet, "MakeFiles", 1, ppn), "ops/s", "")
		r.row(fmt.Sprintf("CXFS creates/s @ ppn %d", ppn), stoneOf(cxSet, "MakeFiles", 1, ppn), "ops/s", "")
	}
	nfs1 := stoneOf(nfsSet, "MakeFiles", 1, 1)
	nfs32 := stoneOf(nfsSet, "MakeFiles", 1, 32)
	cx1 := stoneOf(cxSet, "MakeFiles", 1, 1)
	cx32 := stoneOf(cxSet, "MakeFiles", 1, 32)
	r.finding("paper: on the 512-core Altix partition NFS gained from intra-node "+
		"parallelism while CXFS stayed flat; here NFS scales %.1fx and CXFS %.1fx "+
		"from 1 to 32 processes", nfs32/nfs1, cx32/cx1)
	r.Charts = append(r.Charts, charts.VsProcesses([]charts.LabeledSeries{
		{Label: "MakeFiles on NFS (1 SMP node)", Points: nfsSet.ScaleSeries("MakeFiles")},
		{Label: "MakeFiles on CXFS (1 SMP node)", Points: cxSet.ScaleSeries("MakeFiles")},
	}, chartW, chartH))
	return r
}
