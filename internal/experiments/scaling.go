package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/namespace"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// e07CreateScaling reproduces §4.3.2: file creation scaling of NFS vs
// Lustre over node counts. The filer wins on absolute rate; both settle
// at their server-side saturation point.
func e07CreateScaling() plan {
	sets, cs := createSweep([]sweepFS{
		{"nfs", 707, func(k *sim.Kernel) core.FileSystem { return nfs.New(k, "home", nfs.DefaultConfig()) }},
		{"lustre", 708, func(k *sim.Kernel) core.FileSystem { return lustre.New(k, "scratch", lustre.DefaultConfig()) }},
	}, []combo{{1, 1}, {2, 1}, {4, 1}, {8, 1}, {12, 1}, {16, 1}, {16, 2}, {16, 4}},
		func(k *sim.Kernel) *cluster.Cluster { return cluster.New(k, cluster.DefaultConfig(16)) },
		core.Params{ProblemSize: 2000, WorkDir: "/bench"})
	return plan{cs, func(r *Report) {
		nfsSet, lusSet := sets[0], sets[1]
		for _, n := range []int{1, 4, 16} {
			r.row(fmt.Sprintf("NFS creates/s @ %d nodes x1", n), stoneOf(nfsSet, "MakeFiles", n, 1), "ops/s", "")
			r.row(fmt.Sprintf("Lustre creates/s @ %d nodes x1", n), stoneOf(lusSet, "MakeFiles", n, 1), "ops/s", "")
		}
		r.row("NFS creates/s @ 16 nodes x4", stoneOf(nfsSet, "MakeFiles", 16, 4), "ops/s", "64 procs")
		r.row("Lustre creates/s @ 16 nodes x4", stoneOf(lusSet, "MakeFiles", 16, 4), "ops/s", "64 procs")
		n1, n16 := stoneOf(nfsSet, "MakeFiles", 1, 1), stoneOf(nfsSet, "MakeFiles", 16, 1)
		l1, l16 := stoneOf(lusSet, "MakeFiles", 1, 1), stoneOf(lusSet, "MakeFiles", 16, 1)
		r.finding("paper: the NFS filer outperforms the Lustre MDS on small-file "+
			"creation at every node count; here NFS %.0f->%.0f ops/s and Lustre "+
			"%.0f->%.0f ops/s from 1 to 16 nodes (NFS lead %.1fx at saturation)",
			n1, n16, l1, l16, n16/l16)
		r.Charts = append(r.Charts, charts.VsNodes([]charts.LabeledSeries{
			{Label: "MakeFiles on NFS", Points: nfsSet.ScaleSeries("MakeFiles")},
			{Label: "MakeFiles on Lustre", Points: lusSet.ScaleSeries("MakeFiles")},
		}, 1, chartW, chartH))
	}}
}

// prefillRate measures on k the single-process create rate into a
// directory pre-filled (at zero simulated cost) with prefill entries.
func prefillRate(k *sim.Kernel, mk func(k *sim.Kernel) interface {
	core.FileSystem
	Namespace() *namespace.Namespace
}, prefill, probe int) (float64, error) {
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := mk(k)
	ns := fsys.Namespace()
	if _, err := ns.Mkdir("/big", 0o755, 0); err != nil {
		return 0, err
	}
	for i := 0; i < prefill; i++ {
		if _, err := ns.Create(fmt.Sprintf("/big/pre%d", i), 0o644, 0); err != nil {
			return 0, err
		}
	}
	var rate float64
	err := runProbe(k, "probe", func(p *sim.Proc) error {
		c := fsys.NewClient(cl.Nodes[0], p)
		start := p.Now()
		for i := 0; i < probe; i++ {
			if err := c.Create(fmt.Sprintf("/big/new%d", i)); err != nil {
				return err
			}
		}
		rate = float64(probe) / (p.Now() - start).Seconds()
		return nil
	})
	return rate, err
}

// e08LargeDirectories reproduces §4.3.3: sequential create rates degrade
// with directory size according to the server's directory index, and
// parallel creates into one shared directory serialize while per-process
// directories scale.
func e08LargeDirectories() plan {
	sizes := []int{1000, 10000, 100000}
	const probe = 300

	type variant struct {
		name string
		mk   func(k *sim.Kernel) interface {
			core.FileSystem
			Namespace() *namespace.Namespace
		}
	}
	variants := []variant{
		{"NFS/WAFL (hash dirs)", func(k *sim.Kernel) interface {
			core.FileSystem
			Namespace() *namespace.Namespace
		} {
			return nfs.New(k, "home", nfs.DefaultConfig())
		}},
		{"NFS (linear dirs)", func(k *sim.Kernel) interface {
			core.FileSystem
			Namespace() *namespace.Namespace
		} {
			cfg := nfs.DefaultConfig()
			cfg.DirIndex = namespace.IndexLinear
			return nfs.New(k, "home", cfg)
		}},
		{"Lustre (htree dirs)", func(k *sim.Kernel) interface {
			core.FileSystem
			Namespace() *namespace.Namespace
		} {
			return lustre.New(k, "scratch", lustre.DefaultConfig())
		}},
	}
	// Parallel part: shared directory vs per-process directories on
	// Lustre, 8 nodes x 1 process, each a cell seeded 881.
	sharedVsOwn := func(k *sim.Kernel, plugin core.Plugin, problem int) (float64, error) {
		cl := cluster.New(k, cluster.DefaultConfig(8))
		m, err := measure(cl, lustre.New(k, "scratch", lustre.DefaultConfig()), 8, 1,
			core.Params{ProblemSize: problem, WorkDir: "/bench"}, plugin, nil)
		if err != nil {
			return 0, err
		}
		return m.Averages().Stonewall, nil
	}

	// One cell per (variant, size) prefill probe, seeded 9000+size, plus
	// the two parallel-create cells — 11 in all.
	nProbe := len(variants) * len(sizes)
	var names []string
	for _, v := range variants {
		for _, s := range sizes {
			names = append(names, fmt.Sprintf("%s@%d", v.name, s))
		}
	}
	names = append(names, "shared-dir", "own-dirs")
	seed := func(i int) int64 {
		if i < nProbe {
			return int64(9000 + sizes[i%len(sizes)])
		}
		return 881
	}
	vals, cs := cellsOf(names, seed, func(i int, k *sim.Kernel) (float64, error) {
		switch {
		case i < nProbe:
			return prefillRate(k, variants[i/len(sizes)].mk, sizes[i%len(sizes)], probe)
		case i == nProbe:
			return sharedVsOwn(k, core.MakeOnedirFiles{}, 8000) // 1000 per proc, one dir
		default:
			return sharedVsOwn(k, core.MakeFiles{}, 1000) // 1000 per proc, own dirs
		}
	})
	return plan{cs, func(r *Report) {
		rates := make(map[string][]float64)
		for vi, v := range variants {
			for si, s := range sizes {
				rate := vals[vi*len(sizes)+si]
				rates[v.name] = append(rates[v.name], rate)
				r.row(fmt.Sprintf("%s @ %d entries", v.name, s), rate, "ops/s", "")
			}
		}
		lin := rates["NFS (linear dirs)"]
		hash := rates["NFS/WAFL (hash dirs)"]
		r.finding("paper: hashed/tree directory indexes keep large directories "+
			"usable while linear scans collapse; here the linear variant loses "+
			"%.0fx from 1k to 100k entries while the hash variant loses %.1f%%",
			lin[0]/lin[2], 100*(1-hash[2]/hash[0]))

		shared, own := vals[nProbe], vals[nProbe+1]
		r.row("Lustre 8x1, one shared directory", shared, "ops/s", "MakeOnedirFiles")
		r.row("Lustre 8x1, per-process directories", own, "ops/s", "MakeFiles")
		r.finding("paper: parallel creates in one directory serialize on the "+
			"directory lock; here per-process directories are %.1fx faster", own/shared)
	}}
}

// e09AllocationBursts reproduces §4.3.4: internal allocation processes
// (modelled as Lustre OSS object pre-allocation refills) appear as
// periodic throughput dips in the time-interval log — invisible in any
// summary average.
func e09AllocationBursts() plan {
	var m *results.Measurement
	var refills int
	creates := func(k *sim.Kernel) (err error) {
		cl := cluster.New(k, cluster.DefaultConfig(1))
		cfg := lustre.DefaultConfig()
		cfg.NumOSS = 2
		cfg.PreallocBatch = 256
		cfg.OSSRefillService = 40 * time.Millisecond
		fsys := lustre.New(k, "scratch", cfg)
		m, err = measure(cl, fsys, 1, 1, core.Params{ProblemSize: 3000, WorkDir: "/bench"}, core.MakeFiles{}, nil)
		refills = fsys.RefillCount
		return err
	}
	return plan{[]cell{{"creates", 909, creates}}, func(r *Report) {
		var sum, min float64
		min = 1e18
		var n int
		for _, row := range m.Summary() {
			if row.Throughput <= 0 {
				continue
			}
			sum += row.Throughput
			if row.Throughput < min {
				min = row.Throughput
			}
			n++
		}
		mean := sum / float64(n)
		r.row("OSS pre-allocation refills", float64(refills), "", "batch=256, 2 OSTs")
		r.row("mean interval throughput", mean, "ops/s", "")
		r.row("min interval throughput", min, "ops/s", "interval hit by a refill stall")
		r.row("dip depth", 100*(1-min/mean), "%", "")
		r.finding("paper: allocation activity is invisible in averages but shows as "+
			"periodic dips in the time log; here %d refills cause intervals %.0f%% "+
			"below the mean", refills, 100*(1-min/mean))
		r.Charts = append(r.Charts, charts.TimeChart(m, chartW, chartH))
	}}
}
