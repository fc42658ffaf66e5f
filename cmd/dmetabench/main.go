// Command dmetabench runs distributed metadata benchmarks.
//
// Three modes are supported:
//
//	-mode sim     benchmark a simulated distributed file system on a
//	              simulated cluster (deterministic, laptop-scale);
//	-mode real    benchmark the host file system with N worker threads;
//	-mode master  coordinate dmetaworker daemons over TCP for a real
//	              multi-node run.
//
// Example (simulated NFS filer, 8 nodes, up to 4 processes per node):
//
//	dmetabench -mode sim -fs nfs -nodes 8 -ppn 4 \
//	    -ops MakeFiles,StatFiles -problemsize 2000 -out /tmp/run1
//
// Example (real, like the thesis invocation of Listing 3.2):
//
//	dmetabench -mode real -root /mnt/nfs/testdirectory -workers 8 \
//	    -ops MakeFiles,StatFiles -problemsize 10000 -label first-nfs-benchmark
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dmetabench/internal/afs"
	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/cxfs"
	"dmetabench/internal/localfs"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/ontapgx"
	"dmetabench/internal/realrun"
	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// fsKinds lists the -fs values runSim accepts, as the help text shows
// them.
const fsKinds = "nfs | lustre | lustre-wb | cxfs | afs | gx | shard | shard-subtree | local"

func main() {
	var (
		mode        = flag.String("mode", "sim", "sim | real | master")
		fsKind      = flag.String("fs", "nfs", "simulated fs: "+fsKinds)
		nodes       = flag.Int("nodes", 4, "sim: number of client nodes")
		ppn         = flag.Int("ppn", 2, "sim: worker slots per node")
		cores       = flag.Int("cores", 8, "sim: CPU cores per node")
		latency     = flag.Duration("latency", 0, "sim: one-way network latency (0 = the model's calibrated latency; not for cxfs, local)")
		seed        = flag.Int64("seed", 1, "sim: random seed")
		shards      = flag.Int("shards", 4, "sim: metadata servers for -fs shard / shard-subtree")
		backendName = flag.String("backend", "mem", "sim: shard storage backend cost model: mem | lsm | btree")
		ops         = flag.String("ops", "MakeFiles", "comma-separated operation list")
		problem     = flag.Int("problemsize", 5000, "operations per process (or per-directory limit)")
		timeLimit   = flag.Duration("timelimit", 0, "timed benchmark window (0 = fixed problem size)")
		workdir     = flag.String("workdir", "/bench", "target directory inside the file system")
		pathList    = flag.String("pathlist", "", "comma-separated per-process working directories")
		label       = flag.String("label", "dmetabench", "result set label")
		interval    = flag.Duration("interval", 100*time.Millisecond, "progress sampling interval")
		nodeStep    = flag.Int("nodestep", 1, "node count step in the execution plan")
		ppnStep     = flag.Int("ppnstep", 1, "processes-per-node step in the execution plan")
		out         = flag.String("out", "", "result output directory (empty = print only)")
		showCharts  = flag.Bool("charts", true, "print ASCII charts")
		root        = flag.String("root", "", "real/master: host directory to benchmark")
		workers     = flag.Int("workers", 4, "real: concurrent worker threads")
		workerAddrs = flag.String("workeraddrs", "", "master: comma-separated dmetaworker addresses")
	)
	flag.Parse()

	params := core.Params{
		ProblemSize: *problem,
		TimeLimit:   *timeLimit,
		WorkDir:     *workdir,
		Interval:    *interval,
		NodeStep:    *nodeStep,
		PPNStep:     *ppnStep,
		Label:       *label,
	}
	if *pathList != "" {
		params.PathList = strings.Split(*pathList, ",")
	}
	var plugins []core.Plugin
	for _, name := range strings.Split(*ops, ",") {
		p, err := core.PluginByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		plugins = append(plugins, p)
	}

	var set *results.Set
	var err error
	switch *mode {
	case "sim":
		set, err = runSim(*fsKind, *nodes, *ppn, *cores, *shards, *backendName, *latency, *seed, params, plugins)
	case "real":
		if *root == "" {
			fatal(fmt.Errorf("-mode real requires -root"))
		}
		r := &realrun.Runner{Root: *root, Workers: *workers, Params: params, Plugins: plugins}
		set, err = r.Run()
	case "master":
		if *root == "" || *workerAddrs == "" {
			fatal(fmt.Errorf("-mode master requires -root and -workeraddrs"))
		}
		m := &realrun.Master{
			Root:    *root,
			Addrs:   strings.Split(*workerAddrs, ","),
			Params:  params,
			Plugins: plugins,
		}
		set, err = m.Run()
	default:
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err != nil {
		fatal(err)
	}

	printSet(set, *showCharts)
	if *out != "" {
		if err := set.Save(*out); err != nil {
			fatal(err)
		}
		fmt.Printf("results written to %s\n", *out)
	}
}

func runSim(fsKind string, nodes, ppn, cores, shards int, backendName string, latency time.Duration, seed int64,
	params core.Params, plugins []core.Plugin) (*results.Set, error) {

	switch fsKind {
	case "cxfs", "local":
		// cxfs's private SAN and the node-local file system keep their
		// own calibrated latency.
		if latency != 0 {
			return nil, fmt.Errorf("-fs %s does not take -latency", fsKind)
		}
	}
	if fsKind == "local" && nodes != 1 {
		return nil, fmt.Errorf("-fs local runs on its own node only: -nodes must be 1, not %d", nodes)
	}
	// lat is the one-way latency of a networked model calibrated at def.
	lat := func(def time.Duration) time.Duration {
		if latency == 0 {
			return def
		}
		return latency
	}

	k := sim.New(seed)
	cfg := cluster.DefaultConfig(nodes)
	cfg.Cores = cores
	cl := cluster.New(k, cfg)

	var fsys core.FileSystem
	switch fsKind {
	case "nfs":
		c := nfs.DefaultConfig()
		c.OneWayLatency = lat(c.OneWayLatency)
		fsys = nfs.New(k, "home", c)
	case "lustre", "lustre-wb":
		c := lustre.DefaultConfig()
		c.OneWayLatency = lat(c.OneWayLatency)
		c.Writeback = fsKind == "lustre-wb"
		fsys = lustre.New(k, "scratch", c)
	case "cxfs":
		fsys = cxfs.New(k, "san")
	case "afs":
		c := afs.DefaultConfig()
		c.OneWayLatency = lat(c.OneWayLatency)
		cell := afs.New(k, "cell", 2, c)
		for i := 0; i < nodes; i++ {
			cell.AddVolume(fmt.Sprintf("vol%d", i), -1)
		}
		if len(params.PathList) == 0 {
			params.WorkDir = "/vol0"
		}
		fsys = cell
	case "gx":
		c := ontapgx.DefaultConfig()
		c.OneWayLatency = lat(c.OneWayLatency)
		gx := ontapgx.New(k, "gx", min(nodes, 8), c)
		for i := 0; i < min(nodes, 8); i++ {
			gx.AddVolume(fmt.Sprintf("vol%d", i), i)
		}
		if len(params.PathList) == 0 {
			params.WorkDir = "/vol0"
		}
		fsys = gx
	case "shard", "shard-subtree":
		c := shard.DefaultConfig(shards)
		c.OneWayLatency = lat(c.OneWayLatency)
		switch backendName {
		case "", "mem", "memjournal", "lsm", "btree", "sql":
			c.Backend = shard.ParseBackend(backendName)
		default:
			return nil, fmt.Errorf("unknown -backend %q", backendName)
		}
		if fsKind == "shard-subtree" {
			c.Placement = shard.PlaceSubtree
		}
		fsys = shard.New(k, "meta", c)
	case "local":
		fsys = localfs.New(k, cl.Nodes[0])
	default:
		return nil, fmt.Errorf("unknown -fs %q", fsKind)
	}

	r := &core.Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       params,
		SlotsPerNode: ppn,
		Plugins:      plugins,
		ProfileLoad:  time.Second,
	}
	return r.Run()
}

func printSet(set *results.Set, withCharts bool) {
	fmt.Printf("# %s on %s (interval %s)\n", set.Label, set.FS, set.Interval)
	fmt.Println("Operation\tNodes\tPPN\tProcs\tStonewall ops/s\tWallclock ops/s\tErrors")
	for _, m := range set.Measurements {
		a := m.Averages()
		nerr := 0
		for _, e := range m.Errors {
			if e != "" {
				nerr++
			}
		}
		fmt.Printf("%s\t%d\t%d\t%d\t%.1f\t%.1f\t%d\n",
			m.Op, m.Nodes, m.PPN, m.Procs(), a.Stonewall, a.WallClock, nerr)
	}
	if !withCharts {
		return
	}
	for _, op := range set.Ops() {
		pts := set.ScaleSeries(op)
		if len(pts) > 1 {
			fmt.Println(charts.VsProcesses([]charts.LabeledSeries{{Label: op, Points: pts}}, 68, 10))
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmetabench:", err)
	os.Exit(1)
}
