package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/lustre"
	"dmetabench/internal/nfs"
	"dmetabench/internal/sim"
)

// e12Latencies are the one-way network delays of the sweep.
var e12Latencies = []time.Duration{
	100 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
}

// singleProcWall runs one plugin at 1 node x 1 process and returns the
// wall-clock throughput (robust for sub-interval runs).
func singleProcWall(mk func(k *sim.Kernel) core.FileSystem, plugin core.Plugin, problem int, seed int64) float64 {
	k := sim.New(seed)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	r := &core.Runner{
		Cluster:      cl,
		FS:           mk(k),
		Params:       core.Params{ProblemSize: problem, WorkDir: "/bench"},
		SlotsPerNode: 1,
		Plugins:      []core.Plugin{plugin},
	}
	set, err := r.Run()
	if err != nil {
		return 0
	}
	return wallOf(set, plugin.Name(), 1, 1)
}

// singleProcTimed runs a timed 1x1 measurement, which amortizes per-run
// constants (like the one synchronous mkdir at bench start) that would
// otherwise dominate very fast cached operations.
func singleProcTimed(mk func(k *sim.Kernel) core.FileSystem, plugin core.Plugin, window time.Duration, seed int64) float64 {
	k := sim.New(seed)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	r := &core.Runner{
		Cluster: cl,
		FS:      mk(k),
		Params: core.Params{
			ProblemSize: 1 << 20, // no subdirectory rotation inside the window
			TimeLimit:   window,
			WorkDir:     "/bench",
		},
		SlotsPerNode: 1,
		Plugins:      []core.Plugin{plugin},
	}
	set, err := r.Run()
	if err != nil {
		return 0
	}
	return wallOf(set, plugin.Name(), 1, 1)
}

// E12LatencySweep reproduces §4.6: synchronous metadata operations
// degrade with network latency roughly as 1/RTT, while operations served
// from client caches — and creates under a metadata write-back cache —
// are almost latency-independent.
func E12LatencySweep() *Report {
	r := &Report{ID: "E12", Title: "Metadata throughput vs. network latency",
		PaperRef: "§4.6"}
	// One cell per (latency, measurement) point — 15 in all, each on its
	// own kernel with its own seed, exactly as the serial loop seeded them.
	const perLat = 3
	names := make([]string, 0, len(e12Latencies)*perLat)
	for _, lat := range e12Latencies {
		rtt := (2 * lat).Seconds() * 1000
		names = append(names,
			fmt.Sprintf("rtt%.1fms-nfs-create", rtt),
			fmt.Sprintf("rtt%.1fms-nfs-statnc", rtt),
			fmt.Sprintf("rtt%.1fms-wb-create", rtt))
	}
	vals := parCells("E12", names, func(i int) float64 {
		lat := e12Latencies[i/perLat]
		seed := int64(1200 + 10*(i/perLat))
		nfsMk := func(k *sim.Kernel) core.FileSystem {
			cfg := nfs.DefaultConfig()
			cfg.OneWayLatency = lat
			return nfs.New(k, "home", cfg)
		}
		switch i % perLat {
		case 0:
			return singleProcWall(nfsMk, core.MakeFiles{}, 500, seed)
		case 1:
			return singleProcWall(nfsMk, core.StatNocacheFiles{}, 500, seed+1)
		default:
			return singleProcTimed(func(k *sim.Kernel) core.FileSystem {
				cfg := lustre.DefaultConfig()
				cfg.OneWayLatency = lat
				cfg.Writeback = true
				return lustre.New(k, "scratch", cfg)
			}, core.MakeFiles{}, time.Second, seed+2)
		}
	})
	var xs, nfsCreate, nfsStatNC, wbCreate []float64
	for i, lat := range e12Latencies {
		rtt := (2 * lat).Seconds() * 1000
		c, s, w := vals[i*perLat], vals[i*perLat+1], vals[i*perLat+2]
		xs = append(xs, rtt) // RTT in ms
		nfsCreate = append(nfsCreate, c)
		nfsStatNC = append(nfsStatNC, s)
		wbCreate = append(wbCreate, w)
		r.row(fmt.Sprintf("RTT %.1fms: NFS creates", rtt), c, "ops/s", "")
		r.row(fmt.Sprintf("RTT %.1fms: NFS stat (no cache)", rtt), s, "ops/s", "")
		r.row(fmt.Sprintf("RTT %.1fms: write-back creates", rtt), w, "ops/s", "")
	}
	if nfsCreate[0] > 0 && wbCreate[len(wbCreate)-1] > 0 {
		nfsDrop := nfsCreate[0] / nfsCreate[len(nfsCreate)-1]
		wbDrop := wbCreate[0] / wbCreate[len(wbCreate)-1]
		r.finding("paper: synchronous metadata rates fall with added latency "+
			"while caching hides it; here 50x more RTT costs NFS creates %.1fx "+
			"and write-back creates only %.1fx", nfsDrop, wbDrop)
	}
	r.Charts = append(r.Charts, charts.Render(
		"Throughput vs network RTT", "RTT ms", "ops/s", chartW, chartH,
		[]charts.Series{
			{Name: "NFS MakeFiles (synchronous)", X: xs, Y: nfsCreate},
			{Name: "NFS StatNocacheFiles", X: xs, Y: nfsStatNC},
			{Name: "Lustre write-back MakeFiles", X: xs, Y: wbCreate},
		}))
	return r
}
