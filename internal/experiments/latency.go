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

// singleProc runs one plugin at 1 node x 1 process on k and returns the
// wall-clock throughput (robust for sub-interval runs).
func singleProc(k *sim.Kernel, mk func(k *sim.Kernel) core.FileSystem, plugin core.Plugin, params core.Params) (float64, error) {
	cl := cluster.New(k, cluster.DefaultConfig(1))
	m, err := measure(cl, mk(k), 1, 1, params, plugin, nil)
	if err != nil {
		return 0, err
	}
	return wallOf(m), nil
}

// e12LatencySweep reproduces §4.6: synchronous metadata operations
// degrade with network latency roughly as 1/RTT, while operations served
// from client caches — and creates under a metadata write-back cache —
// are almost latency-independent.
func e12LatencySweep() plan {
	// One cell per (latency, measurement) point — 15 in all, each on its
	// own kernel: latency step s seeds its three cells 1200+10s, +1, +2.
	const perLat = 3
	names := make([]string, 0, len(e12Latencies)*perLat)
	for _, lat := range e12Latencies {
		rtt := (2 * lat).Seconds() * 1000
		names = append(names,
			fmt.Sprintf("rtt%.1fms-nfs-create", rtt),
			fmt.Sprintf("rtt%.1fms-nfs-statnc", rtt),
			fmt.Sprintf("rtt%.1fms-wb-create", rtt))
	}
	seed := func(i int) int64 { return int64(1200 + 10*(i/perLat) + i%perLat) }
	vals, cs := cellsOf(names, seed, func(i int, k *sim.Kernel) (float64, error) {
		lat := e12Latencies[i/perLat]
		nfsMk := func(k *sim.Kernel) core.FileSystem {
			cfg := nfs.DefaultConfig()
			cfg.OneWayLatency = lat
			return nfs.New(k, "home", cfg)
		}
		nfsParams := core.Params{ProblemSize: 500, WorkDir: "/bench"}
		switch i % perLat {
		case 0:
			return singleProc(k, nfsMk, core.MakeFiles{}, nfsParams)
		case 1:
			return singleProc(k, nfsMk, core.StatNocacheFiles{}, nfsParams)
		default:
			// A timed run amortizes per-run constants (like the one
			// synchronous mkdir at bench start) that would otherwise
			// dominate cached creates.
			return singleProc(k, func(k *sim.Kernel) core.FileSystem {
				cfg := lustre.DefaultConfig()
				cfg.OneWayLatency = lat
				cfg.Writeback = true
				return lustre.New(k, "scratch", cfg)
			}, core.MakeFiles{}, core.Params{
				ProblemSize: 1 << 20, // no subdirectory rotation inside the window
				TimeLimit:   time.Second,
				WorkDir:     "/bench",
			})
		}
	})
	return plan{cs, func(r *Report) {
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
		nfsDrop := nfsCreate[0] / nfsCreate[len(nfsCreate)-1]
		wbDrop := wbCreate[0] / wbCreate[len(wbCreate)-1]
		r.finding("paper: synchronous metadata rates fall with added latency "+
			"while caching hides it; here 50x more RTT costs NFS creates %.1fx "+
			"and write-back creates only %.1fx", nfsDrop, wbDrop)
		r.Charts = append(r.Charts, charts.Render(
			"Throughput vs network RTT", "RTT ms", "ops/s", chartW, chartH,
			[]charts.Series{
				{Name: "NFS MakeFiles (synchronous)", X: xs, Y: nfsCreate},
				{Name: "NFS StatNocacheFiles", X: xs, Y: nfsStatNC},
				{Name: "Lustre write-back MakeFiles", X: xs, Y: wbCreate},
			}))
	}}
}
