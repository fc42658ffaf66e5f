package experiments

import (
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/nfs"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// nfsCells runs one timed MakeFiles measurement on an NFS filer per
// hook (nil hook = clean run) as parallel cells, all with the same seed,
// nodes and window. Every disturbance experiment pairs a clean cell with
// a disturbed cell; the two runs share a seed but nothing else, so they
// fan out independently.
func nfsCells(expID string, seed int64, nodes int, window time.Duration,
	names []string, hooks []func(cl *cluster.Cluster, fsys *nfs.FS, mp *sim.Proc)) ([]*results.Measurement, error) {

	return parCells(expID, names, func(i int) (*results.Measurement, error) {
		k := sim.New(seed)
		cl := cluster.New(k, cluster.DefaultConfig(nodes+1))
		fsys := nfs.New(k, "home", nfs.DefaultConfig())
		var hook func(*sim.Proc, core.MeasurementInfo)
		if hooks[i] != nil {
			hook = func(mp *sim.Proc, _ core.MeasurementInfo) { hooks[i](cl, fsys, mp) }
		}
		return measure(cl, fsys, nodes, 1, core.Params{
			ProblemSize: 5000,
			TimeLimit:   window,
			WorkDir:     "/bench",
		}, core.MakeFiles{}, hook)
	})
}

// E03CPUHogCOV reproduces Fig. 4.4: a CPU-bound disturbance on one of
// four client nodes shows up as a throughput dip and a step in the COV of
// per-process performance.
func E03CPUHogCOV() *Report {
	r := &Report{ID: "E03", Title: "CPU hog on one of 4 nodes: dip + COV step",
		PaperRef: "Fig. 4.4"}
	const window = 30 * time.Second
	hogFrom, hogTo := 10*time.Second, 16*time.Second

	runs, err := nfsCells("E03", 101, 4, window, []string{"clean", "hogged"},
		[]func(cl *cluster.Cluster, fsys *nfs.FS, mp *sim.Proc){
			nil,
			func(cl *cluster.Cluster, _ *nfs.FS, mp *sim.Proc) {
				cl.Nodes[2].StartCPUHog(24, 0, mp.Now()+hogFrom, hogTo-hogFrom)
			},
		})
	if err != nil {
		return r.fail(err)
	}
	clean, hogged := runs[0], runs[1]

	before := windowThroughput(hogged, 2*time.Second, hogFrom)
	during := windowThroughput(hogged, hogFrom, hogTo)
	covBase := maxCOV(clean, 2*time.Second, hogFrom)
	covHog := maxCOV(hogged, hogFrom, hogTo)
	r.row("clean run total", float64(clean.TotalOps()), "ops", "")
	r.row("hogged run total", float64(hogged.TotalOps()), "ops", "")
	r.row("throughput before hog", before, "ops/s", "t=2..10s")
	r.row("throughput during hog", during, "ops/s", "t=10..16s, one node starved")
	r.row("max COV clean", covBase, "", "")
	r.row("max COV during hog", covHog, "", "")
	r.finding("paper: ~5500 -> ~4000 ops/s dip and a clear COV step; "+
		"here %.0f -> %.0f ops/s (%.0f%% dip) with COV %.2f -> %.2f",
		before, during, 100*(1-during/before), covBase, covHog)
	r.Charts = append(r.Charts, charts.TimeChart(hogged, chartW, chartH))
	return r
}

// E04SnapshotNoise reproduces Fig. 4.5: snapshot creation on the filer
// perturbs per-process performance randomly, raising the COV in an
// erratic way rather than as a clean step.
func E04SnapshotNoise() *Report {
	r := &Report{ID: "E04", Title: "Server snapshots: erratic COV",
		PaperRef: "Fig. 4.5"}
	const window = 30 * time.Second
	snapAt, snapLen := 9*time.Second, 10*time.Second

	runs, err := nfsCells("E04", 202, 4, window, []string{"clean", "snapshots"},
		[]func(cl *cluster.Cluster, fsys *nfs.FS, mp *sim.Proc){
			nil,
			func(_ *cluster.Cluster, fsys *nfs.FS, mp *sim.Proc) {
				mp.Spawn("snapshotter", func(p *sim.Proc) {
					p.Sleep(snapAt)
					fsys.WAFL().TriggerSnapshots(snapLen)
				})
			},
		})
	if err != nil {
		return r.fail(err)
	}
	clean, snappy := runs[0], runs[1]

	baseline := windowThroughput(snappy, 2*time.Second, snapAt)
	during := windowThroughput(snappy, snapAt, snapAt+snapLen)
	covBase := maxCOV(clean, 2*time.Second, window)
	covSnap := maxCOV(snappy, snapAt, snapAt+snapLen)
	r.row("throughput before snapshots", baseline, "ops/s", "")
	r.row("throughput during snapshots", during, "ops/s", "")
	r.row("max COV clean run", covBase, "", "")
	r.row("max COV during snapshots", covSnap, "", "randomized per request")
	r.finding("paper: COV rises 'in a much more random manner' than under a "+
		"node-local hog; here COV %.2f -> %.2f while throughput drops %.0f%%",
		covBase, covSnap, 100*(1-during/baseline))
	r.Charts = append(r.Charts, charts.TimeChart(snappy, chartW, chartH))
	return r
}

// E05ConsistencyPoints reproduces Fig. 4.6: at 20 nodes the filer
// saturates and the WAFL consistency points appear as a sawtooth; a CPU
// hog on one node no longer changes total throughput (other clients take
// over the freed capacity) but remains visible in the COV.
func E05ConsistencyPoints() *Report {
	r := &Report{ID: "E05", Title: "Saturation sawtooth; hog invisible in total, visible in COV",
		PaperRef: "Fig. 4.6"}
	const window = 22 * time.Second

	// cps is written only by the clean cell; parCells has joined every
	// cell before it is read below.
	var cps int
	runs, err := nfsCells("E05", 303, 20, window, []string{"clean", "hogged"},
		[]func(cl *cluster.Cluster, fsys *nfs.FS, mp *sim.Proc){
			func(_ *cluster.Cluster, fsys *nfs.FS, mp *sim.Proc) {
				mp.Spawn("cp-counter", func(p *sim.Proc) {
					p.Sleep(window)
					cps = fsys.WAFL().NumCPs()
				})
			},
			func(cl *cluster.Cluster, _ *nfs.FS, mp *sim.Proc) {
				cl.Nodes[5].StartCPUHog(24, 0, mp.Now()+4*time.Second, 6*time.Second)
			},
		})
	if err != nil {
		return r.fail(err)
	}
	clean, hogged := runs[0], runs[1]

	// Sawtooth: peak vs trough of interval throughput after warmup.
	var peak, trough float64
	trough = 1e18
	for _, row := range clean.Summary() {
		if row.T < 2*time.Second || row.T > window {
			continue
		}
		if row.Throughput > peak {
			peak = row.Throughput
		}
		if row.Throughput < trough && row.Throughput > 0 {
			trough = row.Throughput
		}
	}
	totalClean := float64(clean.TotalOps()) / window.Seconds()
	totalHog := float64(hogged.TotalOps()) / window.Seconds()
	covClean := maxCOV(clean, 4*time.Second, 10*time.Second)
	covHog := maxCOV(hogged, 4*time.Second, 10*time.Second)
	r.row("consistency points in window", float64(cps), "", "~10s cadence")
	r.row("peak interval throughput", peak, "ops/s", "")
	r.row("trough interval throughput", trough, "ops/s", "during CP")
	r.row("avg throughput clean", totalClean, "ops/s", "")
	r.row("avg throughput with hog", totalHog, "ops/s", "nearly unchanged at saturation")
	r.row("max COV clean (hog window)", covClean, "", "")
	r.row("max COV hogged (hog window)", covHog, "", "")
	r.finding("paper: sawtooth from WAFL CPs; total unchanged by a one-node hog "+
		"but COV separates it; here trough/peak = %.2f, totals %.0f vs %.0f ops/s, "+
		"COV %.2f vs %.2f", trough/peak, totalClean, totalHog, covClean, covHog)
	r.Charts = append(r.Charts, charts.TimeChart(clean, chartW, chartH))
	return r
}

// E06WriteInterference reproduces Fig. 4.7: a competing bulk write to the
// same filer slows all metadata clients together — the COV stays low
// while total throughput dips.
func E06WriteInterference() *Report {
	r := &Report{ID: "E06", Title: "Bulk data write slows metadata globally",
		PaperRef: "Fig. 4.7"}
	const window = 20 * time.Second

	runs, err := nfsCells("E06", 404, 20, window, []string{"clean", "bulk-write"},
		[]func(cl *cluster.Cluster, fsys *nfs.FS, mp *sim.Proc){
			nil,
			func(cl *cluster.Cluster, fsys *nfs.FS, mp *sim.Proc) {
				writer := cl.Nodes[len(cl.Nodes)-1]
				mp.Spawn("bulk-writer", func(p *sim.Proc) {
					c := fsys.NewClient(writer, p)
					for i, at := range []time.Duration{5 * time.Second, 13 * time.Second} {
						if d := at - p.Now(); d > 0 {
							p.Sleep(d)
						}
						name := "/bigfile" + string(rune('a'+i))
						if err := c.Create(name); err != nil {
							return
						}
						h, err := c.Open(name)
						if err != nil {
							return
						}
						c.Write(h, 200<<20)
						c.Close(h) // flush: occupies the filer for seconds
						c.Unlink(name)
					}
				})
			},
		})
	if err != nil {
		return r.fail(err)
	}
	clean, disturbed := runs[0], runs[1]

	base := windowThroughput(disturbed, 1*time.Second, 5*time.Second)
	during := windowThroughput(disturbed, 5*time.Second, 11*time.Second)
	covDuring := maxCOV(disturbed, 5*time.Second, 11*time.Second)
	covClean := maxCOV(clean, 5*time.Second, 11*time.Second)
	r.row("throughput before write", base, "ops/s", "")
	r.row("throughput during write", during, "ops/s", "")
	r.row("max COV during write", covDuring, "", "global slowdown: COV stays low")
	r.row("max COV clean", covClean, "", "")
	r.finding("paper: 'while the MakeFiles throughput decreases, there is very "+
		"little difference between the nodes'; here dip %.0f%% with COV %.2f "+
		"(clean %.2f)", 100*(1-during/base), covDuring, covClean)
	r.Charts = append(r.Charts, charts.TimeChart(disturbed, chartW, chartH))
	return r
}
