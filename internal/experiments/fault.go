package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/fault"
	"dmetabench/internal/results"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
)

// The E19–E21 family injects server failures into the sharded MDS model
// (internal/fault driving internal/shard's primary/backup replication).
// The thesis only measures healthy systems, but its COV-based
// time-interval methodology (§3.2.5, §4.2) is exactly the instrument
// that exposes what a crash does to throughput over time; StoreTorrent
// and HopsFS motivate analyzing fault tolerance and metadata
// performance together. E19 shows the failure in the timeline, E20
// prices the replication that bounds it, and E21 scales the recovery
// itself.

// outageSeconds sums the sampling intervals between from and to whose
// throughput fell below frac of baseline — the measured service-outage
// window.
func outageSeconds(m *results.Measurement, baseline, frac float64, from, to time.Duration) time.Duration {
	var n int
	for _, r := range m.Summary() {
		if r.T > from && r.T <= to && r.Throughput < frac*baseline {
			n++
		}
	}
	return time.Duration(n) * m.Interval
}

// e19FailoverTimeline crashes one of two shards mid-run and watches the
// interval timeline: without replication the slice goes dark until the
// scheduled restart and every worker that routes to it stalls in retry
// backoff; with a synchronous backup the outage collapses to the
// detection delay plus journal replay. The crash is visible exactly the
// way §4.2's disturbances are: a throughput dip with a COV spike, then
// a recovery ramp.
func e19FailoverTimeline() plan {
	const (
		window    = 20 * time.Second
		crashAt   = 6 * time.Second
		restartAt = 14 * time.Second
	)
	// Two cells: the unreplicated and the replicated run, each with its
	// own kernel and fault-plan instance. A cell keeps only what assembly
	// reads, so its simulated world is garbage once the run ends.
	type e19cell struct {
		m         *results.Measurement
		takeovers []shard.Takeover
	}
	seed := func(i int) int64 { return int64(1900 + i) }
	cells, cs := cellsOf([]string{"single", "replicated"}, seed, func(i int, k *sim.Kernel) (e19cell, error) {
		outage := (&fault.Plan{}).Outage(crashAt, restartAt, 0)
		if err := outage.Validate(); err != nil {
			return e19cell{}, err
		}
		cfg := shard.DefaultConfig(2)
		cfg.Replicate = i == 1
		cl := cluster.New(k, cluster.DefaultConfig(8))
		fsys := shard.New(k, "meta", cfg)
		m, err := measure(cl, fsys, 8, 2,
			core.Params{ProblemSize: 1000, TimeLimit: window, WorkDir: "/bench"}, core.MakeFiles{},
			func(mp *sim.Proc, _ core.MeasurementInfo) { outage.Start(mp, fsys) })
		return e19cell{m: m, takeovers: fsys.Takeovers}, err
	})
	return plan{cs, func(r *Report) {
		single, repl, takeovers := cells[0].m, cells[1].m, cells[1].takeovers

		base := windowThroughput(single, 2*time.Second, crashAt)
		baseR := windowThroughput(repl, 2*time.Second, crashAt)
		durS := windowThroughput(single, crashAt, restartAt)
		durR := windowThroughput(repl, crashAt, restartAt)
		afterS := windowThroughput(single, 16*time.Second, window)
		outS := outageSeconds(single, base, 0.1, crashAt, window)
		outR := outageSeconds(repl, baseR, 0.1, crashAt, window)
		covBeforeS := maxCOV(single, 2*time.Second, crashAt)
		covCrashS := maxCOV(single, crashAt, restartAt+2*time.Second)
		covCrashR := maxCOV(repl, crashAt, restartAt+2*time.Second)

		r.row("single: creates/s before crash", base, "ops/s", "t=2..6s, 2 shards")
		r.row("single: creates/s during outage", durS, "ops/s", "t=6..14s, shard 0 dark")
		r.row("single: creates/s after restart", afterS, "ops/s", "t=16..20s")
		r.row("single: outage window", outS.Seconds(), "s", "<10% of baseline")
		r.row("single: max COV before crash", covBeforeS, "", "")
		r.row("single: max COV around crash", covCrashS, "", "stalled vs. surviving workers")
		r.row("repl: creates/s before crash", baseR, "ops/s", "synchronous backup on")
		r.row("repl: creates/s during crash window", durR, "ops/s",
			"backup serving slice 0; mirroring suspended while the partner is down")
		r.row("repl: outage window", outR.Seconds(), "s", "<10% of baseline")
		r.row("repl: max COV around crash", covCrashR, "", "")
		if len(takeovers) > 0 {
			to := takeovers[0]
			r.row("repl: takeover latency", to.Total().Seconds()*1000, "ms",
				fmt.Sprintf("detect %.0fms + replay %d entries", to.Detect.Seconds()*1000, to.Entries))
		}
		r.finding("a crash is a §4.2 disturbance: the single run dips %.0f -> %.0f ops/s "+
			"with COV %.2f -> %.2f and stays degraded for %.1fs until restart+recovery, "+
			"while the replicated run's backup takes over and bounds the outage to %.1fs "+
			"at a steady-state cost of %.0f vs %.0f ops/s",
			base, durS, covBeforeS, covCrashS, outS.Seconds(), outR.Seconds(), baseR, base)
		r.Charts = append(r.Charts,
			"single shard pair (no replication), crash at 6s, restart at 14s\n"+charts.TimeChart(single, chartW, chartH),
			"replicated pair, same fault plan\n"+charts.TimeChart(repl, chartW, chartH))
	}}
}

// e20ReplicationOverhead prices the insurance: the same create workload
// across shard counts with and without a synchronous backup mirror.
// Every file mutation pays one interconnect round trip and backup-side
// service before its RPC returns — throughput drops by that margin, the
// cost of the bounded outage E19 shows.
func e20ReplicationOverhead() plan {
	plugin := e16Workload(0)
	shardCounts := []int{2, 4, 8}
	// One cell per (shard count, replication) pair — 6 independent runs.
	type e20cell struct {
		rate    float64
		mirrors int64
	}
	names := make([]string, 0, 2*len(shardCounts))
	for _, n := range shardCounts {
		names = append(names, fmt.Sprintf("%dshards-plain", n), fmt.Sprintf("%dshards-repl", n))
	}
	cells, cs := cellsOf(names, func(int) int64 { return 2000 }, func(i int, k *sim.Kernel) (e20cell, error) {
		cfg := shard.DefaultConfig(shardCounts[i/2])
		cfg.Replicate = i%2 == 1
		m, fsys, err := runSharded(k, cfg, plugin, 400)
		if err != nil {
			return e20cell{}, err
		}
		return e20cell{rate: wallOf(m), mirrors: fsys.MirrorCount}, nil
	})
	return plan{cs, func(r *Report) {
		var xs, plainY, replY []float64
		for i, n := range shardCounts {
			plain, repl := cells[2*i], cells[2*i+1]
			xs = append(xs, float64(n))
			plainY = append(plainY, plain.rate)
			replY = append(replY, repl.rate)
			r.row(fmt.Sprintf("creates/s @ %d shards, plain", n), plain.rate, "ops/s", "")
			r.row(fmt.Sprintf("creates/s @ %d shards, replicated", n), repl.rate, "ops/s",
				fmt.Sprintf("%d mirrors", repl.mirrors))
			r.row(fmt.Sprintf("replication cost @ %d shards", n), 100*(1-repl.rate/plain.rate), "%", "")
		}
		last := len(xs) - 1
		r.finding("synchronous backup mirroring costs %.0f%%..%.0f%% of create throughput "+
			"across 2..8 shards (every mutation pays an interconnect round trip before "+
			"returning) — the premium for the bounded outage window of E19",
			100*(1-replY[0]/plainY[0]), 100*(1-replY[last]/plainY[last]))
		r.Charts = append(r.Charts, charts.Render(
			"Create throughput vs. shard count, with/without synchronous backup",
			"shards", "ops/s", chartW, chartH,
			[]charts.Series{
				{Name: "plain", X: xs, Y: plainY},
				{Name: "replicated", X: xs, Y: replY},
			}))
	}}
}

// e21RecoveryScaling measures what a takeover costs as the crashed
// shard's journal grows: the backup must replay every dirty entry
// before serving, so promotion latency rises linearly from the
// detection floor. The client-observed outage tracks it plus the retry
// grid the client happens to land on.
func e21RecoveryScaling() plan {
	// One probe cell per journal length, all seeded 2100.
	type e21cell struct {
		to       shard.Takeover
		observed time.Duration
	}
	probe := func(k *sim.Kernel, files int) (e21cell, error) {
		cfg := shard.DefaultConfig(2)
		cfg.Replicate = true
		cfg.JournalCap = 1 << 20                   // uncapped for the sweep: the journal is the variable
		cfg.ReplayPerEntry = 50 * time.Microsecond // slow store: replay dominates past ~4k entries
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := shard.New(k, "meta", cfg)
		// Find a directory whose files (and itself) live on shard 0.
		dir := ""
		for i := 0; i < 256; i++ {
			cand := fmt.Sprintf("/d%d", i)
			if fsys.ShardOfDir(cand) == 0 {
				dir = cand
				break
			}
		}
		if dir == "" {
			return e21cell{}, fmt.Errorf("no directory on shard 0")
		}
		var res e21cell
		err := runProbe(k, "probe", func(p *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], p)
			if err := c.Mkdir(dir); err != nil {
				return err
			}
			for i := 0; i < files; i++ {
				if err := c.Create(fmt.Sprintf("%s/f%d", dir, i)); err != nil {
					return err
				}
			}
			fsys.Crash(p, 0)
			start := p.Now()
			if err := c.Create(dir + "/after-crash"); err != nil {
				return err
			}
			res.observed = p.Now() - start
			return nil
		})
		if err == nil && len(fsys.Takeovers) != 1 {
			err = fmt.Errorf("%d takeovers, want 1", len(fsys.Takeovers))
		}
		if err != nil {
			return e21cell{}, err
		}
		res.to = fsys.Takeovers[0]
		return res, nil
	}

	fileCounts := []int{0, 1000, 4000, 16000}
	names := make([]string, len(fileCounts))
	for i, files := range fileCounts {
		names[i] = fmt.Sprintf("%dfiles", files)
	}
	cells, cs := cellsOf(names, func(int) int64 { return 2100 }, func(i int, k *sim.Kernel) (e21cell, error) {
		return probe(k, fileCounts[i])
	})
	return plan{cs, func(r *Report) {

		var xs, ys []float64
		var floor, top time.Duration
		for i, files := range fileCounts {
			to, observed := cells[i].to, cells[i].observed
			if files == 0 {
				floor = to.Total()
			}
			top = to.Total()
			xs = append(xs, float64(to.Entries))
			ys = append(ys, to.Total().Seconds()*1000)
			r.row(fmt.Sprintf("takeover @ %5d dirty entries", to.Entries),
				to.Total().Seconds()*1000, "ms",
				fmt.Sprintf("client saw %.0fms", observed.Seconds()*1000))
		}
		r.row("detection floor", floor.Seconds()*1000, "ms", "lease expiry, empty journal")
		r.finding("takeover latency rises linearly with the dirty journal: from the "+
			"%.0fms detection floor to %.0fms at %.0fk entries — bounding the journal "+
			"(checkpoint cadence) is what bounds failover, the WAFL/ldiskfs replay "+
			"trade-off of §2.7/§4.8 resurfacing at the MDS level",
			floor.Seconds()*1000, top.Seconds()*1000, xs[len(xs)-1]/1000)
		r.Charts = append(r.Charts, charts.Render(
			"Takeover latency vs. journal entries replayed",
			"entries", "ms", chartW, chartH,
			[]charts.Series{{Name: "detect+replay", X: xs, Y: ys}}))
	}}
}
