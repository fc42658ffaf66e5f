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

// The E28–E30 family prices the metadata storage backend itself
// (internal/shard/backend.go). Every experiment before E28 ran on one
// implicit backend — the in-memory namespace with a metadata journal —
// but real metadata services diverge exactly at this layer: HopsFS
// moves HDFS metadata into a NewSQL database, Ceph and many KV-backed
// designs sit on an LSM tree. E28 profiles the per-operation cost of
// the three backend models, E29 puts LSM compaction pauses into the
// §3.2.5 interval timeline, and E30 sweeps the group-commit window
// that batches journal flushes and replication round trips — the knob
// that changes E20's replication-overhead story.

// backendKinds is the sweep order of the backend experiments.
var backendKinds = []shard.BackendKind{shard.BackendMemJournal, shard.BackendLSM, shard.BackendBTree}

// e28BackendProfile prices create, positive stat, negative stat
// (ENOENT) and readdir per backend across 1–8 shards with a single
// uncached probe client, so the numbers are pure backend service cost —
// no client caching, no queueing.
func e28BackendProfile() plan {
	const (
		warm = 600 // files pre-created per directory before measuring
		ops  = 200
		rds  = 40
	)
	shardCounts := []int{1, 2, 4, 8}
	type probe struct {
		create, stat, enoent, readdir time.Duration
	}
	run := func(k *sim.Kernel, kind shard.BackendKind, nShards int) (probe, error) {
		cfg := shard.DefaultConfig(nShards)
		cfg.Backend = kind
		cfg.CacheMode = shard.CacheNone
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := newShardFS(k, "meta", cfg)
		var p probe
		err := runProbe(k, "probe", func(sp *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], sp)
			if err := c.Mkdir("/d"); err != nil {
				return err
			}
			for i := 0; i < warm; i++ {
				if err := c.Create(fmt.Sprintf("/d/w%d", i)); err != nil {
					return err
				}
			}
			start := sp.Now()
			for i := 0; i < ops; i++ {
				if err := c.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
					return err
				}
			}
			p.create = (sp.Now() - start) / ops
			start = sp.Now()
			for i := 0; i < ops; i++ {
				if _, err := c.Stat(fmt.Sprintf("/d/f%d", i)); err != nil {
					return err
				}
			}
			p.stat = (sp.Now() - start) / ops
			start = sp.Now()
			for i := 0; i < ops; i++ {
				// Distinct missing names: CacheNone keeps no negative
				// dentries for them, so every stat reaches the server.
				if _, err := c.Stat(fmt.Sprintf("/d/m%d", i)); err == nil {
					return fmt.Errorf("stat of missing name succeeded")
				}
			}
			p.enoent = (sp.Now() - start) / ops
			start = sp.Now()
			for i := 0; i < rds; i++ {
				if _, err := c.ReadDir("/d"); err != nil {
					return err
				}
			}
			p.readdir = (sp.Now() - start) / rds
			return nil
		})
		return p, err
	}
	// One cell per (backend, shard count) pair — 12 independent kernels,
	// all seeded 2800.
	names := make([]string, 0, len(backendKinds)*len(shardCounts))
	for _, kind := range backendKinds {
		for _, n := range shardCounts {
			names = append(names, fmt.Sprintf("%s-%dshards", kind, n))
		}
	}
	cells, cs := cellsOf(names, func(int) int64 { return 2800 }, func(i int, k *sim.Kernel) (probe, error) {
		return run(k, backendKinds[i/len(shardCounts)], shardCounts[i%len(shardCounts)])
	})
	return plan{cs, func(r *Report) {
		byKind := func(k, s int) probe { return cells[k*len(shardCounts)+s] }
		last := len(shardCounts) - 1
		for k, kind := range backendKinds {
			p := byKind(k, last)
			r.row(fmt.Sprintf("%-10s: create", kind.String()), float64(p.create.Microseconds()), "us",
				fmt.Sprintf("8 shards, %d-entry directory", warm))
			r.row(fmt.Sprintf("%-10s: stat (hit)", kind.String()), float64(p.stat.Microseconds()), "us", "uncached client")
			r.row(fmt.Sprintf("%-10s: stat ENOENT", kind.String()), float64(p.enoent.Microseconds()), "us", "")
			r.row(fmt.Sprintf("%-10s: readdir", kind.String()), float64(p.readdir.Microseconds()), "us",
				fmt.Sprintf("%d entries", warm+ops))
		}
		mem, lsm, btree := byKind(0, last), byKind(1, last), byKind(2, last)
		r.row("lsm ENOENT discount", float64(lsm.enoent)/float64(mem.enoent), "x",
			"bloom filter short-circuits the miss")
		r.row("btree readdir vs lsm", float64(btree.readdir)/float64(lsm.readdir), "x",
			"clustered scan vs level merge")
		// Create cost vs shard count per backend: the point of the chart is
		// that the backend, not the shard count, moves single-op latency.
		var series []charts.Series
		for k, kind := range backendKinds {
			xs := make([]float64, len(shardCounts))
			ys := make([]float64, len(shardCounts))
			for s, n := range shardCounts {
				xs[s] = float64(n)
				ys[s] = float64(byKind(k, s).create.Microseconds())
			}
			series = append(series, charts.Series{Name: kind.String(), X: xs, Y: ys})
		}
		r.Charts = append(r.Charts, charts.Render(
			"Uncontended create latency vs. shard count, per storage backend",
			"shards", "us", chartW, chartH, series))
		r.finding("for a single uncontended client the network round trip dominates, "+
			"so the backend moves the service component, not the envelope: at 8 "+
			"shards a create costs %.0f/%.0f/%.0f us on memjournal/lsm/btree "+
			"(B-tree pays page descent and write locking), the LSM bloom filter "+
			"trims the ENOENT stat to %.2fx the memjournal miss while its "+
			"level-merge readdir runs %.1fx the B-tree's clustered scan — and no "+
			"series moves with shard count, because sharding multiplies servers "+
			"without touching the per-operation price each backend charges",
			float64(mem.create.Microseconds()), float64(lsm.create.Microseconds()),
			float64(btree.create.Microseconds()),
			float64(lsm.enoent)/float64(mem.enoent),
			float64(lsm.readdir)/float64(btree.readdir))
	}}
}

// e29CompactionTimeline puts LSM compaction pauses into the interval
// timeline: a steady 8-shard create load on the LSM backend, sweeping
// the compaction interval (bytes of amplified log traffic between
// compactions). Small intervals stall often and briefly; large ones
// stall rarely but long — the same frequency-vs-depth trade as the
// §2.7 checkpoint cadence, measured with the E26 storm methodology
// (per-event dip against the second before, COV spike after).
func e29CompactionTimeline() plan {
	const window = 12 * time.Second
	intervals := []int64{2 << 20, 8 << 20, 32 << 20}
	// One cell per compaction interval, seeded 2900+i. A cell keeps only
	// what assembly reads, so its simulated world is garbage once the
	// run ends.
	type e29cell struct {
		m           *results.Measurement
		compactions []shard.CompactionEvent
		start       time.Duration
	}
	names := make([]string, len(intervals))
	for i, every := range intervals {
		names[i] = fmt.Sprintf("every%dMB", every>>20)
	}
	cells, cs := cellsOf(names, func(i int) int64 { return int64(2900 + i) }, func(i int, k *sim.Kernel) (e29cell, error) {
		cfg := shard.DefaultConfig(8)
		cfg.Backend = shard.BackendLSM
		cfg.CompactEvery = intervals[i]
		cl := cluster.New(k, cluster.DefaultConfig(8))
		fsys := newShardFS(k, "meta", cfg)
		var c e29cell
		var err error
		c.m, err = measure(cl, fsys, 8, 2,
			core.Params{ProblemSize: 1 << 20, TimeLimit: window, WorkDir: "/bench"}, core.MakeFiles{},
			func(mp *sim.Proc, _ core.MeasurementInfo) { c.start = mp.Now() })
		c.compactions = fsys.Compactions
		return c, err
	})
	return plan{cs, func(r *Report) {
		var chartsOut []string
		var smallDip, largeDip, largeCOV float64
		var largePause time.Duration
		for i, every := range intervals {
			m, compactions, start := cells[i].m, cells[i].compactions, cells[i].start
			rate := wallOf(m)
			var meanPause time.Duration
			for _, ev := range compactions {
				meanPause += ev.Dur
			}
			if n := len(compactions); n > 0 {
				meanPause /= time.Duration(n)
			}
			// The deepest single-interval dip across all compaction starts,
			// each against the second before it (the E26 rule), plus the
			// worst COV spike in the second after. Events without a full
			// baseline second before them and a full dip window before the
			// run ends are skipped: setup-phase compactions have no timeline
			// to dip, and the truncated final interval would register as a
			// near-total stall for any event close to the time limit.
			var cov float64
			dip := 1.0
			for _, ev := range compactions {
				if ev.At < start+time.Second || ev.At > start+window-time.Second {
					continue
				}
				at := ev.At - start
				from := at - time.Second
				base := windowThroughput(m, from, at)
				during, ok := minThroughput(m, at, at+600*time.Millisecond)
				if ok && base > 0 && during/base < dip {
					dip = during / base
				}
				if c := maxCOV(m, at, at+time.Second); c > cov {
					cov = c
				}
			}
			r.row(fmt.Sprintf("compact every %2dMB: creates/s", every>>20), rate, "ops/s",
				fmt.Sprintf("%d compactions, mean pause %.0fms",
					len(compactions), meanPause.Seconds()*1000))
			r.row(fmt.Sprintf("compact every %2dMB: deepest dip", every>>20), dip*100, "%",
				"worst interval within 600ms of a compaction vs. the second before it")
			r.row(fmt.Sprintf("compact every %2dMB: max COV after", every>>20), cov, "", "")
			if i == 0 {
				smallDip = dip
			}
			largeDip, largeCOV, largePause = dip, cov, meanPause
			if every == intervals[len(intervals)-1] {
				chartsOut = append(chartsOut,
					fmt.Sprintf("LSM create load, compaction every %dMB of amplified log traffic\n", every>>20)+
						charts.TimeChart(m, chartW, chartH))
			}
		}
		r.Charts = append(r.Charts, chartsOut...)
		r.finding("compaction cadence is the §2.7 checkpoint trade-off on an LSM "+
			"store: frequent small compactions keep the deepest interval at "+
			"%.0f%% of baseline, while batching %dMB of debt stalls a shard for "+
			"%.0fms at a time and drops the worst interval to %.0f%% — yet the "+
			"per-process COV stays near %.3f throughout, because a compacting "+
			"shard slows every client equally; unlike the localized E26 split "+
			"storms, only the timeline (not the variance) betrays the pause",
			smallDip*100, intervals[len(intervals)-1]>>20,
			largePause.Seconds()*1000, largeDip*100, largeCOV)
	}}
}

// e30GroupCommit sweeps the group-commit window on a replicated 4-shard
// service: mutations committing within one window share a single
// journal flush and one mirror round trip per replica partner, so the
// replication message count E20 prices per-mutation collapses by the
// batch size. The price is commit-ack latency — every batched op holds
// its worker slot until the window closes and the shared flush lands.
// Throughput cells run the E20 workload; latency cells run a single
// uncontended probe client.
func e30GroupCommit() plan {
	const nShards = 4
	windows := []time.Duration{0, 250 * time.Microsecond, time.Millisecond, 4 * time.Millisecond}
	plugin := e16Workload(0)
	mkCfg := func(replicate bool, w time.Duration) shard.Config {
		cfg := shard.DefaultConfig(nShards)
		cfg.Replicate = replicate
		cfg.GroupCommitWindow = w
		// A batch can only grow to the ops concurrently inside one
		// window, and every batched op holds its worker slot until the
		// flush: widen the pool so batching is measured, not strangled.
		cfg.ShardThreads = 16
		return cfg
	}
	type e30cell struct {
		rate             float64
		mirrors, batches int64
		create           time.Duration // probe create latency
	}
	throughput := func(k *sim.Kernel, replicate bool, w time.Duration) (e30cell, error) {
		m, fsys, err := runSharded(k, mkCfg(replicate, w), plugin, 400)
		if err != nil {
			return e30cell{}, err
		}
		return e30cell{rate: wallOf(m), mirrors: fsys.MirrorCount, batches: fsys.GroupCommits}, nil
	}
	probeLatency := func(k *sim.Kernel, w time.Duration) (e30cell, error) {
		cl := cluster.New(k, cluster.DefaultConfig(1))
		fsys := newShardFS(k, "meta", mkCfg(true, w))
		var c0 e30cell
		err := runProbe(k, "probe", func(sp *sim.Proc) error {
			c := fsys.NewClient(cl.Nodes[0], sp)
			if err := c.Mkdir("/d"); err != nil {
				return err
			}
			const ops = 200
			start := sp.Now()
			for i := 0; i < ops; i++ {
				if err := c.Create(fmt.Sprintf("/d/f%d", i)); err != nil {
					return err
				}
			}
			c0.create = (sp.Now() - start) / ops
			return nil
		})
		return c0, err
	}
	// Cells: one unreplicated baseline and one replicated throughput run
	// per window, seeded 3000, and one latency probe per window, seeded
	// 3001 — 9 independent kernels.
	names := []string{"plain"}
	for _, w := range windows {
		names = append(names, fmt.Sprintf("repl-w%dus", w.Microseconds()))
	}
	for _, w := range windows {
		names = append(names, fmt.Sprintf("latency-w%dus", w.Microseconds()))
	}
	seed := func(i int) int64 {
		if i <= len(windows) {
			return 3000
		}
		return 3001
	}
	cells, cs := cellsOf(names, seed, func(i int, k *sim.Kernel) (e30cell, error) {
		switch {
		case i == 0:
			return throughput(k, false, 0)
		case i <= len(windows):
			return throughput(k, true, windows[i-1])
		default:
			return probeLatency(k, windows[i-1-len(windows)])
		}
	})
	return plan{cs, func(r *Report) {
		plain, tcells, lcells := cells[0], cells[:1+len(windows)], cells[1+len(windows):]
		r.row("creates/s, no replication", plain.rate, "ops/s",
			fmt.Sprintf("%d shards, 16 threads", nShards))
		var xs, overheadY, tripsY, latencyY []float64
		for i, w := range windows {
			t, l := tcells[i+1], lcells[i]
			overhead := 100 * (1 - t.rate/plain.rate)
			trips := 100 * float64(t.mirrors) / float64(tcells[1].mirrors)
			note := fmt.Sprintf("%d mirror round trips", t.mirrors)
			if w > 0 {
				note += fmt.Sprintf(", %d batches", t.batches)
			}
			r.row(fmt.Sprintf("creates/s, repl, window %4dus", w.Microseconds()), t.rate, "ops/s", note)
			r.row(fmt.Sprintf("throughput cost, window %4dus", w.Microseconds()), overhead, "%",
				"vs. the unreplicated baseline")
			r.row(fmt.Sprintf("mirror traffic, window %4dus", w.Microseconds()), trips, "%",
				"round trips relative to per-op replication")
			r.row(fmt.Sprintf("probe create latency, window %4dus", w.Microseconds()),
				float64(l.create.Microseconds()), "us", "single uncontended client")
			xs = append(xs, float64(w.Microseconds()))
			overheadY = append(overheadY, overhead)
			tripsY = append(tripsY, trips)
			latencyY = append(latencyY, float64(l.create.Microseconds()))
		}
		last := len(windows) - 1
		r.finding("group commit is a message-count knob, not a throughput knob, in a "+
			"latency-priced service: per-op mirror round trips already overlap "+
			"across the worker slots, so batching them %d -> %d (%.1fx) recovers "+
			"no service time — instead every mutation waits out its window, "+
			"throughput falls %.0f -> %.0f creates/s and an uncontended create "+
			"grows %.0f -> %.0f us. The window buys journal-device and network "+
			"economy and charges for it in ack latency; the smallest batching "+
			"window (%.0fus: %.1fx fewer trips for %.0f%% more throughput cost) "+
			"is the only defensible setting under this cost model",
			tcells[1].mirrors, tcells[1+last].mirrors,
			float64(tcells[1].mirrors)/float64(tcells[1+last].mirrors),
			tcells[1].rate, tcells[1+last].rate,
			latencyY[0], latencyY[last],
			xs[1], float64(tcells[1].mirrors)/float64(tcells[2].mirrors),
			overheadY[1]-overheadY[0])
		r.Charts = append(r.Charts, charts.Render(
			"Group-commit window: mirror traffic saved vs. throughput cost",
			"window us", "%", chartW, chartH,
			[]charts.Series{
				{Name: "throughput cost %", X: xs, Y: overheadY},
				{Name: "mirror traffic % of per-op", X: xs, Y: tripsY},
			}))
	}}
}
