package experiments

import (
	"fmt"
	"strconv"
	"time"

	"dmetabench/internal/agg"
	"dmetabench/internal/charts"
	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/results"
	"dmetabench/internal/service"
	"dmetabench/internal/shard"
	"dmetabench/internal/sim"
	"dmetabench/internal/workload"
)

// E31–E33: million-client scale. Per-client processes stop at a few
// hundred simulated clients; these experiments instead model the client
// population analytically (internal/agg) — Zipf object popularity,
// diurnal rate modulation, flash-crowd spikes, session churn — and
// inject the resulting arrival batches into the sharded MDS, while a
// handful of fully-simulated foreground probes (caches, leases, split
// bitmaps) ride on top and observe the contention. The harness is the
// perftest shape of fs-benchmark (core.StageRunner): per-interval
// tps/COV/latency percentiles over hours of virtual time.

// Period, when > 0, overrides the virtual-time horizon of every
// long-horizon experiment (the -period flag of cmd/experiments): E31
// compresses its simulated day and E32/E33 their hour into that span.
// 0 keeps each experiment's default, which the committed corpus uses.
var Period time.Duration

func periodOr(d time.Duration) time.Duration {
	if Period > 0 {
		return Period
	}
	return d
}

// stageInterval derives the sampling grid from the horizon: the
// canonical 1-minute interval at the default horizons, scaled down with
// -period so a compressed run still yields the same number of samples.
func stageInterval(period time.Duration, n int) time.Duration {
	iv := period / time.Duration(n)
	if iv < time.Second {
		iv = time.Second
	}
	return iv
}

// stageSpec is one long-horizon cell: a sharded MDS with an attached
// aggregate arrival process and a StageRunner probe set.
type stageSpec struct {
	seed         int64 // of the arrival model; the cell's kernel shares it
	clients      int
	opsPerClient float64 // per active client, ops/s
	cfg          shard.Config
	diurnalAmp   float64
	spikes       bool
	period       time.Duration // total virtual horizon (diurnal cycle)
	interval     time.Duration
	probes       int
	think        time.Duration
	stages       []core.Stage
	prepare      func(c *core.Ctx) error
	label        string
}

// stageCell is the outcome of one cell, counters read post-run.
type stageCell struct {
	stages  []*results.Measurement
	aggOps  int64
	aggShed int64
	aggBusy time.Duration
	grants  int64
	revokes int64
	stale   int64
	caps    shard.CapacityStats
}

// sheddedFrac is the fraction of background arrivals dropped by the
// open-loop admission control.
func (c *stageCell) shedFrac() float64 {
	total := c.aggOps + c.aggShed
	if total == 0 {
		return 0
	}
	return float64(c.aggShed) / float64(total)
}

// runStageCell builds one sharded simulation on k with the aggregate
// background attached and drives the staged probes over it. Everything
// stochastic is seeded from spec.seed, which also seeds k, so a cell is
// a pure function of its spec — the byte-identity unit of the E31–E33
// determinism tests.
func runStageCell(k *sim.Kernel, sp stageSpec) (stageCell, error) {
	cl := cluster.New(k, cluster.DefaultConfig(4))
	fsys := shard.New(k, "meta", sp.cfg)
	lanes := sp.cfg.ShardThreads
	if lanes < 1 {
		lanes = 1
	}
	// A 250 ms arrival tick keeps each lane's pool hold well under the
	// foreground service times' queueing tolerance: the batch granularity
	// is what the probes' tail latency resolves, so it must stay small
	// against the sampling interval.
	const tick = 250 * time.Millisecond
	model := agg.Model{
		Clients:      sp.clients,
		OpsPerClient: sp.opsPerClient,
		Mix:          workload.DefaultMetaMix(),
		Zipf:         agg.ZipfPop{S: 1.1, V: 1, N: 512},
		Diurnal:      agg.Diurnal{Amplitude: sp.diurnalAmp, Period: sp.period},
		Churn:        agg.Churn{ActiveFrac: 0.5, SessionMean: 30 * time.Minute, Tick: tick},
		Tick:         tick,
		Seed:         sp.seed,
	}
	if sp.spikes {
		model.Spikes = agg.Spikes{MeanInterval: sp.period / 6, Peak: 2.5,
			Decay: sp.period / 36}
	}
	// Popularity routes to shards through the same placement hash real
	// paths use, so the Zipf head concentrates exactly where it would in
	// the namespace.
	route := func(obj int) int {
		return fsys.ShardOfDir("/h" + strconv.Itoa(obj))
	}
	sources := agg.NewSources(model, sp.cfg.NumShards, lanes, route)
	fsys.AttachAggregate(model.Tick, func(si, lane, tick int) service.Demand {
		return sources[si*lanes+lane].Tick(int64(tick))
	})
	r := &core.StageRunner{
		Cluster:  cl,
		FS:       fsys,
		Probes:   sp.probes,
		Interval: sp.interval,
		Think:    sp.think,
		Label:    sp.label,
		Stages:   sp.stages,
		Prepare:  sp.prepare,
		Aux: func() int64 {
			ops, _, _ := fsys.AggCounts()
			return ops
		},
	}
	stages, err := runStages(r)
	if err != nil {
		return stageCell{}, err
	}
	c := stageCell{stages: stages}
	c.aggOps, c.aggShed, c.aggBusy = fsys.AggCounts()
	c.grants, c.revokes, c.stale = fsys.LeaseGrants, fsys.Revocations, fsys.StaleReads
	c.caps = fsys.CapacityStats()
	return c, nil
}

// runStages runs r and returns its stage measurements, or the kernel's
// error or the first rank error of any stage.
func runStages(r *core.StageRunner) ([]*results.Measurement, error) {
	set, err := r.Run()
	if err != nil {
		return nil, err
	}
	for _, m := range set.Measurements {
		if err := m.Err(); err != nil {
			return nil, err
		}
	}
	return set.Measurements, nil
}

// stageMeasurement returns the cell's measurement for a stage name.
func (c *stageCell) stageMeasurement(name string) *results.Measurement {
	for _, m := range c.stages {
		if m.Op == name {
			return m
		}
	}
	return nil
}

// probeP99 extracts the whole-stage foreground p99 in microseconds.
func probeP99(m *results.Measurement) float64 {
	if m == nil || m.Latencies["probe"] == nil {
		return 0
	}
	return float64(m.Latencies["probe"].Percentile(0.99).Microseconds())
}

func probeP999(m *results.Measurement) float64 {
	if m == nil || m.Latencies["probe"] == nil {
		return 0
	}
	return float64(m.Latencies["probe"].Percentile(0.999).Microseconds())
}

// e31AggregateDay runs a simulated day at 1.2 million aggregate clients
// over an 8-shard MDS: diurnal modulation alone, then diurnal plus
// flash crowds. The report is the long-horizon view the per-client
// experiments cannot produce: background throughput and its temporal
// COV over the day, shed fraction once spikes push past pool capacity,
// and the foreground tail riding on top.
func e31AggregateDay() plan {
	period := periodOr(3 * time.Hour)
	interval := stageInterval(period, 180)
	const clients = 1_200_000
	mk := func(seed int64, spikes bool, label string) stageSpec {
		return stageSpec{
			seed:         seed,
			clients:      clients,
			opsPerClient: 0.5,
			cfg:          shard.DefaultConfig(8),
			diurnalAmp:   0.6,
			spikes:       spikes,
			period:       period,
			interval:     interval,
			probes:       4,
			think:        time.Second,
			stages:       []core.Stage{{Name: "day", Duration: period}},
			label:        "E31-" + label,
		}
	}
	labels := []string{"diurnal", "flash"}
	seed := func(i int) int64 { return int64(3101 + i) }
	cells, cs := cellsOf(labels, seed, func(i int, k *sim.Kernel) (stageCell, error) {
		c, err := runStageCell(k, mk(seed(i), i == 1, labels[i]))
		if err != nil {
			return c, err
		}
		if _, ok := c.stageMeasurement("day").Window(0, period); !ok {
			return c, fmt.Errorf("day produced no intervals")
		}
		return c, nil
	})
	return plan{cs, func(r *Report) {
		names := []string{"diurnal", "diurnal+flash"}
		var series []charts.Series
		for i := range cells {
			c := &cells[i]
			m := c.stageMeasurement("day")
			w, _ := m.Window(0, period)
			r.row(fmt.Sprintf("%-14s mean background", names[i]), w.MeanAuxRate/1000,
				"kops/s", fmt.Sprintf("%d clients", clients))
			r.row(fmt.Sprintf("%-14s peak/trough", names[i]),
				safeDiv(w.PeakAuxRate, w.TroughAuxRate), "x",
				fmt.Sprintf("%.0fk / %.0fk ops/s", w.PeakAuxRate/1000, w.TroughAuxRate/1000))
			r.row(fmt.Sprintf("%-14s temporal COV", names[i]), m.AuxCOV(), "", "")
			r.row(fmt.Sprintf("%-14s shed fraction", names[i]), 100*c.shedFrac(),
				"%", "open-loop admission control")
			r.row(fmt.Sprintf("%-14s foreground p99", names[i]),
				float64(w.MaxP99.Microseconds()), "us", "worst interval")
			xs := make([]float64, 0, len(m.Series))
			ys := make([]float64, 0, len(m.Series))
			for _, s := range m.Series {
				xs = append(xs, s.T.Hours())
				ys = append(ys, float64(s.Aux)/interval.Seconds()/1000)
			}
			series = append(series, charts.Series{Name: names[i], X: xs, Y: ys})
		}
		d, f := &cells[0], &cells[1]
		dw, _ := d.stageMeasurement("day").Window(0, period)
		fw, _ := f.stageMeasurement("day").Window(0, period)
		r.finding("the aggregate model holds %d clients in O(shards x lanes) state "+
			"over a full simulated day: the diurnal cycle alone swings the "+
			"background %.1fx peak-to-trough, flash crowds push that to %.1fx and "+
			"raise the shed fraction from %.1f%% to %.1f%% as spikes cross pool "+
			"capacity",
			clients, safeDiv(dw.PeakAuxRate, dw.TroughAuxRate),
			safeDiv(fw.PeakAuxRate, fw.TroughAuxRate),
			100*d.shedFrac(), 100*f.shedFrac())
		r.Charts = append(r.Charts, charts.Render(
			"Background arrival throughput over the simulated day",
			"hours", "kops/s", chartW, chartH, series))
	}}
}

// safeDiv guards a ratio against an empty trough.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e32Shared is the directory the E32 probes contend in.
const e32Shared = "/probe/shared"

func e32SharedFile(rank, i int) string {
	return fmt.Sprintf("%s/r%d-%d", e32Shared, rank, i)
}

// e32Prepare extends the default probe setup with a shared directory:
// each probe owns a private stat ring (warm leases nobody revokes) and
// a slice of the shared directory (leases the other probes' creates
// revoke).
func e32Prepare(c *core.Ctx) error {
	if err := core.MkdirAll(c.FS, c.Dir); err != nil {
		return err
	}
	for j := 0; j < 8; j++ {
		if err := c.FS.Create(c.Dir + "/" + strconv.Itoa(j)); err != nil {
			return err
		}
	}
	if err := core.MkdirAll(c.FS, e32Shared); err != nil {
		return err
	}
	for j := 0; j < 8; j++ {
		if err := c.FS.Create(e32SharedFile(c.Rank, j)); err != nil {
			return err
		}
	}
	return nil
}

// e32MutateOp stats the probe's shared-slice files, with every eighth
// op a create in the shared directory — the mutation that revokes the
// other probes' leases there.
func e32MutateOp(c *core.Ctx, i int) error {
	if i%8 == 7 {
		return c.FS.Create(fmt.Sprintf("%s/w%d-%d", e32Shared, c.Rank, i))
	}
	_, err := c.FS.Stat(e32SharedFile(c.Rank, i%8))
	return err
}

// e32ForegroundTail sweeps the background population 10k → 1M under
// lease-coherent foreground probes: a private-ring stat stage (leases
// never revoked) then a shared-directory stage where probe creates
// force revocations. The question is what the analytic crowd does to
// the tail of the few real clients.
func e32ForegroundTail() plan {
	period := periodOr(time.Hour)
	interval := stageInterval(period, 60)
	pops := []int{10_000, 100_000, 1_000_000}
	names := []string{"10k", "100k", "1M"}
	seed := func(i int) int64 { return int64(3201 + i) }
	cells, cs := cellsOf(names, seed, func(i int, k *sim.Kernel) (stageCell, error) {
		cfg := shard.DefaultConfig(8)
		cfg.CacheMode = shard.CacheLease
		cfg.TrackStaleness = true
		return runStageCell(k, stageSpec{
			seed:         seed(i),
			clients:      pops[i],
			opsPerClient: 0.5,
			cfg:          cfg,
			period:       period,
			interval:     interval,
			probes:       4,
			think:        time.Second,
			stages: []core.Stage{
				{Name: "private", Duration: period / 4},
				{Name: "shared", Duration: period - period/4, Op: e32MutateOp},
			},
			prepare: e32Prepare,
			label:   "E32-" + names[i],
		})
	})
	return plan{cs, func(r *Report) {
		var p99s []float64
		for i := range cells {
			c := &cells[i]
			priv, sh := c.stageMeasurement("private"), c.stageMeasurement("shared")
			p99 := probeP99(sh)
			p99s = append(p99s, p99)
			r.row(fmt.Sprintf("%-5s clients  private p99", names[i]), probeP99(priv),
				"us", "own ring, no revocations")
			r.row(fmt.Sprintf("%-5s clients  shared  p99", names[i]), p99,
				"us", fmt.Sprintf("p999 %.0f us", probeP999(sh)))
			r.row(fmt.Sprintf("%-5s clients  lease traffic", names[i]),
				float64(c.revokes), "revk", fmt.Sprintf("%d grants, %d stale reads",
					c.grants, c.stale))
			r.row(fmt.Sprintf("%-5s clients  shed fraction", names[i]),
				100*c.shedFrac(), "%", "")
		}
		if len(p99s) == 3 && p99s[0] > 0 {
			r.finding("the foreground tail is priced by the crowd it shares the "+
				"pool with: shared-directory p99 grows %.1fx as the background "+
				"population sweeps 10k -> 1M (%.0f -> %.0f us), while the lease "+
				"protocol itself stays population-independent",
				p99s[2]/p99s[0], p99s[0], p99s[2])
		}
	}}
}

// e33LeaseBytes is the modeled per-entry footprint of a server lease
// record (path key + grant + callback ref), used to translate the
// analytic population into the memory a per-client lease table would
// need — the state the aggregate model exists to avoid materializing.
const e33LeaseBytes = 120

// e33EntriesPerClient is the modeled working set per background client
// (leases on its open files and hot directories).
const e33EntriesPerClient = 4

// e33CapacityPressure measures the state that grows with scale: after a
// create-heavy run at each population it takes a census of server lease
// tables, split bookkeeping, journals and client caches (the
// fully-simulated state), and compares with the modeled size of a lease
// table that tracked every background client individually.
func e33CapacityPressure() plan {
	period := periodOr(30 * time.Minute)
	interval := stageInterval(period, 30)
	pops := []int{10_000, 100_000, 1_000_000}
	names := []string{"10k", "100k", "1M"}
	growOp := func(c *core.Ctx, i int) error {
		if i%4 == 3 {
			return c.FS.Create(fmt.Sprintf("%s/g%d-%d", e32Shared, c.Rank, i))
		}
		_, err := c.FS.Stat(e32SharedFile(c.Rank, i%8))
		return err
	}
	seed := func(i int) int64 { return int64(3301 + i) }
	cells, cs := cellsOf(names, seed, func(i int, k *sim.Kernel) (stageCell, error) {
		cfg := shard.DefaultConfig(8)
		cfg.CacheMode = shard.CacheLease
		cfg.SplitThreshold = 512
		return runStageCell(k, stageSpec{
			seed:         seed(i),
			clients:      pops[i],
			opsPerClient: 0.5,
			cfg:          cfg,
			period:       period,
			interval:     interval,
			probes:       4,
			think:        250 * time.Millisecond,
			stages:       []core.Stage{{Name: "grow", Duration: period, Op: growOp}},
			prepare:      e32Prepare,
			label:        "E33-" + names[i],
		})
	})
	return plan{cs, func(r *Report) {
		for i := range cells {
			c := &cells[i]
			st := c.caps
			clientEntries := st.ClientAttrs + st.ClientDentries + st.ClientLeases +
				st.ClientSplitDirs
			r.row(fmt.Sprintf("%-5s clients  server lease entries", names[i]),
				float64(st.LeaseEntries), "", fmt.Sprintf("%d delegations", st.Delegations))
			r.row(fmt.Sprintf("%-5s clients  split dirs", names[i]),
				float64(st.SplitDirs), "", fmt.Sprintf("%d journal entries", st.JournalEntries))
			r.row(fmt.Sprintf("%-5s clients  client cache entries", names[i]),
				float64(clientEntries), "", fmt.Sprintf("%d nodes", st.Nodes))
			modeled := float64(pops[i]) * 0.5 * e33EntriesPerClient * e33LeaseBytes / 1e6
			r.row(fmt.Sprintf("%-5s clients  modeled per-client table", names[i]),
				modeled, "MB", fmt.Sprintf("%d entries/client x %d B", e33EntriesPerClient,
					e33LeaseBytes))
		}
		last := &cells[len(cells)-1]
		modeled1M := float64(pops[2]) * 0.5 * e33EntriesPerClient * e33LeaseBytes / 1e6
		r.finding("tracked state is foreground-proportional, not "+
			"population-proportional: the census counts %d entries at 1M background "+
			"clients, while a per-client lease table for the same population would "+
			"need ~%.0f MB — the state the aggregate arrival model avoids",
			last.caps.Entries(), modeled1M)
	}}
}
