package core

import (
	"fmt"
	"strconv"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// Stage is one segment of a long-horizon run: a named probe workload
// driven for a fixed duration of virtual time. Duration should be a
// multiple of the runner's Interval; a remainder is truncated off the
// sampling grid.
type Stage struct {
	Name     string
	Duration time.Duration
	// Op runs one foreground probe operation (i = per-probe op
	// counter). Nil uses the runner's default stat probe over the
	// files its default prepare created.
	Op func(c *Ctx, i int) error
}

// StageRunner is the long-horizon measurement harness (the
// fs-benchmark perftest shape: -clients N -interval 1m -period 3h): a
// small set of fully-simulated, throttled foreground probe processes
// runs stage after stage for hours of virtual time while the master
// samples per-interval throughput, per-probe COV, an auxiliary counter
// (the aggregate background load of internal/agg, injected into the FS
// before Run), and per-interval latency percentiles into a
// results.IntervalStat series — one Measurement per stage.
//
// It deliberately does not sweep (nodes × PPN) combinations like
// Runner: at a horizon of hours the experiment design varies load over
// *time*, not placement.
type StageRunner struct {
	Cluster *cluster.Cluster
	FS      FileSystem
	// Probes is the number of foreground processes (default 1),
	// distributed round-robin over the cluster nodes.
	Probes int
	// Interval is the sampling grid (default one minute).
	Interval time.Duration
	// Think is each probe's pause after every completed op (default one
	// second) — the throttle that keeps hours of virtual time cheap and
	// the probes observers rather than the dominant load.
	Think time.Duration
	// Label names the result set.
	Label  string
	Stages []Stage
	// Prepare, when set, replaces the default per-probe setup (mkdir +
	// a ring of stat targets). It must not call Ctx.Tick.
	Prepare func(c *Ctx) error
	// Aux, when set, is sampled at every interval boundary; the
	// per-interval delta lands in IntervalStat.Aux. The experiments
	// pass a closure over the FS's injected-background counter. Under
	// a domain group every reading is taken at a sync point (see
	// auxReader), so the interval must be at least the lookahead.
	Aux func() int64
}

// auxReader samples StageRunner.Aux for the stage master. On a plain
// kernel it reads on the spot. Under a domain group the counter is
// bumped by injector lanes that run on other domains' worker threads in
// the middle of a window, so a reading taken there would depend on
// thread timing; each reading is instead taken inside a sync point,
// where every domain is parked at exactly the same instant. The master
// arms the reading for an interval boundary before sleeping there and
// collects the delta once it wakes.
type auxReader struct {
	aux         func() int64
	g           *sim.DomainGroup
	prev, delta int64
}

// start takes the stage's baseline reading: now on a plain kernel, at
// the earliest sync point (one lookahead on) under a domain group.
func (a *auxReader) start(p *sim.Proc) {
	if a.g == nil {
		a.sample()
		return
	}
	a.g.AtSync(p, p.Now()+a.g.SyncDelay(), a.sample)
}

// arm schedules the domained reading for the boundary at; a no-op on a
// plain kernel.
func (a *auxReader) arm(p *sim.Proc, at time.Duration) {
	if a.g != nil {
		a.g.AtSync(p, at, a.sample)
	}
}

// take returns the counter's growth over the interval ending now.
func (a *auxReader) take() int64 {
	if a.g == nil {
		a.sample()
	}
	return a.delta
}

func (a *auxReader) sample() {
	v := a.aux()
	a.delta = v - a.prev
	a.prev = v
}

// defaultProbeFiles is the size of the default probe's stat ring.
const defaultProbeFiles = 8

func defaultPrepare(c *Ctx) error {
	if err := MkdirAll(c.FS, c.Dir); err != nil {
		return err
	}
	for j := 0; j < defaultProbeFiles; j++ {
		if err := c.FS.Create(fileName(c.Dir, j)); err != nil {
			return err
		}
	}
	return nil
}

func defaultOp(c *Ctx, i int) error {
	_, err := c.FS.Stat(fileName(c.Dir, i%defaultProbeFiles))
	return err
}

// stageShared is the master↔probe channel: the simulator runs one
// process at a time per kernel, and master and probes all live in the
// client domain, so plain fields need no locking.
type stageShared struct {
	recording bool
	cur       *results.Histogram // current interval
	agg       *results.Histogram // whole stage
}

func (s *stageShared) record(d time.Duration) {
	if !s.recording {
		return
	}
	s.cur.Add(d)
	s.agg.Add(d)
}

// Run spawns the probes and the master, then drives the kernel to
// completion.
func (r *StageRunner) Run() (*results.Set, error) {
	if len(r.Stages) == 0 {
		return nil, fmt.Errorf("stagerunner: no stages")
	}
	k := r.Cluster.Kernel()
	probes := r.Probes
	if probes < 1 {
		probes = 1
	}
	interval := r.Interval
	if interval <= 0 {
		interval = time.Minute
	}
	think := r.Think
	if think <= 0 {
		think = time.Second
	}
	prepare := r.Prepare
	if prepare == nil {
		prepare = defaultPrepare
	}
	var aux *auxReader
	if r.Aux != nil {
		aux = &auxReader{aux: r.Aux, g: k.Group()}
		if aux.g != nil && interval < aux.g.Lookahead() {
			return nil, fmt.Errorf("stagerunner: interval %v is shorter than the domain lookahead %v",
				interval, aux.g.Lookahead())
		}
	}

	set := results.NewSet(r.Label, r.FS.Name(), interval)
	set.Environment["filesystem"] = r.FS.Name()
	set.Environment["probes"] = strconv.Itoa(probes)
	set.Environment["think"] = think.String()
	set.Environment["interval"] = interval.String()
	var total time.Duration
	for _, s := range r.Stages {
		total += s.Duration
	}
	set.Environment["stages"] = strconv.Itoa(len(r.Stages))
	set.Environment["period"] = total.String()

	nodesUsed := min(probes, len(r.Cluster.Nodes))
	ppn := (probes + nodesUsed - 1) / nodesUsed

	nodes := make([]*cluster.Node, probes)
	ctxs := make([]*Ctx, probes)
	for rank := range ctxs {
		nodes[rank] = r.Cluster.Nodes[rank%len(r.Cluster.Nodes)]
		ctxs[rank] = &Ctx{
			Rank:     rank,
			Workers:  probes,
			Node:     nodes[rank].Name,
			NodeRank: rank / len(r.Cluster.Nodes),
			Dir:      "/probe/p" + strconv.Itoa(rank),
			Params:   Params{WorkDir: "/probe", Interval: interval, Label: r.Label},
		}
	}
	rs := newRankSet(ctxs)
	// Start/end barrier pair per stage; the master joins as one party.
	barrier := sim.NewBarrier(k, "stage", probes+1)
	shared := &stageShared{}

	rs.spawn(k, r.FS, "probe-", nodes, func(p *sim.Proc, ctx *Ctx) {
		rank := ctx.Rank
		if err := prepare(ctx); err != nil {
			rs.errs[rank] = fmt.Sprintf("prepare: %v", err)
		}
		for _, stage := range r.Stages {
			op := stage.Op
			if op == nil {
				op = defaultOp
			}
			barrier.Wait(p) // stage start
			ctx.Now = clockFrom(p)
			end := p.Now() + stage.Duration
			for i := 0; rs.errs[rank] == "" && p.Now() < end; i++ {
				t0 := p.Now()
				if err := op(ctx, i); err != nil {
					rs.errs[rank] = fmt.Sprintf("%s: %v", stage.Name, err)
					break
				}
				shared.record(p.Now() - t0)
				ctx.Tick()
				p.Sleep(think)
			}
			barrier.Wait(p) // stage end
		}
	})

	k.Spawn("stage-master", func(mp *sim.Proc) {
		for _, stage := range r.Stages {
			nIv := max(int(stage.Duration/interval), 1)
			// The master fills in what only it sees per interval (the aux
			// reading and the latency percentiles); the rest of each row
			// comes from the stage's traces.
			series := make([]results.IntervalStat, nIv)
			rs.startLog(nIv)
			shared.agg = &results.Histogram{}
			shared.cur = &results.Histogram{}
			shared.recording = true
			if aux != nil {
				aux.start(mp)
			}
			barrier.Wait(mp) // stage start: probes run from here
			for t := range series {
				if aux != nil {
					aux.arm(mp, mp.Now()+interval)
				}
				mp.Sleep(interval)
				rs.sample()
				if aux != nil {
					series[t].Aux = aux.take()
				}
				series[t].FillPercentiles(shared.cur)
				shared.cur = &results.Histogram{}
			}
			shared.recording = false
			barrier.Wait(mp) // stage end: probes are now idle
			m := rs.measurement(stage.Name, nodesUsed, ppn, interval,
				func(int) time.Duration { return time.Duration(nIv) * interval })
			m.Latencies = map[string]*results.Histogram{"probe": shared.agg}
			var prev int64
			for t, row := range m.Summary() {
				series[t].T, series[t].Throughput, series[t].COV = row.T, row.Throughput, row.COV
				series[t].Ops = row.TotalDone - prev
				prev = row.TotalDone
			}
			m.Series = series
			rs.rebase()
			set.Add(m)
		}
	})
	if err := k.Run(); err != nil {
		return nil, err
	}
	return set, nil
}
