package core

import (
	"fmt"
	"slices"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/fs"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// FileSystem is the mountable interface the runner benchmarks: every
// simulated file system model implements it.
type FileSystem interface {
	// Name identifies the file system in result sets.
	Name() string
	// NewClient binds a client for one process on one node.
	NewClient(node *cluster.Node, p *sim.Proc) fs.Client
}

// MeasurementInfo describes the measurement about to run (hook argument).
type MeasurementInfo struct {
	Op    string
	Nodes int
	PPN   int
}

// Runner executes a DMetabench run on a simulated cluster: placement
// discovery, execution plan, and per-measurement master/worker phases
// with interval logging (§3.3.3).
type Runner struct {
	Cluster *cluster.Cluster
	FS      FileSystem
	Params  Params
	// SlotsPerNode is the number of MPI slots per node; an extra master
	// slot is placed on the first node so every node contributes the
	// full SlotsPerNode workers (Fig. 3.9).
	SlotsPerNode int
	Plugins      []Plugin
	// BenchStartHook, when set, runs in the master process at the start
	// of every doBench phase — experiments use it to inject
	// disturbances at defined offsets (§4.2.3).
	BenchStartHook func(mp *sim.Proc, info MeasurementInfo)
	// ProfileLoad, when positive, samples node CPU load for this long
	// before the first measurement (the vmstat step of §3.3.3).
	ProfileLoad time.Duration
	// Filter, when set, selects which plan combos run (in addition to
	// the NodeStep/PPNStep thinning).
	Filter func(Combo) bool
}

// plan performs placement discovery for this runner's cluster/slot
// configuration and returns the filtered execution plan — the combo
// list the master loop iterates.
func (r *Runner) plan() ([]Combo, error) {
	if len(r.Plugins) == 0 {
		return nil, fmt.Errorf("dmetabench: no operations selected")
	}
	if r.SlotsPerNode < 1 {
		r.SlotsPerNode = 1
	}
	var names []string
	for _, n := range r.Cluster.Nodes {
		names = append(names, n.Name)
	}
	slots := UniformSlots(names, r.SlotsPerNode)
	// Extra slot for the master on the first node, so placement
	// discovery assigns the master there and every node retains
	// SlotsPerNode workers.
	slots = append(slots, Slot{Node: names[0], NodeIndex: 0,
		SlotOnNode: r.SlotsPerNode, GlobalID: len(slots)})
	placement, err := Discover(slots)
	if err != nil {
		return nil, err
	}
	plan := placement.Plan(r.Params.NodeStep, r.Params.PPNStep)
	if r.Filter != nil {
		var kept []Combo
		for _, c := range plan {
			if r.Filter(c) {
				kept = append(kept, c)
			}
		}
		plan = kept
	}
	return plan, nil
}

// Run performs the full benchmark run: it spawns the master process and
// drives the simulation kernel until completion.
func (r *Runner) Run() (*results.Set, error) {
	plan, err := r.plan()
	if err != nil {
		return nil, err
	}
	set := results.NewSet(r.Params.Label, r.FS.Name(), r.Params.interval())
	r.profileStatic(set)

	k := r.Cluster.Kernel()
	k.Spawn("dmetabench-master", func(mp *sim.Proc) {
		if r.ProfileLoad > 0 {
			r.profileLoad(mp, set)
		}
		for _, combo := range plan {
			for _, plugin := range r.Plugins {
				m := r.runMeasurement(mp, combo, plugin)
				set.Add(m)
			}
		}
	})
	if err := k.Run(); err != nil {
		return nil, err
	}
	return set, nil
}

// profileStatic records static environment configuration (§3.2.6).
func (r *Runner) profileStatic(set *results.Set) {
	set.Environment["filesystem"] = r.FS.Name()
	set.Environment["nodes"] = fmt.Sprint(len(r.Cluster.Nodes))
	for _, n := range r.Cluster.Nodes {
		set.Environment["node:"+n.Name] = fmt.Sprintf("cores=%d", n.Cores)
	}
	set.Environment["slots_per_node"] = fmt.Sprint(r.SlotsPerNode)
	set.Environment["interval"] = r.Params.interval().String()
	if r.Params.TimeLimit > 0 {
		set.Environment["time_limit"] = r.Params.TimeLimit.String()
	}
	set.Environment["problem_size"] = fmt.Sprint(r.Params.ProblemSize)
}

// profileLoad samples pre-run CPU load on every node.
func (r *Runner) profileLoad(mp *sim.Proc, set *results.Set) {
	samples := int(r.ProfileLoad / (100 * time.Millisecond))
	if samples < 1 {
		samples = 1
	}
	busy := make([]int, len(r.Cluster.Nodes))
	for s := 0; s < samples; s++ {
		mp.Sleep(100 * time.Millisecond)
		for i, n := range r.Cluster.Nodes {
			if n.CPUQueueLen() > 0 || n.ActiveHogs() > 0 {
				busy[i]++
			}
		}
	}
	for i, n := range r.Cluster.Nodes {
		set.Environment["load:"+n.Name] =
			fmt.Sprintf("%.0f%%", 100*float64(busy[i])/float64(samples))
	}
}

// runMeasurement executes one (combo, plugin) measurement: spawn the
// workers, run the three phases with barriers, and sample progress on
// the interval grid from the master (acting as the supervisor).
func (r *Runner) runMeasurement(mp *sim.Proc, combo Combo, plugin Plugin) *results.Measurement {
	k := mp.Kernel()
	procs := combo.Procs()
	interval := r.Params.interval()
	barrier := sim.NewBarrier(k, "phase", procs+1)

	nodeOf := make([]int, procs)
	nodes := make([]*cluster.Node, procs)
	for rank, slot := range combo.Workers {
		nodeOf[rank] = slot.NodeIndex
		nodes[rank] = r.Cluster.Nodes[slot.NodeIndex]
	}
	dirs, peers := WorkerDirs(r.Params, plugin.Name(), combo.Nodes, nodeOf)
	ctxs := make([]*Ctx, procs)
	for rank, slot := range combo.Workers {
		ctxs[rank] = &Ctx{
			Rank:     rank,
			Workers:  procs,
			Node:     slot.Node,
			NodeRank: slot.SlotOnNode,
			Dir:      dirs[rank],
			PeerDir:  peers[rank],
			Params:   r.Params,
		}
	}
	rs := newRankSet(ctxs)
	done := make([]bool, procs)
	finishedAt := make([]time.Duration, procs)

	rs.spawn(k, r.FS, "worker-", nodes, func(p *sim.Proc, ctx *Ctx) {
		rank := ctx.Rank
		if err := plugin.Prepare(ctx); err != nil {
			rs.errs[rank] = fmt.Sprintf("prepare: %v", err)
		}
		barrier.Wait(p)

		ctx.Now = clockFrom(p)
		ctx.Deadline = r.Params.TimeLimit
		if rs.errs[rank] == "" {
			if err := plugin.DoBench(ctx); err != nil {
				rs.errs[rank] = fmt.Sprintf("dobench: %v", err)
			}
		}
		finishedAt[rank] = ctx.Now()
		done[rank] = true
		barrier.Wait(p)

		if err := plugin.Cleanup(ctx); err != nil && rs.errs[rank] == "" {
			rs.errs[rank] = fmt.Sprintf("cleanup: %v", err)
		}
		barrier.Wait(p)
	})

	// Master: wait out prepare, then supervise the bench phase.
	barrier.Wait(mp)
	if r.BenchStartHook != nil {
		r.BenchStartHook(mp, MeasurementInfo{Op: plugin.Name(), Nodes: combo.Nodes, PPN: combo.PPN})
	}
	// With a time limit the sample count is known up front; otherwise
	// start with a page worth of samples instead of growing from nil.
	sampleCap := 64
	if r.Params.TimeLimit > 0 {
		sampleCap = int(r.Params.TimeLimit/interval) + 2
	}
	rs.startLog(sampleCap)
	for allDone := false; !allDone; {
		mp.Sleep(interval)
		rs.sample()
		allDone = !slices.Contains(done, false)
	}
	barrier.Wait(mp) // bench end
	barrier.Wait(mp) // cleanup end

	return rs.measurement(plugin.Name(), combo.Nodes, combo.PPN, interval,
		func(rank int) time.Duration { return finishedAt[rank] })
}
