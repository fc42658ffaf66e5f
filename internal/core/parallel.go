package core

import (
	"fmt"
	"time"

	"dmetabench/internal/par"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// ParallelRunner executes a Runner-shaped experiment with every
// (combo, plugin) measurement as an independent cell: each cell builds
// its own simulation kernel, cluster and file system, runs exactly one
// measurement, and the cells fan out across the par worker pool. The
// merged result set lists measurements in plan order — the order the
// serial master loop would have produced — so output is byte-identical
// at any worker count.
//
// Every cell's kernel is seeded identically with Seed (the E16 sweep
// discipline: the only variable between cells is the combo/plugin, not
// the RNG draw sequence), and cell state is fully isolated by
// construction — a fresh kernel, cluster and FS per cell — so no
// cross-cell synchronization exists to get wrong. This differs from the
// serial Runner, where consecutive measurements share one kernel and
// therefore one RNG stream and one namespace; experiments that rely on
// that carried state (disturbance hooks priced against earlier
// measurements, cumulative counters) must keep the serial Runner and
// run as a single cell.
type ParallelRunner struct {
	// New builds a fresh cluster, file system and Runner bound to k.
	// It is called once per cell (plus once to derive the plan and the
	// set's environment profile) and every call must be independent:
	// capture nothing mutable across calls. Wire BenchStartHook to the
	// call's own FS/cluster inside New.
	New func(k *sim.Kernel) *Runner
	// Seed seeds every cell's kernel.
	Seed int64
	// Label, when non-empty, records per-cell wall-clock timings under
	// "<Label>/n<nodes>p<ppn>-<plugin>" (cmd/experiments -cells).
	Label string
}

// planCell is one (combo, plugin) measurement of the execution plan.
type planCell struct {
	combo  Combo
	plugin Plugin
}

// Run derives the execution plan, runs every (combo, plugin) cell on
// its own kernel across the worker pool, and merges the measurements in
// plan order.
func (pr *ParallelRunner) Run() (*results.Set, error) {
	proto := pr.New(sim.New(pr.Seed))
	plan, err := proto.plan()
	if err != nil {
		return nil, err
	}
	var cells []planCell
	for _, combo := range plan {
		for _, plugin := range proto.Plugins {
			cells = append(cells, planCell{combo, plugin})
		}
	}
	set := results.NewSet(proto.Params.Label, proto.FS.Name(), proto.Params.interval())
	proto.profileStatic(set)

	ms := make([]*results.Measurement, len(cells))
	errs := make([]error, len(cells))
	par.Do(len(cells), func(i int) {
		start := time.Now()
		ms[i], errs[i] = pr.runCell(cells[i])
		if pr.Label != "" {
			par.RecordTiming(fmt.Sprintf("%s/n%dp%d-%s", pr.Label,
				cells[i].combo.Nodes, cells[i].combo.PPN,
				cells[i].plugin.Name()), time.Since(start))
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %d (n%dp%d %s): %w", i,
				cells[i].combo.Nodes, cells[i].combo.PPN,
				cells[i].plugin.Name(), err)
		}
	}
	set.Merge(ms)
	return set, nil
}

// runCell executes one measurement on a fresh, identically-seeded
// kernel and returns it.
func (pr *ParallelRunner) runCell(c planCell) (*results.Measurement, error) {
	r := pr.New(sim.New(pr.Seed))
	r.Plugins = []Plugin{c.plugin}
	nodes, ppn := c.combo.Nodes, c.combo.PPN
	r.Filter = func(cc Combo) bool { return cc.Nodes == nodes && cc.PPN == ppn }
	// Pre-run load profiling samples the whole run's environment once in
	// the serial master; a per-cell repeat would misreport it.
	r.ProfileLoad = 0
	cellSet, err := r.Run()
	if err != nil {
		return nil, err
	}
	m := cellSet.Find(c.plugin.Name(), nodes, ppn)
	if m == nil {
		return nil, fmt.Errorf("measurement (%s, %d, %d) missing from cell set",
			c.plugin.Name(), nodes, ppn)
	}
	return m, nil
}
