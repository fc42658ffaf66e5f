package experiments

import (
	"fmt"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/par"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// Every experiment below decomposes into cells: independent units of
// simulated work (one seeded kernel run or one derived data point) that
// fan out across the par worker pool and merge in declaration order.
// Each cell writes only its own slot of the result slice, so the
// assembled report is byte-identical at any worker count; shared seeds
// are passed into cells explicitly, never drawn from shared state.
// cmd/experiments -j sets the pool size, -cells prints the recorded
// per-cell wall-clock timings.

// parCells runs one cell per name across the worker pool and returns
// the results in cell order, or the error of the first failed cell in
// cell order (so a failure, too, reads the same at any worker count).
// Timings are recorded as "<expID>/<name>".
func parCells[T any](expID string, names []string, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, len(names))
	errs := make([]error, len(names))
	par.Do(len(names), func(i int) {
		start := time.Now()
		out[i], errs[i] = run(i)
		par.RecordTiming(expID+"/"+names[i], time.Since(start))
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", expID, names[i], err)
		}
	}
	return out, nil
}

// measure takes one DMetabench measurement: plugin run by ppn processes
// on each of the first `nodes` nodes of cl, against fsys. hook, when set,
// runs in the master at the start of the bench phase. It fails on a
// kernel error, a missing measurement and any rank's error.
func measure(cl *cluster.Cluster, fsys core.FileSystem, nodes, ppn int, params core.Params,
	plugin core.Plugin, hook func(mp *sim.Proc, info core.MeasurementInfo)) (*results.Measurement, error) {
	r := &core.Runner{
		Cluster:        cl,
		FS:             fsys,
		Params:         params,
		SlotsPerNode:   ppn,
		Plugins:        []core.Plugin{plugin},
		BenchStartHook: hook,
		Filter:         func(c core.Combo) bool { return c.Nodes == nodes && c.PPN == ppn },
	}
	set, err := r.Run()
	if err != nil {
		return nil, err
	}
	m := set.Find(plugin.Name(), nodes, ppn)
	if m == nil {
		return nil, fmt.Errorf("%s %dx%d: no measurement", plugin.Name(), nodes, ppn)
	}
	return m, m.Err()
}

// combo is one (nodes, ppn) point of a scaling sweep.
type combo struct{ nodes, ppn int }

func (c combo) String() string { return fmt.Sprintf("n%dp%d", c.nodes, c.ppn) }

// sweepFS is one file system of a scaling sweep; all its cells use seed.
type sweepFS struct {
	name string
	seed int64
	mk   func(k *sim.Kernel) core.FileSystem
}

// createSweep measures MakeFiles at every point on every file system,
// one cell per (file system, point), each on a fresh kernel seeded with
// its file system's seed. It returns one set per file system for
// stoneOf and ScaleSeries.
func createSweep(expID string, fss []sweepFS, points []combo,
	newCluster func(k *sim.Kernel) *cluster.Cluster, params core.Params) ([]*results.Set, error) {
	var names []string
	for _, f := range fss {
		for _, pt := range points {
			names = append(names, f.name+"-"+pt.String())
		}
	}
	ms, err := parCells(expID, names, func(i int) (*results.Measurement, error) {
		f, pt := fss[i/len(points)], points[i%len(points)]
		k := sim.New(f.seed)
		cl := newCluster(k)
		return measure(cl, f.mk(k), pt.nodes, pt.ppn, params, core.MakeFiles{}, nil)
	})
	if err != nil {
		return nil, err
	}
	sets := make([]*results.Set, len(fss))
	for i := range sets {
		sets[i] = &results.Set{Measurements: ms[i*len(points) : (i+1)*len(points)]}
	}
	return sets, nil
}

// runProbe spawns body as process name on k, runs k to completion and
// returns the kernel's error, or else the one body returned: a
// hand-rolled probe keeps its first error instead of reporting a zero.
func runProbe(k *sim.Kernel, name string, body func(p *sim.Proc) error) error {
	var perr error
	k.Spawn(name, func(p *sim.Proc) { perr = body(p) })
	if err := k.Run(); err != nil {
		return err
	}
	return perr
}
