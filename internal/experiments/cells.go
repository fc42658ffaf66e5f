package experiments

import (
	"fmt"
	"sync"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/results"
	"dmetabench/internal/sim"
)

// Every experiment is a plan of cells: independent units of simulated
// work, each one run on a fresh kernel seeded with the cell's seed (a
// cell that derives a data point without simulating ignores its
// kernel). A cell writes only its own result slot, which the plan owns,
// and the plan's assemble builds the report from the slots once every
// cell of the experiment has finished. Run flattens the cells of every
// selected experiment into one list and runs it on a fixed set of
// workers, so the assembled report is byte-identical at any worker
// count: cells share nothing, and assembly never sees completion order.

// cell is one seeded unit of work: run gets a fresh kernel seeded with
// seed and returns why the cell failed, if it did.
type cell struct {
	name string
	seed int64
	run  func(k *sim.Kernel) error
}

// plan is an experiment's cells plus assemble, the pure step that builds
// the report from the cells' results. Run calls assemble only after
// every cell has succeeded.
type plan struct {
	cells    []cell
	assemble func(r *Report)
}

// cellsOf builds one cell per name: cell i runs run(i, k) on a kernel
// seeded with seed(i) and stores the result in slot i of the returned
// slice, for assemble to read.
func cellsOf[T any](names []string, seed func(i int) int64, run func(i int, k *sim.Kernel) (T, error)) ([]T, []cell) {
	out := make([]T, len(names))
	cells := make([]cell, len(names))
	for i, name := range names {
		cells[i] = cell{name: name, seed: seed(i), run: func(k *sim.Kernel) (err error) {
			out[i], err = run(i, k)
			return err
		}}
	}
	return out, cells
}

// Timing is one cell's wall-clock cost.
type Timing struct {
	ID, Cell string
	Wall     time.Duration
}

// Run runs every cell of exps on workers goroutines (at least one) and
// returns one report per experiment and one timing per cell, both in
// exps order. The cells run first-in, first-out in suite order. The
// worker that finishes an experiment's last cell assembles its report
// at once, so the experiment's results are released long before the
// suite ends. A failed cell fails only its own experiment's report,
// with the first failed cell's error in cell order.
func Run(exps []Experiment, workers int) ([]*Report, []Timing) {
	type job struct{ exp, cell int }
	plans := make([]plan, len(exps))
	errs := make([][]error, len(exps))
	left := make([]int, len(exps))
	reps := make([]*Report, len(exps))
	var jobs []job
	for e := range exps {
		plans[e] = exps[e].plan()
		n := len(plans[e].cells)
		errs[e], left[e] = make([]error, n), n
		for c := 0; c < n; c++ {
			jobs = append(jobs, job{e, c})
		}
		if n == 0 {
			reps[e] = exps[e].report(plans[e], nil)
		}
	}
	timings := make([]Timing, len(jobs))

	var (
		mu   sync.Mutex // guards next and left
		next int
		wg   sync.WaitGroup
	)
	for w := 0; w < max(workers, 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				c := plans[j.exp].cells[j.cell]
				start := time.Now()
				errs[j.exp][j.cell] = c.run(sim.New(c.seed))
				timings[i] = Timing{ID: exps[j.exp].ID, Cell: c.name, Wall: time.Since(start)}

				mu.Lock()
				left[j.exp]--
				last := left[j.exp] == 0
				mu.Unlock()
				if last {
					// Every other cell of this experiment decremented left
					// under mu after writing its slot, so all slots are
					// visible here.
					reps[j.exp] = exps[j.exp].report(plans[j.exp], errs[j.exp])
					plans[j.exp] = plan{}
				}
			}
		}()
	}
	wg.Wait()
	return reps, timings
}

// report assembles e's report from its finished plan, or fails it with
// the first failed cell's error in cell order.
func (e Experiment) report(p plan, errs []error) *Report {
	r := &Report{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef, Volatile: e.Volatile}
	for i, err := range errs {
		if err != nil {
			return r.fail(fmt.Errorf("%s/%s: %w", e.ID, p.cells[i].name, err))
		}
	}
	p.assemble(r)
	return r
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

// createSweep declares one MakeFiles cell per (file system, point),
// each on a kernel seeded with its file system's seed. Once the cells
// have run, the returned slice holds one set per file system for
// stoneOf and ScaleSeries.
func createSweep(fss []sweepFS, points []combo,
	newCluster func(k *sim.Kernel) *cluster.Cluster, params core.Params) ([]*results.Set, []cell) {
	var names []string
	for _, f := range fss {
		for _, pt := range points {
			names = append(names, f.name+"-"+pt.String())
		}
	}
	ms, cells := cellsOf(names, func(i int) int64 { return fss[i/len(points)].seed },
		func(i int, k *sim.Kernel) (*results.Measurement, error) {
			f, pt := fss[i/len(points)], points[i%len(points)]
			cl := newCluster(k)
			return measure(cl, f.mk(k), pt.nodes, pt.ppn, params, core.MakeFiles{}, nil)
		})
	sets := make([]*results.Set, len(fss))
	for i := range sets {
		sets[i] = &results.Set{Measurements: ms[i*len(points) : (i+1)*len(points)]}
	}
	return sets, cells
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
