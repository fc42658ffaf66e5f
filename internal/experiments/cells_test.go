package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/nfs"
	"dmetabench/internal/sim"
)

// failRank is MakeFiles whose bench phase fails on one rank.
type failRank struct {
	core.MakeFiles
	rank int
}

func (f failRank) DoBench(c *core.Ctx) error {
	if c.Rank == f.rank {
		return errors.New("injected failure")
	}
	return f.MakeFiles.DoBench(c)
}

// nfsEnv builds a four-node cluster and an NFS filer on a fresh kernel.
func nfsEnv(seed int64) (*cluster.Cluster, core.FileSystem) {
	k := sim.New(seed)
	return cluster.New(k, cluster.DefaultConfig(4)), nfs.New(k, "home", nfs.DefaultConfig())
}

// TestMeasureFailedRank pins that one failed rank fails the measurement,
// with an error naming the op, the nodes x ppn combination and the rank.
func TestMeasureFailedRank(t *testing.T) {
	cl, fsys := nfsEnv(1)
	_, err := measure(cl, fsys, 2, 2, core.Params{ProblemSize: 50, WorkDir: "/bench"},
		failRank{rank: 3}, nil)
	if err == nil {
		t.Fatal("a failed rank did not fail the measurement")
	}
	if want := "MakeFiles 2x2: rank 3: dobench: injected failure"; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
}

// TestMeasureMatchesWiderRunner pins that measure's slot count (ppn)
// does not change a measurement: placement takes the first ppn slots of
// the first nodes nodes either way, so a runner with slots to spare,
// filtered to the same combination, measures exactly the same thing.
func TestMeasureMatchesWiderRunner(t *testing.T) {
	params := core.Params{ProblemSize: 200, WorkDir: "/bench"}
	for _, pt := range []combo{{1, 1}, {3, 1}, {2, 2}, {4, 3}} {
		cl, fsys := nfsEnv(7)
		got, err := measure(cl, fsys, pt.nodes, pt.ppn, params, core.MakeFiles{}, nil)
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		cl, fsys = nfsEnv(7)
		r := &core.Runner{
			Cluster:      cl,
			FS:           fsys,
			Params:       params,
			SlotsPerNode: 4,
			Plugins:      []core.Plugin{core.MakeFiles{}},
			Filter:       func(c core.Combo) bool { return c.Nodes == pt.nodes && c.PPN == pt.ppn },
		}
		set, err := r.Run()
		if err != nil {
			t.Fatalf("%v: %v", pt, err)
		}
		if want := set.Find("MakeFiles", pt.nodes, pt.ppn); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: measure differs from a runner with 4 slots per node", pt)
		}
	}
}

// synthetic is an experiment of n cells: cell i runs fn(i) and stores
// the result in its slot, and the report has one row per cell, in cell
// order, holding that result.
func synthetic(id string, n int, fn func(i int) (int, error)) Experiment {
	return Experiment{ID: id, plan: func() plan {
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		vals, cells := cellsOf(names, func(i int) int64 { return int64(i) },
			func(i int, _ *sim.Kernel) (int, error) { return fn(i) })
		return plan{cells, func(r *Report) {
			for i, v := range vals {
				r.row(names[i], float64(v), "", "")
			}
		}}
	}}
}

// rowValues returns a report's row values in order.
func rowValues(r *Report) []int {
	var out []int
	for _, row := range r.Rows {
		out = append(out, int(row.Value))
	}
	return out
}

// TestRunEveryCellOnce pins that Run runs every cell of every experiment
// exactly once (at one worker, in suite order), assembles each report
// from its own slots, and returns one timing per cell in suite order.
func TestRunEveryCellOnce(t *testing.T) {
	sizes := []int{5, 1, 7}
	for _, workers := range []int{1, 3, 8} {
		var runs [3][7]atomic.Int32
		var mu sync.Mutex
		var order, suite []int
		var exps []Experiment
		for e, n := range sizes {
			exps = append(exps, synthetic(fmt.Sprintf("X%d", e), n, func(i int) (int, error) {
				runs[e][i].Add(1)
				mu.Lock()
				order = append(order, 100*e+i)
				mu.Unlock()
				return 100*e + i, nil
			}))
		}
		reps, timings := Run(exps, workers)
		var want []Timing
		for e, n := range sizes {
			var vals []int
			for i := 0; i < n; i++ {
				if got := runs[e][i].Load(); got != 1 {
					t.Errorf("j%d: X%d cell %d ran %d times", workers, e, i, got)
				}
				vals = append(vals, 100*e+i)
				want = append(want, Timing{ID: exps[e].ID, Cell: string(rune('a' + i))})
			}
			suite = append(suite, vals...)
			if r := reps[e]; r.ID != exps[e].ID || r.Err != nil || !reflect.DeepEqual(rowValues(r), vals) {
				t.Errorf("j%d: report %d = %s %v %v, want %s %v", workers, e, r.ID, r.Err, rowValues(r), exps[e].ID, vals)
			}
		}
		for i := range timings {
			timings[i].Wall = 0
		}
		if !reflect.DeepEqual(timings, want) {
			t.Errorf("j%d: timings %v, want %v", workers, timings, want)
		}
		if workers == 1 && !reflect.DeepEqual(order, suite) {
			t.Errorf("j1: cells ran in order %v, want suite order %v", order, suite)
		}
	}
}

// TestRunBoundsConcurrency pins that no more than workers cells ever run
// at once.
func TestRunBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		var running, peak atomic.Int32
		cell := func(i int) (int, error) {
			n := running.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond) // let the other workers' cells overlap this one
			running.Add(-1)
			return i, nil
		}
		Run([]Experiment{synthetic("A", 9, cell), synthetic("B", 2, cell), synthetic("C", 13, cell)}, workers)
		if p := peak.Load(); p > int32(workers) {
			t.Errorf("j%d: %d cells ran at once", workers, p)
		}
	}
}

// TestRunSlotsIgnoreCompletionOrder pins that a report reads its cells'
// results by slot: here the cells finish in reverse order, and the rows
// still come out in cell order.
func TestRunSlotsIgnoreCompletionOrder(t *testing.T) {
	const n = 4
	var done [n + 1]chan struct{}
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	var mu sync.Mutex
	var finished []int
	exp := synthetic("X", n, func(i int) (int, error) {
		select { // cell i finishes only after cell i+1
		case <-done[i+1]:
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("cell %d: cell %d never finished", i, i+1)
		}
		mu.Lock()
		finished = append(finished, i)
		mu.Unlock()
		close(done[i])
		return 10 * i, nil
	})
	reps, _ := Run([]Experiment{exp}, n)
	if err := reps[0].Err; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(finished, []int{3, 2, 1, 0}) {
		t.Fatalf("cells finished in order %v, want reverse", finished)
	}
	if got := rowValues(reps[0]); !reflect.DeepEqual(got, []int{0, 10, 20, 30}) {
		t.Fatalf("rows %v, want the slots in cell order", got)
	}
}

// TestRunFailedCellFailsOnlyItsReport pins that a failed cell fails its
// own report with the first failed cell's error in cell order, prefixed
// with the experiment id and cell name, while the other experiments of
// the same run assemble normally, at any worker count.
func TestRunFailedCellFailsOnlyItsReport(t *testing.T) {
	for _, workers := range []int{1, 4} {
		dFailed := make(chan struct{})
		bad := synthetic("EX", 4, func(i int) (int, error) {
			switch i {
			case 1:
				if workers > 1 {
					<-dFailed // at 4 workers the later failure comes first
				}
				return 0, errors.New("b broke")
			case 3:
				close(dFailed)
				return 0, errors.New("d broke")
			}
			return i, nil
		})
		ok := func(i int) (int, error) { return i, nil }
		reps, _ := Run([]Experiment{synthetic("A", 3, ok), bad, synthetic("C", 2, ok)}, workers)
		if r := reps[1]; r.Err == nil || r.Err.Error() != "EX/b: b broke" || len(r.Rows) != 0 ||
			r.Findings[len(r.Findings)-1] != "run failed: EX/b: b broke" {
			t.Errorf("j%d: failed report: err %v, %d rows, findings %q", workers, r.Err, len(r.Rows), r.Findings)
		}
		for _, r := range []*Report{reps[0], reps[2]} {
			if r.Err != nil || len(r.Rows) == 0 {
				t.Errorf("j%d: %s: err %v, %d rows; want it assembled", workers, r.ID, r.Err, len(r.Rows))
			}
		}
	}
}

// TestReportFail pins the one way a report fails: Err is set and the
// failure is the last finding.
func TestReportFail(t *testing.T) {
	r := (&Report{ID: "EX"}).fail(errors.New("boom"))
	if r.Err == nil || r.Findings[len(r.Findings)-1] != "run failed: boom" {
		t.Fatalf("failed report: err %v, findings %q", r.Err, r.Findings)
	}
}
