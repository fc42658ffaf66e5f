package experiments

import (
	"errors"
	"reflect"
	"testing"

	"dmetabench/internal/cluster"
	"dmetabench/internal/core"
	"dmetabench/internal/nfs"
	"dmetabench/internal/par"
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

// TestParCellsFirstError pins that a failed cell fails the fan-out with
// the first failed cell's error in cell order, at any worker count.
func TestParCellsFirstError(t *testing.T) {
	old := par.Workers()
	defer par.SetWorkers(old)
	par.SetWorkers(4)
	names := []string{"a", "b", "c", "d"}
	vals, err := parCells("EX", names, func(i int) (int, error) { return 10 * i, nil })
	if err != nil || !reflect.DeepEqual(vals, []int{0, 10, 20, 30}) {
		t.Fatalf("clean fan-out = %v, %v", vals, err)
	}
	_, err = parCells("EX", names, func(i int) (int, error) {
		if i%2 == 1 {
			return 0, errors.New(names[i] + " broke")
		}
		return i, nil
	})
	if err == nil || err.Error() != "EX/b: b broke" {
		t.Fatalf("err = %v, want the first failed cell's", err)
	}
	par.DrainTimings()
}

// TestReportFail pins the one way a report fails: Err is set and the
// failure is the last finding.
func TestReportFail(t *testing.T) {
	r := (&Report{ID: "EX"}).fail(errors.New("boom"))
	if r.Err == nil || r.Findings[len(r.Findings)-1] != "run failed: boom" {
		t.Fatalf("failed report: err %v, findings %q", r.Err, r.Findings)
	}
}
