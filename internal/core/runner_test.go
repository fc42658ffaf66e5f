package core

import (
	"testing"
	"time"

	"dmetabench/internal/cluster"
	"dmetabench/internal/localfs"
	"dmetabench/internal/nfs"
	"dmetabench/internal/sim"
)

func TestRunnerNFSSmoke(t *testing.T) {
	k := sim.New(1)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	fsys := nfs.New(k, "home", nfs.DefaultConfig())
	r := &Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       Params{ProblemSize: 200, WorkDir: "/bench", Label: "smoke"},
		SlotsPerNode: 2,
		Plugins:      []Plugin{MakeFiles{}, StatFiles{}, DeleteFiles{}},
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Plan: ppn 1 with 2 nodes + ppn 2 with 2 nodes = 4 combos, 3 ops.
	if len(set.Measurements) != 12 {
		t.Fatalf("measurements = %d, want 12", len(set.Measurements))
	}
	for _, m := range set.Measurements {
		if m.Err() != nil {
			t.Fatalf("measurement %s %d/%d failed: %v", m.Op, m.Nodes, m.PPN, m.Errors)
		}
		if m.TotalOps() != int64(200*m.Procs()) {
			t.Fatalf("%s %d/%d: total ops = %d, want %d",
				m.Op, m.Nodes, m.PPN, m.TotalOps(), 200*m.Procs())
		}
		a := m.Averages()
		if a.Stonewall <= 0 || a.WallClock <= 0 {
			t.Fatalf("%s: averages = %+v", m.Op, a)
		}
	}
	// All test data cleaned up.
	if n := fsys.Namespace().NumFiles(); n != 0 {
		t.Fatalf("files left behind: %d", n)
	}
}

func TestRunnerTimedMakeFiles(t *testing.T) {
	k := sim.New(2)
	cl := cluster.New(k, cluster.DefaultConfig(2))
	fsys := nfs.New(k, "home", nfs.DefaultConfig())
	r := &Runner{
		Cluster: cl,
		FS:      fsys,
		Params: Params{
			ProblemSize: 1000,
			TimeLimit:   2 * time.Second,
			WorkDir:     "/bench",
		},
		SlotsPerNode: 1,
		Plugins:      []Plugin{MakeFiles{}},
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := set.Find("MakeFiles", 2, 1)
	if m == nil {
		t.Fatal("no 2-node measurement")
	}
	if m.Err() != nil {
		t.Fatalf("errors: %v", m.Errors)
	}
	for _, tr := range m.Traces {
		// ~2s at >1000 creates/s/node; must far exceed one problem size.
		if tr.Final < 1000 {
			t.Fatalf("proc %d created only %d files in 2s", tr.Proc, tr.Final)
		}
		if tr.FinishedAt < 2*time.Second || tr.FinishedAt > 2200*time.Millisecond {
			t.Fatalf("proc %d finished at %v, want ~2s", tr.Proc, tr.FinishedAt)
		}
	}
}

func TestRunnerLocalFS(t *testing.T) {
	k := sim.New(3)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := localfs.New(k, cl.Nodes[0], localfs.DefaultConfig())
	r := &Runner{
		Cluster:      cl,
		FS:           fsys,
		Params:       Params{ProblemSize: 500, WorkDir: "/shm"},
		SlotsPerNode: 4,
		Plugins:      []Plugin{OpenCloseFiles{}, MakeDirs{}},
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Measurements) != 8 {
		t.Fatalf("measurements = %d, want 8 (4 ppn x 2 ops)", len(set.Measurements))
	}
	for _, m := range set.Measurements {
		if m.Err() != nil {
			t.Fatalf("%s %d/%d: %v", m.Op, m.Nodes, m.PPN, m.Errors)
		}
	}
}

func TestPlacementDiscovery(t *testing.T) {
	slots := []Slot{
		{Node: "A", NodeIndex: 0, SlotOnNode: 0, GlobalID: 0},
		{Node: "A", NodeIndex: 0, SlotOnNode: 1, GlobalID: 1},
		{Node: "A", NodeIndex: 0, SlotOnNode: 2, GlobalID: 2},
		{Node: "B", NodeIndex: 1, SlotOnNode: 0, GlobalID: 3},
		{Node: "B", NodeIndex: 1, SlotOnNode: 1, GlobalID: 4},
		{Node: "B", NodeIndex: 1, SlotOnNode: 2, GlobalID: 5},
		{Node: "B", NodeIndex: 1, SlotOnNode: 3, GlobalID: 6},
	}
	p, err := Discover(slots)
	if err != nil {
		t.Fatal(err)
	}
	// Master on B (most slots), like Fig. 3.9.
	if p.Master.Node != "B" {
		t.Fatalf("master on %s, want B", p.Master.Node)
	}
	if len(p.Workers) != 6 {
		t.Fatalf("workers = %d", len(p.Workers))
	}
	// Round-robin ordering A,B,A,B,A,B.
	want := []string{"A", "B", "A", "B", "A", "B"}
	for i, w := range p.Workers {
		if w.Node != want[i] {
			t.Fatalf("worker %d on %s, want %s", i, w.Node, want[i])
		}
	}
}

func TestExecutionPlan(t *testing.T) {
	// Table 3.3: A has 2 workers, B and C have 3 each.
	slots := UniformSlots([]string{"A", "B", "C"}, 3)
	// Remove nothing: master will take one slot from A (first maximal).
	p, err := Discover(slots)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Plan(1, 1)
	// Worker counts: one node has 2, others 3.
	// ppn=1: nodes 1,2,3 -> 3 combos; ppn=2: 3 combos; ppn=3: 2 combos.
	if len(plan) != 8 {
		t.Fatalf("plan size = %d, want 8: %+v", len(plan), plan)
	}
	last := plan[len(plan)-1]
	if last.PPN != 3 || last.Nodes != 2 || last.Procs() != 6 {
		t.Fatalf("last combo = %+v", last)
	}
}

func TestPlanSteps(t *testing.T) {
	slots := UniformSlots([]string{"A", "B", "C", "D", "E", "F"}, 2)
	p, err := Discover(slots)
	if err != nil {
		t.Fatal(err)
	}
	plan := p.Plan(2, 2) // nodes 1,3,5; ppn 1 only (max 2, step 2 -> 1)
	for _, c := range plan {
		if c.PPN != 1 {
			t.Fatalf("unexpected ppn %d", c.PPN)
		}
		if c.Nodes%2 == 0 {
			t.Fatalf("unexpected node count %d with step 2", c.Nodes)
		}
	}
}

func TestMkdirAllRemoveAll(t *testing.T) {
	k := sim.New(4)
	cl := cluster.New(k, cluster.DefaultConfig(1))
	fsys := localfs.New(k, cl.Nodes[0], localfs.DefaultConfig())
	var failed error
	k.Spawn("t", func(p *sim.Proc) {
		c := fsys.NewClient(cl.Nodes[0], p)
		if err := MkdirAll(c, "/a/b/c/d"); err != nil {
			failed = err
			return
		}
		if err := MkdirAll(c, "/a/b/c/d"); err != nil { // idempotent
			failed = err
			return
		}
		if err := c.Create("/a/b/c/d/f"); err != nil {
			failed = err
			return
		}
		if err := RemoveAll(c, "/a"); err != nil {
			failed = err
			return
		}
		if err := RemoveAll(c, "/a"); err != nil { // missing is fine
			failed = err
			return
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if failed != nil {
		t.Fatal(failed)
	}
	if fsys.Namespace().NumInodes() != 1 {
		t.Fatalf("inodes = %d, want 1 (root)", fsys.Namespace().NumInodes())
	}
}
