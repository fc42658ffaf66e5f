package realrun

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dmetabench/internal/core"
	"dmetabench/internal/fs"
)

func TestOSClientBasics(t *testing.T) {
	root := t.TempDir()
	c := NewOSClient(root)
	if err := c.Mkdir("/d"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := c.Create("/d/f"); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := c.Create("/d/f"); fs.CodeOf(err) != fs.EEXIST {
		t.Fatalf("dup create: %v", err)
	}
	h, err := c.Open("/d/f")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := c.Write(h, 1234); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := c.Fsync(h); err != nil {
		t.Fatalf("fsync: %v", err)
	}
	if err := c.Close(h); err != nil {
		t.Fatalf("close: %v", err)
	}
	a, err := c.Stat("/d/f")
	if err != nil || a.Size != 1234 || a.Type != fs.TypeRegular {
		t.Fatalf("stat: %v %+v", err, a)
	}
	if err := c.Create("/d/g"); err != nil {
		t.Fatalf("create g: %v", err)
	}
	if err := c.Rename("/d/g", "/d/h"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	ents, err := c.ReadDir("/d")
	if err != nil || len(ents) != 2 {
		t.Fatalf("readdir: %v %v", err, ents)
	}
	if err := c.Rmdir("/d"); fs.CodeOf(err) != fs.ENOTEMPTY {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := c.Unlink("/d"); fs.CodeOf(err) != fs.EISDIR {
		t.Fatalf("unlink dir: %v", err)
	}
	// A symlink made on the host reads as one, in Stat and in ReadDir.
	if err := os.Symlink("f", filepath.Join(root, "d", "s")); err != nil {
		t.Fatal(err)
	}
	if a, err := c.Stat("/d/s"); err != nil || a.Type != fs.TypeSymlink {
		t.Fatalf("stat symlink: %v %+v", err, a)
	}
	if ents, err := c.ReadDir("/d"); err != nil || len(ents) != 3 || ents[2].Name != "s" || ents[2].Type != fs.TypeSymlink {
		t.Fatalf("readdir with symlink: %v %v", err, ents)
	}
	c.Unlink("/d/s")
	c.Unlink("/d/f")
	c.Unlink("/d/h")
	if err := c.Rmdir("/d"); err != nil {
		t.Fatalf("rmdir: %v", err)
	}
	if _, err := c.Stat("/d"); fs.CodeOf(err) != fs.ENOENT {
		t.Fatalf("stat removed: %v", err)
	}
}

func TestOSClientPathEscape(t *testing.T) {
	root := t.TempDir()
	c := NewOSClient(root)
	// Escaping paths are clamped into the root.
	if err := c.Create("/../../escaped"); err != nil {
		t.Fatalf("clamped create: %v", err)
	}
	if _, err := c.Stat("/escaped"); err != nil {
		t.Fatalf("clamped file not under root: %v", err)
	}
}

func TestRealRunnerLocal(t *testing.T) {
	r := &Runner{
		Root:    t.TempDir(),
		Workers: 3,
		Params: core.Params{
			ProblemSize: 300,
			WorkDir:     "/bench",
			Interval:    5 * time.Millisecond,
		},
		Plugins: []core.Plugin{core.MakeFiles{}, core.StatFiles{}},
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Measurements) != 2 {
		t.Fatalf("measurements = %d", len(set.Measurements))
	}
	for _, m := range set.Measurements {
		if m.Err() != nil {
			t.Fatalf("%s failed: %v", m.Op, m.Errors)
		}
		if m.TotalOps() != int64(300*3) {
			t.Fatalf("%s ops = %d", m.Op, m.TotalOps())
		}
		if a := m.Averages(); a.WallClock <= 0 {
			t.Fatalf("%s wallclock = %f", m.Op, a.WallClock)
		}
	}
}

// failingPrepare fails its prepare phase and counts doBench calls.
type failingPrepare struct{ benched *atomic.Int32 }

func (failingPrepare) Name() string              { return "FailingPrepare" }
func (failingPrepare) Prepare(*core.Ctx) error   { return errors.New("no space") }
func (p failingPrepare) DoBench(*core.Ctx) error { p.benched.Add(1); return nil }
func (failingPrepare) Cleanup(*core.Ctx) error   { return nil }

// TestRealRunnerPlugins runs plugins that PluginByName cannot build, a
// parameterised one and a custom one: the in-process workers must run
// the given values, and skip doBench after a failed prepare.
func TestRealRunnerPlugins(t *testing.T) {
	failing := failingPrepare{benched: new(atomic.Int32)}
	r := &Runner{
		Root:    t.TempDir(),
		Workers: 2,
		Params: core.Params{
			ProblemSize: 20,
			WorkDir:     "/bench",
			Interval:    5 * time.Millisecond,
		},
		Plugins: []core.Plugin{core.MakeFilesSized{Bytes: 100}, failing},
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := set.Measurements[0]
	if m.Err() != nil || m.Op != "MakeFiles100byte" || m.TotalOps() != 40 {
		t.Fatalf("%s: ops = %d, errors %v", m.Op, m.TotalOps(), m.Errors)
	}
	if m.Nodes != 1 || m.PPN != 2 || m.Traces[0].Host != "localhost" {
		t.Fatalf("shape: nodes %d ppn %d host %q", m.Nodes, m.PPN, m.Traces[0].Host)
	}
	m = set.Measurements[1]
	for rank, e := range m.Errors {
		if e != "prepare: no space" {
			t.Errorf("rank %d error = %q", rank, e)
		}
	}
	if n := failing.benched.Load(); n != 0 {
		t.Errorf("doBench ran %d times after a failed prepare", n)
	}
}

// TestRealRunnerPathListPeers runs StatMultinodeFiles with a path list:
// every rank stats the files its peer prepared, so the peer directories
// must follow the path list as the ranks' own directories do.
func TestRealRunnerPathListPeers(t *testing.T) {
	r := &Runner{
		Root:    t.TempDir(),
		Workers: 2,
		Params: core.Params{
			ProblemSize: 50,
			WorkDir:     "/bench",
			PathList:    []string{"/vol0", "/vol1"},
			Interval:    5 * time.Millisecond,
		},
		Plugins: []core.Plugin{core.StatMultinodeFiles{}},
	}
	set, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := set.Measurements[0]
	if m.Err() != nil {
		t.Fatalf("%s failed: %v", m.Op, m.Errors)
	}
	if m.TotalOps() != 100 {
		t.Fatalf("%s ops = %d", m.Op, m.TotalOps())
	}
}

// serveWorkers starts n dmetaworker services on loopback listeners and
// returns their addresses.
func serveWorkers(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		addrs = append(addrs, l.Addr().String())
		go Serve(l, "worker")
	}
	return addrs
}

// TestRPCMasterPathList gives a distributed run a path list: the ranks
// must work under its entries, not under WorkDir (§3.3.6).
func TestRPCMasterPathList(t *testing.T) {
	root := t.TempDir()
	m := &Master{
		Root:  root,
		Addrs: serveWorkers(t, 2),
		Params: core.Params{
			ProblemSize: 50,
			WorkDir:     "/bench",
			PathList:    []string{"/vol0", "/vol1"},
			Interval:    5 * time.Millisecond,
		},
		Plugins: []core.Plugin{core.MakeFiles{}},
	}
	set, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if meas := set.Measurements[0]; meas.Err() != nil || meas.TotalOps() != 100 {
		t.Fatalf("ops = %d, errors %v", meas.TotalOps(), meas.Errors)
	}
	// Cleanup removes each rank's directory, not its parent.
	c := NewOSClient(root)
	for _, vol := range []string{"/vol0", "/vol1"} {
		if _, err := c.Stat(vol + "/MakeFiles-n2-p2"); err != nil {
			t.Errorf("path-list entry %s unused: %v", vol, err)
		}
	}
	if _, err := c.Stat("/bench"); !fs.IsNotExist(err) {
		t.Errorf("WorkDir used despite the path list: %v", err)
	}
}

func TestRPCMasterWorker(t *testing.T) {
	root := t.TempDir()
	m := &Master{
		Root:  root,
		Addrs: serveWorkers(t, 2),
		Params: core.Params{
			ProblemSize: 200,
			WorkDir:     "/bench",
			Interval:    5 * time.Millisecond,
		},
		Plugins: []core.Plugin{core.MakeFiles{}, core.DeleteFiles{}},
	}
	set, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, meas := range set.Measurements {
		if meas.Err() != nil {
			t.Fatalf("%s failed: %v", meas.Op, meas.Errors)
		}
		if meas.Nodes != 2 {
			t.Fatalf("nodes = %d", meas.Nodes)
		}
		if meas.TotalOps() != 400 {
			t.Fatalf("%s ops = %d", meas.Op, meas.TotalOps())
		}
	}
	// Workspace cleaned up by the cleanup phases.
	c := NewOSClient(root)
	ents, err := c.ReadDir("/bench")
	if err == nil {
		for _, e := range ents {
			sub, _ := c.ReadDir("/bench/" + e.Name)
			if len(sub) != 0 {
				t.Fatalf("leftover files under /bench/%s: %v", e.Name, sub)
			}
		}
	}
}
